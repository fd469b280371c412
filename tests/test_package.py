"""Package surface: every exported name resolves and is listed once."""

import bwrobust


def test_all_entries_resolve_once():
    names = bwrobust.__all__
    assert len(names) == len(set(names)), sorted(
        {n for n in names if names.count(n) > 1})
    assert [n for n in names if not hasattr(bwrobust, n)] == []
