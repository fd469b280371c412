"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import execute
import inputs

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "maxmin_sweep",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=BENCH.parent)
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    lines = _run(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 3
    names = [m["name"] for m in SPEC[section]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} ") for line in lines)


@pytest.fixture(scope="module")
def slack_output(tmp_path_factory):
    """A real guaranteed-VaR point (the shipped config's slack A = 1.406)."""
    item = inputs.Item("guaranteed", "config_A1.406", {
        "config": inputs.guaranteed_config(inputs.TEXP, "tvar", 0.95, 0.005,
                                           inputs.GUARANTEED_SLACK_A)})
    out_dir = tmp_path_factory.mktemp("point")
    out = execute.run(item, execute.prepare(item), out_dir)
    return item, out_dir, out


def _doctor(out_dir, change):
    path = out_dir / "summary.json"
    report = json.loads(path.read_text())
    change(report["records"][0])
    path.write_text(json.dumps(report))


def test_genuine_output_passes(slack_output):
    item, _, out = slack_output
    assert checks.item_problems(item, out, None) == []


def test_slope_above_one_counts_as_failed(slack_output, tmp_path):
    item, out_dir, _ = slack_output
    doctored = tmp_path / "doctored"
    doctored.mkdir()
    for f in out_dir.iterdir():
        (doctored / f.name).write_bytes(f.read_bytes())

    def steepen(record):
        record["contract"]["slopes"][-1] = 1.2

    _doctor(doctored, steepen)
    problems = checks.item_problems(item, {"dir": str(doctored)}, None)
    assert any("slope" in p.message for p in problems)
    assert checks.tally([problems]) == (1, False)


def test_nonzero_kkt_product_counts_as_failed(slack_output, tmp_path):
    item, out_dir, _ = slack_output
    doctored = tmp_path / "doctored"
    doctored.mkdir()
    for f in out_dir.iterdir():
        (doctored / f.name).write_bytes(f.read_bytes())

    def push_multiplier(record):
        # the cap is slack at A = 1.406, so a positive multiplier breaks
        # complementary slackness
        record["lambda_star"] = 50.0

    _doctor(doctored, push_multiplier)
    problems = checks.item_problems(item, {"dir": str(doctored)}, None)
    assert any("lambda" in p.message for p in problems)
    # the slack here is far from the known nearest-probe defect's signature
    assert checks.tally([problems]) == (1, False)


def test_nearest_probe_signature_is_a_known_defect():
    """lambda* > 0 with a tiny negative slack: counted, tagged, not new."""
    texp = inputs.distributions.make_truncated_exponential(1.0, 100.0)
    a_level = 1.396
    record = {"lambda_star": 69.917, "v_upper": a_level - 2.45e-6,
              "contract": {"breakpoints": [0.0, 100.0], "slopes": [0.0]}}
    problems = checks.guarantee_problems(record, texp, 0.5, a_level)
    assert [p.defect for p in problems] == ["kkt-outer-root"]
    assert checks.tally([problems]) == (1, True)


def test_raised_item_counts_as_failed():
    problems = checks.item_problems(None, RuntimeError("boom"), None)
    assert checks.tally([problems, []]) == (1, True)


def test_inputs_are_seeded():
    a = inputs.maxmin_items(np.random.default_rng(7))
    b = inputs.maxmin_items(np.random.default_rng(7))
    c = inputs.maxmin_items(np.random.default_rng(8))
    assert [i.data for i in a] == [i.data for i in b]
    assert [i.data for i in a] != [i.data for i in c]


def test_select_rounds_takes_whole_rounds_by_nominal_cost():
    pool = [inputs.Item("x", f"r{r}i{i}", {}, round=r, nominal_s=1.0)
            for r in range(4) for i in range(2)]
    labels = [it.label for it in inputs.select_rounds(pool, 4.0)]
    # round 1 ends at 4 s; round 2 would end at 6 s, farther than 4 s
    assert labels == ["r0i0", "r0i1", "r1i0", "r1i1"]
    # round 0 runs whatever the budget
    assert len(inputs.select_rounds(pool, 0.0)) == 2


def test_run_list_depends_only_on_seed_and_seconds():
    a = inputs.make_items("maxmin_sweep", 3, 20.0)
    b = inputs.make_items("maxmin_sweep", 3, 20.0)
    assert [i.data for i in a] == [i.data for i in b]
    assert [i.label for i in a[:3]] == ["config_k1", "config_k2", "config_k4"]
    assert len(inputs.make_items("maxmin_sweep", 3, 1.0)) < len(a)


def test_bare_directory_exits_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
