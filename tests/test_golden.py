"""Golden outputs of the shipped configs.

Every point of ``configs/maxmin_k_sweep.yaml`` and the point A = 1.406 of
``configs/guaranteed_var_sweep.yaml`` run through the CLI path.  Every
``summary.json`` field except ``runtime_seconds``, and the SHA-256 of every
CSV, must equal ``tests/golden/shipped_configs.json``.  The binding points
A = 1.401 and 1.396 are not pinned: ROADMAP item 1 is expected to move them.

``python tests/test_golden.py`` regenerates the file and prints what moved.
A change to this file changes what the suite accepts, so say in CHANGES.md
why the outputs moved.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "shipped_configs.json"
# config file -> sweep values kept per swept parameter (None keeps them all)
POINTS = {"maxmin_k_sweep.yaml": None,
          "guaranteed_var_sweep.yaml": {"A": [1.406]}}


def shipped_outputs(out_dir):
    """Summary fields and CSV digests of the pinned points, per config."""
    from bwrobust import cli

    outputs = {}
    for name, keep in POINTS.items():
        config = cli.load_config(ROOT / "configs" / name)
        if keep:
            config = dataclasses.replace(config, sweep=[
                dict(entry, values=keep[entry["parameter"]])
                for entry in config.sweep])
        report, curves = cli.run_scenario(config, base_dir=ROOT / "configs")
        files = cli.emit_plot_data(report, curves, Path(out_dir) / name)
        summary = json.loads((Path(out_dir) / name / "summary.json").read_text())
        records = {}
        for record in summary.pop("records"):
            record.pop("runtime_seconds")
            records[record["label"]] = record
        outputs[name] = {
            "summary": dict(summary, records=records),
            "csv_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in files if p.suffix == ".csv"}}
    return outputs


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        yield f"{path}.len", len(node)
        for i, val in enumerate(node):
            yield from _leaves(val, f"{path}[{i}]")
    else:
        yield path, node


def differences(expected, actual):
    """One line per field that moved, appeared or disappeared."""
    old, new = dict(_leaves(expected)), dict(_leaves(actual))
    out = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            out.append(f"{key}: {old[key]!r} is gone")
        elif key not in old:
            out.append(f"{key}: new, {new[key]!r}")
        elif old[key] != new[key]:
            out.append(f"{key}: {old[key]!r} -> {new[key]!r}")
    return out


def test_shipped_outputs_match_golden(tmp_path):
    moved = differences(json.loads(GOLDEN.read_text()), shipped_outputs(tmp_path))
    assert not moved, "outputs moved from tests/golden:\n" + "\n".join(moved)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        fresh = shipped_outputs(tmp)
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    print("\n".join(differences(previous, fresh)) or "no field moved")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
