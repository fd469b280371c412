"""bwrobust benchmark: one entry point, four seeded workloads.

    python3 bench/run.py --workload maxmin_sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Each workload is a seeded pool of items (see ``inputs.py``), run
single-process and closed-loop: one caller, each item started only after
the previous one returned.  A run times a fixed list of whole rounds of the
pool, sized from ``--seconds`` with nominal item costs, so the items a run
attempts depend on the seed and ``--seconds`` only; round 0 holds the
shipped configs' points.  Outputs are checked after the timed region
(``checks.py``).

``--trace 0`` reports the end-to-end metrics; set-up time is measured in
fresh interpreters.  ``--trace 1`` sizes its list for half of ``--seconds``
and runs every item twice back to back, untraced and with every layer
wrapped (``tracing.py``), in alternating order; it reports per-item layer
metrics of the traced runs and the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record and
the trace spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

# one BLAS/OpenMP thread, set before numpy is first imported; the set-up
# probes inherit it
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
# no item starts after this much timed wall time, so a run on a machine far
# slower than the nominal item costs assume still ends in time
MAX_TIMED_S = 100.0

# workloads whose input placement runs no solver: their first item runs once
# untimed, so lazy set-up in the first timed point does not skew it
WARM_UP = ("maxmin_sweep",)

E2E_UNITS = {"setup_s": "s", "points_per_s": "1/s", "point_s_p50": "s",
             "peak_rss_mb": "MB"}


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "bwrobust" / "__init__.py").is_file():
    _fail(f"no package source at {SRC / 'bwrobust'}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import execute  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record():
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "env": {k: os.environ[k] for k in PINNED_ENV},
        # informational only, never gated: the size of the program measured
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# set-up time: fresh interpreter to ready
# ---------------------------------------------------------------------------

def setup_probe(items_path):
    """Child process body: import the package, validate/build every input."""
    with open(items_path, encoding="utf-8") as fh:
        items = [inputs.Item(**d) for d in json.load(fh)]
    from bwrobust import cli

    for item in items:
        if item.kind in ("maxmin", "guaranteed"):
            cli.build_scenario(cli.validate_config(item.data["config"]))
        else:
            execute.prepare(item)


def measure_setup(items, run_dir):
    items_path = run_dir / "items.json"
    with open(items_path, "w", encoding="utf-8") as fh:
        json.dump([asdict(it) for it in items], fh)
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                        str(items_path)], check=True, cwd=ROOT)
        walls.append(perf_counter() - t0)
    return statistics.median(walls), walls


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_item(item, prep, out_dir, tracer=None):
    """Time one item; an exception is its output, counted by the checks."""
    t0 = perf_counter()
    if tracer is not None:
        tracer.install()
        frame = tracer.push("item")
    try:
        out = execute.run(item, prep, out_dir)
    except Exception as exc:  # a failed operation
        out = exc
    finally:
        if tracer is not None:
            tracer.pop(frame)
            tracer.uninstall()
    return perf_counter() - t0, out


def timed_loop(items, prepared, run_dir, tracer=None):
    """Run the items once, in order; returns ``[(index, seconds, output)]``.

    With a tracer every item runs twice back to back, untraced and traced
    in alternating order; the traced runs are returned and the untraced
    times are appended to ``tracer.untraced``.
    """
    results = []
    start = perf_counter()
    for idx, (item, prep) in enumerate(zip(items, prepared)):
        if perf_counter() - start > MAX_TIMED_S:
            print(f"# stopped after {idx} of {len(items)} items: "
                  f"{MAX_TIMED_S:g} s of timed wall time", file=sys.stderr)
            break
        out_dir = run_dir / f"{idx:04d}"
        if tracer is None:
            results.append((idx, *run_item(item, prep, out_dir)))
            continue
        for traced in ((False, True) if idx % 2 == 0 else (True, False)):
            if traced:
                results.append((idx, *run_item(item, prep, out_dir, tracer)))
            else:
                tracer.untraced.append(
                    run_item(item, prep, run_dir / f"{idx:04d}u")[0])
    return results


def check_results(items, prepared, results):
    """Problems per timed item, computed outside the timed region."""
    out = []
    for idx, _, output in results:
        try:
            problems = checks.item_problems(items[idx], output, prepared[idx])
        except Exception:
            problems = [checks.Problem("check raised:\n" + traceback.format_exc())]
        out.append(problems)
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def emit(metrics, counts, results, problem_lists, record, extra, path):
    """Print the metric lines and the final JSON line; save the run record."""
    attempted = len(results)
    failed, correct = checks.tally(problem_lists)
    for (idx, secs, _), problems in zip(results, problem_lists):
        for prob in problems:
            kind = ("WRONG" if prob.wrong and prob.defect is None else
                    f"FAILED (known defect {prob.defect})" if prob.defect else
                    "FAILED")
            print(f"# {kind} item {idx}: {prob.message}")
    print(f"# fail_ratio {failed / attempted!r} ratio n={attempted} "
          f"(failed {failed} of {attempted} items)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit} n={counts.get(name, 1)}")
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "correct": correct, "attempted": attempted,
                   "failed": failed, "fail_ratio": failed / attempted,
                   "metrics": {k: {"value": v, "unit": u, "n": counts.get(k, 1)}
                               for k, (v, u) in metrics.items()},
                   "items": [{"index": idx, "seconds": secs,
                              "problems": [prob.message for prob in p]}
                             for (idx, secs, _), p in zip(results, problem_lists)],
                   **extra}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record = run_record()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# record {json.dumps(record)}")

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        items = inputs.make_items(args.workload, args.seed,
                                  args.seconds / (2.0 if args.trace else 1.0))
        if not args.trace:
            setup_s, walls = measure_setup(items, run_dir)
        prepared = [execute.prepare(it) for it in items]
        if args.workload in WARM_UP:
            execute.run(items[0], prepared[0], run_dir / "warm_up")
        if not args.trace:
            wall0 = perf_counter()
            results = timed_loop(items, prepared, run_dir)
            wall = perf_counter() - wall0
            problems = check_results(items, prepared, results)
            times = [secs for _, secs, _ in results]
            n = len(times)
            metrics = {
                "setup_s": setup_s,
                "points_per_s": n / wall,
                "point_s_p50": statistics.median(times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
            counts = {"setup_s": SETUP_PROBES, "points_per_s": n,
                      "point_s_p50": n}
            extra = {"setup_walls": walls, "timed_wall_s": wall}
        else:
            tracer = tracing.Tracer()
            results = timed_loop(items, prepared, run_dir, tracer=tracer)
            problems = check_results(items, prepared, results)
            n = len(results)
            t_untraced = sum(tracer.untraced)
            t_traced = sum(secs for _, secs, _ in results)
            metrics = tracing.layer_values(tracer.counts, n)
            selfs = tracing.self_time_table(tracer.counts)
            attributed = sum(v for k, v in selfs.items() if k != "item")
            metrics["trace.overhead_ratio"] = (t_traced / t_untraced, "ratio")
            metrics["trace.item_s"] = (t_traced / n, "s/item")
            metrics["trace.attributed_ratio"] = (attributed / t_traced, "ratio")
            counts = {k: n for k in metrics}
            for name, val in sorted(selfs.items(), key=lambda kv: -kv[1]):
                print(f"# self_s {name} {val / n!r} s/item")
            tracer.write_spans(f"{stem}-spans.jsonl")
            extra = {"self_s_per_item": {k: v / n for k, v in selfs.items()},
                     "untraced_s": t_untraced, "traced_s": t_traced}
        extra["labels"] = [items[idx].label for idx, _, _ in results]
        emit(metrics, counts, results, problems, record, extra, f"{stem}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
