"""Benchmark of fqpack: three seeded workloads, end-to-end and traced metrics.

Run from the repository root:

    python3 perfbench/run.py --workload compress_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload, each in a fresh process. A run
prints a table of its metrics (unit and sample count for each), the run's
metadata and output digests, then one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the ``end_to_end`` set of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the ``per_layer`` set, from one extra traced
iteration. Every run also writes its record, and the spans of a traced run,
under perfbench/out/.

The program is imported from src/ of the same checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# the keys of workloads.WORKLOADS, which cannot be imported before the BLAS
# thread count is set
WORKLOAD_NAMES = ("compress_wide", "infer_toy", "train_toy")
PHASE_METRICS = ("phase1_items_per_s", "phase2_items_per_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def give_up(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import fqpack from src/ of this checkout, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import fqpack
    except ImportError as exc:
        give_up(f"cannot import fqpack from {SRC}: {exc}")
    if not os.path.abspath(fqpack.__file__).startswith(SRC + os.sep):
        give_up(f"fqpack was imported from {fqpack.__file__}, not {SRC}")
    return fqpack


def source_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "fqpack", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def measure(workload, state, ledger, seconds, rec, op_failed):
    """Repeat iterations until ``seconds`` have passed (at least one); wall times."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        try:
            workload.iterate(state, ledger, rec)
        except op_failed:
            pass  # the ledger holds the failure
        walls.append(time.perf_counter() - t0)
    return walls


def end_to_end_rows(workload, state, ledger, setup_times, failed, attempted, gated_names):
    """(name, value, unit, samples, gated name or None) for the metric table."""
    rows = [
        ("setup_s", statistics.median(setup_times), "s", len(setup_times), "setup_s"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MB", 1, "peak_rss_mb"),
        ("failed_share", failed / attempted, "share", attempted, None),
    ]
    for (label, kind, unit), gated in zip(workload.phases, PHASE_METRICS):
        if ledger.count(kind):
            rows.append((label, workload.items(state, kind) * ledger.count(kind)
                         / ledger.total(kind), unit, ledger.count(kind), gated))
    if state.first is not None:
        for name, (value, unit, n) in workload.report(state).items():
            rows.append((name, value, unit, n, name if name in gated_names else None))
    return rows


def per_layer_values(workload, state, rec, spec, measured):
    """Every per-layer metric of BENCHMARK.json, and a note on each that needs one.

    ``measured`` holds the values the runner itself took, such as the
    tracing overhead.
    """
    values, notes = dict(measured), {}

    def put(name, hooks, compute, note=""):
        missing = [rec.absent[h] for h in hooks if h in rec.absent]
        if missing:
            notes[name] = "absent: " + "; ".join(missing)
            values[name] = 0.0
        else:
            values[name] = float(compute())
            if note:
                notes[name] = note

    if state.first is not None:
        workload.layer_metrics(rec, state, put)
    for metric in spec["per_layer"]:
        if metric["name"] not in values:
            notes[metric["name"]] = "not exercised by this workload"
            values[metric["name"]] = 0.0
    return values, notes


def run_one(args, spec, threads):
    import_program()
    import numpy as np

    from spans import NullRecorder, SpanRecorder
    from workloads import WORKLOADS, Ledger, OpFailed

    workload = WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    ledgers = [Ledger()]
    walls = measure(workload, state, ledgers[0], args.seconds, NullRecorder(), OpFailed)
    run_id = f"{args.workload}-seed{args.seed}"
    if args.trace:
        rec = SpanRecorder(run_id)
        ledgers.append(Ledger())
        try:
            workload.hook(rec, state)
            [traced_wall] = measure(workload, state, ledgers[1], 0, rec, OpFailed)
        finally:
            rec.unhook()

    if state.first is not None:
        try:
            workload.verify(state)
        except Exception:  # a check that raises fails the first iteration's ops
            first_ledger, ops = state.first[0], state.first[1]
            for op in ops:
                first_ledger.reject(op, f"verification raised:\n{traceback.format_exc(limit=6)}")
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    problems = [p for ledger in ledgers for p in ledger.problems.values()]
    correct = state.first is not None and failed == 0

    gated_names = [m["name"] for m in spec["end_to_end"]]
    rows = end_to_end_rows(workload, state, ledgers[0], setup_times, failed, attempted,
                           gated_names)
    if args.trace:
        overhead = traced_wall - statistics.median(walls)
        layer, notes = per_layer_values(workload, state, rec, spec,
                                        {"trace.overhead_s": overhead})
        declared = spec["per_layer"]
    else:
        layer, notes = {row[4]: row[1] for row in rows if row[4]}, {}
        declared = spec["end_to_end"]
        missing = [name for name in gated_names if name not in layer]
        if missing:
            correct = False
            problems.append(f"end-to-end metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in layer}

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads, "blas": blas_info(np),
        "python": platform.python_version(), "numpy": np.__version__,
        "src_fqpack_lines": source_lines(), "iterations": len(walls),
        "seeds": getattr(state, "seeds", {}),
    }
    digests = getattr(state, "digests", {})

    print(f"fqpack benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"machine: nproc {meta['nproc']}, BLAS {meta['blas']} ({threads} threads), "
          f"python {meta['python']}, numpy {meta['numpy']}, "
          f"src/fqpack {meta['src_fqpack_lines']} lines, {len(walls)} iterations")
    print("seeds: " + ", ".join(f"{k} {v}" for k, v in meta["seeds"].items()))
    print(f"{'metric':34} {'value':>14}  {'unit':14} {'n':>6}  gated as")
    for name, value, unit, n, as_name in rows:
        print(f"{name:34} {value:14.6g}  {unit:14} {n:6d}  {as_name or '-'}")
    print(f"failed/attempted: {failed}/{attempted}")
    for name, value in digests.items():
        print(f"digest {name}: {value}")
    if args.trace:
        print(f"{'per-layer metric':40} {'value':>14}")
        for metric in declared:
            name = metric["name"]
            print(f"{name:40} {layer[name]:14.6g}  {metric['unit']:10} {notes.get(name, '')}")
        print(f"traced iteration {traced_wall:.4f} s, untraced median "
              f"{statistics.median(walls):.4f} s")
    for line in problems:
        print(f"FAILED: {line}")

    os.makedirs(OUT, exist_ok=True)
    stem = f"{run_id}-trace{args.trace}"
    record = {"meta": meta, "rows": [list(r) for r in rows], "digests": digests,
              "attempted": attempted, "failed": failed, "problems": problems,
              "iteration_walls_s": walls, "setup_s": setup_times,
              "metrics": layer, "notes": notes}
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        rec.write(os.path.join(OUT, f"spans-{stem}.jsonl"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, so memory and import state are its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        status = status or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "fqpack")):
        give_up(f"no fqpack sources under {SRC}")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    # BLAS reads its thread count once, when numpy loads, so set it first
    threads = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return run_one(args, spec, threads)


if __name__ == "__main__":
    sys.exit(main())
