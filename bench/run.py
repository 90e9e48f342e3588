#!/usr/bin/env python3
"""Benchmark command for dyadhist.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations for about S seconds, checks
them against ``reference``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  See
README.md in this directory for the workloads and what each metric means.
"""

import os

# one thread for every BLAS/OpenMP pool, here and in the probes started below
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import test_reference  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Seconds for ``import dyadhist`` plus the workload's inputs, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_round(ops, tracer):
    """Run every operation once; returns (seconds inside operations, results, failures)."""
    results, spent, failed = {}, 0.0, 0
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is not None and op.span:
                results[op.name] = tracer.call(op.span, op.fn, (results,))
            else:
                results[op.name] = op.fn(results)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            failed += 1
            print(f"operation {op.name} failed: {exc!r}", file=sys.stderr)
        spent += time.perf_counter() - start
    return spent, results, failed


def check_round(workload, inputs, results, workdir, failed: int):
    """Reference checks on one round's outputs; returns (passed, L1 distances to the truth)."""
    try:
        return True, workload.check(inputs, results, workdir)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False, []
    except KeyError as exc:
        if not failed:
            raise
        print(f"checks that need the failed operation's output {exc} were not run", file=sys.stderr)
        return True, []


def measure(workload, inputs, workdir, seconds, tracer):
    """Whole rounds for about ``seconds``; in traced runs untraced and traced rounds alternate."""
    ops = workload.ops(inputs, workdir)
    rounds, attempted, failed, l1, first, correct = [], 0, 0, [], None, True
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        try:
            spent, results, bad = run_round(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(ops)
        failed += bad
        rounds.append((traced, spent))
        print(f"round {len(rounds) - 1}: {spent:.4f} s{' traced' if traced else ''}", file=sys.stderr)
        if first is None:
            correct, l1 = check_round(workload, inputs, results, workdir, bad)
            first = workload.fingerprint(results, workdir)
        else:
            now = workload.fingerprint(results, workdir)
            differ = sorted(k for k in first.keys() & now.keys() if first[k] != now[k])
            if differ:
                print(f"check failed: round {len(rounds) - 1} differs from round 0 in {differ}", file=sys.stderr)
                correct = False
        # start another round (or pair) only if at least half of it fits in the time left
        ahead = sum(spent for _, spent in rounds[-2:]) if tracer else spent
        if time.perf_counter() - start + ahead / 2 >= seconds and (tracer is None or len(rounds) % 2 == 0):
            return rounds, attempted, failed, l1, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tempfile.tempdir = str(workdir)  # keep every temporary file inside the checkout
        test_reference.run_all()
        setup = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            inputs = workload.make_inputs(args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds, attempted, failed, l1, correct = measure(workload, inputs, workdir, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        plain = [spent for traced, spent in rounds if not traced]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "l1_to_truth": {"value": statistics.fmean(l1) if l1 else None, "unit": "1"},
        }
    else:
        missing = workload.expected_spans - tracer.recorded()
        if missing:
            raise RuntimeError(f"expected spans never recorded on {args.workload}: {sorted(missing)}")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        pairs = [rounds[i + 1][1] - rounds[i][1] for i in range(0, len(rounds), 2)]
        traced_rounds = [i for i, (traced, _) in enumerate(rounds) if traced]
        metrics = tracer.metrics(traced_rounds, statistics.median(pairs))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
