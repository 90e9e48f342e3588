"""The command line: gen, sample, learn, eval and oracle.

``gen`` and ``sample`` call ``core.gen_truth`` and ``core.sample_from``.
``learn`` checks its options before it reads, then learns, evaluates and
writes in one function.  Everything it writes is text (see fileio) and
deterministic given the options and seed, but for the wall-clock timings
in the ``.timing`` sidecar, so reports are byte-identical across runs.

Exit codes: 0 success, 2 validation error or an input too large for memory,
3 oracle/guard overflow.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .core import (
    Domain,
    GridSpec,
    HistHypothesis,
    gen_truth,
    l1_dist,
    l2_sq_dist,
    sample_from,
)
from .errors import OracleGuardError, UnsupportedDomainError
from .fileio import read_hypothesis, read_samples, write_grid, write_hypothesis, write_samples
from .oracle import dk_distance_between, opt_hier_l2, opt_partial_hier_dk
from .split import (
    SplitParams,
    adaptive_greedy_split,
    greedy_split,
    greedy_split_l2,
    piece_bound,
    renormalize,
)


def _fixed_grid(domain: Domain, m: int | None) -> GridSpec:
    """The uniform grid of ``--m`` cells per axis, for ``learn --grid fixed`` and ``oracle``.

    On a discrete domain ``m`` defaults to the side and must equal it, and
    ``GridSpec.uniform`` pads a side that is not a power of 2; the unit cube
    needs it.
    """
    if domain.is_discrete:
        if m is not None and m != domain.m:
            raise ValueError(f"--m {m} disagrees with the sample domain [{domain.m}]")
        m = domain.m
    elif m is None:
        raise ValueError("a fixed grid on the unit cube needs --m (cells per axis)")
    return GridSpec.uniform(domain, m)


def _truth_error(metric: str, truth: HistHypothesis, h: HistHypothesis) -> tuple:
    """(name, value) of the distance from ``truth`` to ``h``: l1, or squared l2 for the l2 metric."""
    if metric == "l2":
        return "l2sq_vs_truth", l2_sq_dist(truth, h)
    return "l1_vs_truth", l1_dist(truth, h)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _domain_from_args(args) -> Domain:
    if args.domain == "discrete":
        if args.m is None:
            raise ValueError("--domain discrete requires --m")
        return Domain.discrete(args.m, args.dim)
    return Domain.unit(args.dim)


def _cmd_gen(args) -> int:
    domain = _domain_from_args(args)
    truth = gen_truth(args.k, domain, args.seed)
    write_hypothesis(args.out, truth)
    print(f"wrote {args.out} pieces={truth.piece_count} mass={truth.total_mass():.12g}")
    return 0


def _cmd_sample(args) -> int:
    truth = read_hypothesis(getattr(args, "in"))
    emp = sample_from(truth, args.n, args.seed)
    write_samples(args.out, emp)
    print(f"wrote {args.out} n={emp.n} support={emp.support_size}")
    return 0


def _cmd_learn(args) -> int:
    """Validate the options, then read, learn, evaluate, write and print the report.

    The report is deterministic; wall-clock timings go to ``<report>.timing``.
    """
    fixed = args.metric == "l2" or args.grid == "fixed"  # the l2 learner has no adaptive grid
    params = SplitParams(k=args.k, xi=args.xi)
    if args.m is not None and not fixed:
        raise ValueError("--m sets the cells of a fixed grid; the adaptive l1 grid takes none")
    in_path = getattr(args, "in")
    out = args.out or (in_path + ".hyp")
    report_path = args.report or (out + ".report")

    timings = {}
    t0 = time.perf_counter()
    emp = read_samples(in_path)
    if args.metric == "l2" and not emp.domain.is_discrete:
        raise UnsupportedDomainError("the l2 learner requires a discrete domain")
    timings["ingest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if fixed:
        grid = _fixed_grid(emp.domain, args.m)
        hyp, _trace = (greedy_split_l2 if args.metric == "l2" else greedy_split)(emp, grid, params)
    else:
        hyp, _trace = adaptive_greedy_split(emp, params)
        grid = hyp.grid
    timings["learn"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errors = []
    try:
        errors.append(("dk_vs_empirical", dk_distance_between(emp, hyp, grid, args.k)))
    except OracleGuardError:
        pass  # the exact D_k oracle runs on desk-scale grids only
    if args.truth:
        errors.append(_truth_error(args.metric, read_hypothesis(args.truth), hyp))
    timings["evaluate"] = time.perf_counter() - t0

    total = hyp.total_mass()
    lines = [
        f"config.input: {in_path}",
        f"config.metric: {args.metric}",
        f"config.grid: {'fixed' if fixed else 'adaptive'}",
        f"config.k: {args.k}",
        f"config.xi: {args.xi:.12g}",
        f"config.m: {'none' if args.m is None else args.m}",
        f"config.normalize: {str(args.normalize).lower()}",
        f"n: {emp.n}",
        f"grid.M: {grid.M}",
        f"grid.levels: {grid.levels}",
        f"grid.padded_cells: {grid.padded_cell_count()}",
        f"pieces: {hyp.piece_count}",
        f"piece_bound: {piece_bound(args.k, args.xi, grid.dim, grid.levels)}",
        f"total_mass: {total:.12g}",
    ]
    if args.normalize:  # the report keeps the mass before scaling
        hyp = renormalize(hyp)
        lines.append(f"renorm_scale: {1.0 / total:.12g}")
    lines += [f"error.{name}: {value:.12g}" for name, value in errors]
    report = "\n".join(lines) + "\n"
    write_hypothesis(out, hyp)
    Path(report_path).write_text(report, encoding="utf-8")
    Path(report_path + ".timing").write_text(
        "".join(f"time.{key}: {value:.6f}\n" for key, value in timings.items()), encoding="utf-8"
    )
    sys.stdout.write(report)
    return 0


def _cmd_eval(args) -> int:
    if args.dump_grid is not None:
        if args.dump_grid < 1:
            raise ValueError(f"--dump-grid must be at least 1, got {args.dump_grid}")
        if not args.out:
            raise ValueError("--dump-grid needs --out")
    hyp = read_hypothesis(getattr(args, "in"))
    print(f"pieces: {hyp.piece_count}")
    print(f"total_mass: {hyp.total_mass():.12g}")
    if args.truth:
        name, value = _truth_error(args.metric, read_hypothesis(args.truth), hyp)
        print(f"{name}: {value:.12g}")
    if args.dump_grid is not None:
        write_grid(args.out, hyp, args.dump_grid)
        print(f"wrote {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    emp = read_samples(getattr(args, "in"))
    grid = _fixed_grid(emp.domain, args.m)
    if args.metric == "l2":
        val, _ = opt_hier_l2(emp, grid, args.k)
        print(f"opt_hier_l2: {val:.12g}")
    else:
        val = opt_partial_hier_dk(emp, grid, args.k)
        print(f"opt_partial_hier_dk: {val:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadhist",
        description="Learn k-piece multidimensional histograms by greedy dyadic splitting.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a random k-piece ground truth")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--domain", choices=["unit", "discrete"], default="unit")
    gen.add_argument("--m", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_gen)

    smp = sub.add_parser("sample", help="draw i.i.d. samples from a hypothesis file")
    smp.add_argument("--in", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--out", required=True)
    smp.set_defaults(fn=_cmd_sample)

    lrn = sub.add_parser("learn", help="learn a histogram from a sample file")
    lrn.add_argument("--in", required=True)
    lrn.add_argument("--metric", choices=["l1", "l2"], default="l1")
    lrn.add_argument("--grid", choices=["adaptive", "fixed"], default="adaptive")
    lrn.add_argument("--k", type=int, required=True)
    lrn.add_argument("--xi", type=float, default=1.0)
    lrn.add_argument("--m", type=int)
    lrn.add_argument("--normalize", action="store_true")
    lrn.add_argument("--out")
    lrn.add_argument("--report")
    lrn.add_argument("--truth")
    lrn.set_defaults(fn=_cmd_learn)

    ev = sub.add_parser("eval", help="report errors of a hypothesis file")
    ev.add_argument("--in", required=True)
    ev.add_argument("--truth")
    ev.add_argument("--metric", choices=["l1", "l2"], default="l1")
    ev.add_argument("--dump-grid", type=int, dest="dump_grid")
    ev.add_argument("--out")
    ev.set_defaults(fn=_cmd_eval)

    orc = sub.add_parser("oracle", help="desk-scale exact optimum for a sample file")
    orc.add_argument("--in", required=True)
    orc.add_argument("--k", type=int, required=True)
    orc.add_argument("--metric", choices=["l1", "l2"], default="l1")
    orc.add_argument("--m", type=int)
    orc.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
