"""Learning runs, reports and the command line.

The ``gen`` and ``sample`` commands call ``core.gen_truth`` and
``core.sample_from``.  Everything a run produces is text (see fileio) and
deterministic given the config and seed; wall-clock timings go to a
separate ``.timing`` sidecar so report files are byte-identical across
repeat runs.

Exit codes: 0 success, 2 validation error or an input too large for memory,
3 oracle/guard overflow.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
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
    build_adaptive_grid,
    greedy_split,
    greedy_split_l2,
    piece_bound,
    renormalize,
)


# ---------------------------------------------------------------------------
# Learning runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    input_path: str
    metric: str = "l1"
    grid_mode: str = "adaptive"
    k: int = 1
    xi: float = 1.0
    m: int | None = None
    normalize: bool = False
    out_path: str | None = None
    report_path: str | None = None
    truth_path: str | None = None

    @property
    def fixed_grid(self) -> bool:
        """Whether the run learns on a fixed grid; the l2 learner always does."""
        return self.metric == "l2" or self.grid_mode == "fixed"

    def validate(self) -> None:
        if self.metric not in {"l1", "l2"}:
            raise ValueError(f"metric must be l1 or l2, got {self.metric}")
        if self.grid_mode not in {"adaptive", "fixed"}:
            raise ValueError(f"grid must be adaptive or fixed, got {self.grid_mode}")
        SplitParams(k=self.k, xi=self.xi)
        if self.m is not None and not self.fixed_grid:
            raise ValueError("--m sets the cells of a fixed grid; the adaptive l1 grid takes none")

    def echo(self) -> list:
        items = [
            ("input", self.input_path),
            ("metric", self.metric),
            ("grid", "fixed" if self.fixed_grid else "adaptive"),
            ("k", str(self.k)),
            ("xi", f"{self.xi:.12g}"),
            ("m", "none" if self.m is None else str(self.m)),
            ("normalize", str(self.normalize).lower()),
        ]
        return items


@dataclass
class LearnReport:
    config: list
    n: int
    grid_m: int
    grid_levels: int
    padded_cells: int
    pieces: int
    bound: int
    total_mass: float
    renorm_scale: float | None
    errors: list
    timings: dict = field(default_factory=dict)

    def to_text(self) -> str:
        """Deterministic report; timings are excluded on purpose."""
        lines = [f"config.{k}: {v}" for k, v in self.config]
        lines += [
            f"n: {self.n}",
            f"grid.M: {self.grid_m}",
            f"grid.levels: {self.grid_levels}",
            f"grid.padded_cells: {self.padded_cells}",
            f"pieces: {self.pieces}",
            f"piece_bound: {self.bound}",
            f"total_mass: {self.total_mass:.12g}",
        ]
        if self.renorm_scale is not None:
            lines.append(f"renorm_scale: {self.renorm_scale:.12g}")
        lines += [f"error.{k}: {v:.12g}" for k, v in self.errors]
        return "\n".join(lines) + "\n"

    def timing_text(self) -> str:
        return "".join(f"time.{k}: {v:.6f}\n" for k, v in self.timings.items())


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


def run_learn(cfg: RunConfig):
    """Execute a learning run; returns (report, hypothesis written to disk)."""
    cfg.validate()
    timings = {}
    t0 = time.perf_counter()
    emp = read_samples(cfg.input_path)
    if cfg.metric == "l2" and not emp.domain.is_discrete:
        raise UnsupportedDomainError("the l2 learner requires a discrete domain")
    timings["ingest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid = _fixed_grid(emp.domain, cfg.m) if cfg.fixed_grid else build_adaptive_grid(emp)
    params = SplitParams(k=cfg.k, xi=cfg.xi)
    if cfg.metric == "l1":
        hyp, _trace = greedy_split(emp, grid, params)
    else:
        hyp, _trace = greedy_split_l2(emp, grid, params)
    timings["learn"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errors = []
    try:
        errors.append(("dk_vs_empirical", dk_distance_between(emp, hyp, grid, cfg.k)))
    except OracleGuardError:
        pass  # the exact D_k oracle runs on desk-scale grids only
    if cfg.truth_path:
        errors.append(_truth_error(cfg.metric, read_hypothesis(cfg.truth_path), hyp))
    timings["evaluate"] = time.perf_counter() - t0

    out_hyp = hyp
    scale = None
    if cfg.normalize:
        total = hyp.total_mass()
        out_hyp = renormalize(hyp)
        scale = 1.0 / total
    report = LearnReport(
        config=cfg.echo(),
        n=emp.n,
        grid_m=grid.M,
        grid_levels=grid.levels,
        padded_cells=grid.padded_cell_count(),
        pieces=hyp.piece_count,
        bound=piece_bound(cfg.k, cfg.xi, grid.dim, grid.levels),
        total_mass=hyp.total_mass(),
        renorm_scale=scale,
        errors=errors,
        timings=timings,
    )
    if cfg.out_path:
        write_hypothesis(cfg.out_path, out_hyp)
    if cfg.report_path:
        Path(cfg.report_path).write_text(report.to_text(), encoding="utf-8")
        Path(cfg.report_path + ".timing").write_text(report.timing_text(), encoding="utf-8")
    return report, out_hyp


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
    out = args.out or (getattr(args, "in") + ".hyp")
    cfg = RunConfig(
        input_path=getattr(args, "in"),
        metric=args.metric,
        grid_mode=args.grid,
        k=args.k,
        xi=args.xi,
        m=args.m,
        normalize=args.normalize,
        out_path=out,
        report_path=args.report or (out + ".report"),
        truth_path=args.truth,
    )
    report, _ = run_learn(cfg)
    sys.stdout.write(report.to_text())
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
