"""The benchmark's workloads: their inputs, their operations and their checks.

Every workload draws its samples from a fixed ground truth with the run's
seed, so two runs with one seed get the same inputs.  A round is the
workload's list of operations; every operation of a round is checked against
``reference`` (round 0) or against round 0's outputs (later rounds).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from reference import require

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dyadhist as dh  # noqa: E402
import dyadhist.cli  # noqa: E402

if Path(dh.__file__).resolve().parent != ROOT / "src" / "dyadhist":
    raise ImportError(f"dyadhist was imported from {dh.__file__}, not from {ROOT / 'src'}")

TRUTH_SEED = 11  # the ROADMAP baseline truth; the run's seed only draws samples
K, XI = 5, 1.0


@dataclass
class Op:
    name: str
    fn: object  # results dict -> result; raises on failure
    span: str | None = None  # traced by the benchmark itself (CLI commands)


def hist_of(h):
    """A dyadhist hypothesis as reference arrays (lo, hi, val)."""
    lo = np.array([p.rect.lo for p in h.pieces], dtype=np.float64)
    hi = np.array([p.rect.hi for p in h.pieces], dtype=np.float64)
    return lo, hi, np.array([p.value for p in h.pieces], dtype=np.float64)


def domain_of(d):
    return (d.dim, d.m)


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def check_l1(what, domain, truth, hist, by_program, ceiling) -> float:
    """Reference L1 to the truth; it must match the program and beat the uniform fit."""
    l1 = ref.l1_distance(domain, truth, hist)
    require(abs(l1 - by_program) <= 1e-9, f"{what}: L1 to truth {by_program} by dyadhist, {l1} by reference")
    uniform_l1 = ref.l1_distance(domain, truth, ref.uniform(domain))
    require(l1 < uniform_l1, f"{what}: L1 {l1} is not below the one-piece fit's {uniform_l1}")
    require(l1 < ceiling, f"{what}: L1 {l1} exceeds the ceiling {ceiling}")
    return l1


def check_learned(what, domain, hist, levels) -> None:
    ref.check_tiling(domain, hist, what)
    bound = ref.piece_bound(K, XI, domain[0], levels)
    require(len(hist[2]) <= bound, f"{what}: {len(hist[2])} pieces exceed the bound {bound}")


# ---------------------------------------------------------------------------
# learn-l1-d2: adaptive L1 learner on [0,1]^2, deep sparse tree
# ---------------------------------------------------------------------------

class LearnL1D2:
    N = 40_000
    L1_CEILING = 0.15
    expected_spans = {"cli.sample_from", "core.from_samples", "split.build_adaptive_grid",
                      "split.greedy_split", "ddist.build_tree", "ddist.fit_d1", "core.l1_dist"}

    def make_inputs(self, seed, workdir):
        truth = dh.gen_truth(K, dh.Domain.unit(2), seed=TRUTH_SEED)
        return truth, dh.sample_from(truth, self.N, seed=seed)

    def ops(self, inputs, workdir):
        truth, emp = inputs
        return [
            Op("adaptive_greedy_split", lambda r: dh.adaptive_greedy_split(emp, dh.SplitParams(k=K, xi=XI))),
            Op("l1_dist", lambda r: dh.l1_dist(truth, r["adaptive_greedy_split"][0])),
        ]

    def check(self, inputs, results, workdir) -> list:
        truth, emp = inputs
        require(emp.n == self.N, f"sample_from drew {emp.n} samples, not {self.N}")
        domain = domain_of(emp.domain)
        hist = hist_of(results["adaptive_greedy_split"][0])
        check_learned("adaptive L1", domain, hist, ref.adaptive_levels(emp.points))
        return [check_l1("adaptive L1", domain, hist_of(truth), hist, results["l1_dist"], self.L1_CEILING)]

    def fingerprint(self, results, workdir) -> dict:
        return {"adaptive_greedy_split": digest(*hist_of(results["adaptive_greedy_split"][0])),
                "l1_dist": repr(results["l1_dist"])}


# ---------------------------------------------------------------------------
# fixed-d2: fixed-grid L1 and L2 learners on {1..m}^2, shallow dense tree
# ---------------------------------------------------------------------------

class FixedD2:
    M, N = 256, 1_000_000
    L1_CEILING = 0.15
    expected_spans = {"cli.sample_from", "core.from_samples", "split.greedy_split", "split.greedy_split_l2",
                      "ddist.build_tree", "ddist.fit_d1", "core.l1_dist", "core.l2_sq_dist"}

    def make_inputs(self, seed, workdir):
        domain = dh.Domain.discrete(self.M, 2)
        truth = dh.gen_truth(K, domain, seed=TRUTH_SEED)
        return truth, dh.sample_from(truth, self.N, seed=seed), dh.GridSpec.uniform(domain, self.M)

    def ops(self, inputs, workdir):
        truth, emp, grid = inputs
        params = dh.SplitParams(k=K, xi=XI)
        return [
            Op("greedy_split", lambda r: dh.greedy_split(emp, grid, params)),
            Op("greedy_split_l2", lambda r: dh.greedy_split_l2(emp, grid, params)),
            Op("l1_dist.l1", lambda r: dh.l1_dist(truth, r["greedy_split"][0])),
            Op("l1_dist.l2", lambda r: dh.l1_dist(truth, r["greedy_split_l2"][0])),
            Op("l2_sq_dist.truth", lambda r: dh.l2_sq_dist(truth, r["greedy_split_l2"][0])),
            Op("l2_sq_dist.empirical", lambda r: dh.l2_sq_dist(emp, r["greedy_split_l2"][0])),
        ]

    def check(self, inputs, results, workdir) -> list:
        truth, emp, _ = inputs
        require(emp.n == self.N, f"sample_from drew {emp.n} samples, not {self.N}")
        domain = domain_of(emp.domain)
        levels = int(self.M).bit_length() - 1
        h1, h2, t = hist_of(results["greedy_split"][0]), hist_of(results["greedy_split_l2"][0]), hist_of(truth)
        check_learned("fixed L1", domain, h1, levels)
        check_learned("fixed L2", domain, h2, levels)
        flat = ref.flatten_samples(domain, emp.points, emp.counts, h2)
        worst = float(np.max(np.abs(flat - h2[2]) / np.maximum(flat, 1e-300)))
        require(worst <= 1e-12, f"fixed L2: a piece value is off its flattening by {worst:.3g} (relative)")
        mass = ref.total_mass(h2)
        require(abs(mass - 1.0) <= 1e-12, f"fixed L2: total mass {mass!r} is not 1")
        for name, want in (("l2_sq_dist.truth", ref.l2_sq_hist(domain, t, h2)),
                           ("l2_sq_dist.empirical", ref.l2_sq_samples(domain, emp.points, emp.counts, h2))):
            require(math.isclose(results[name], want, rel_tol=1e-9, abs_tol=1e-18),
                    f"{name}: {results[name]!r} by dyadhist, {want!r} by reference")
        return [check_l1("fixed L1", domain, t, h1, results["l1_dist.l1"], self.L1_CEILING),
                check_l1("fixed L2", domain, t, h2, results["l1_dist.l2"], self.L1_CEILING)]

    def fingerprint(self, results, workdir) -> dict:
        out = {name: digest(*hist_of(results[name][0])) for name in ("greedy_split", "greedy_split_l2")}
        out.update({name: repr(v) for name, v in results.items() if name not in out})
        return out


# ---------------------------------------------------------------------------
# cli-session-d1: the README session, in process, at d=1
# ---------------------------------------------------------------------------

def run_cli(argv) -> str:
    """``dyadhist.cli.main(argv)``; returns its standard output, raises unless it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dyadhist.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dyadhist {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def key_values(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


class CliSessionD1:
    N = 300_000
    DUMP = 4096
    L1_CEILING = 0.05
    FILES = ("truth.hist", "samples.txt", "learned.hist", "learn.report", "grid.csv")
    expected_spans = {"cli.gen", "cli.sample", "cli.learn", "cli.eval", "cli.sample_from", "core.from_samples",
                      "fileio.write_samples", "fileio.read_samples", "fileio.write_hypothesis",
                      "fileio.read_hypothesis", "split.build_adaptive_grid", "split.greedy_split",
                      "ddist.build_tree", "ddist.fit_d1", "core.l1_dist", "core.value_at"}

    def make_inputs(self, seed, workdir):
        f = {name: str(Path(workdir) / name) for name in self.FILES}
        return [
            ("cli.gen", ["gen", "--k", str(K), "--dim", "1", "--seed", str(TRUTH_SEED), "--out", f["truth.hist"]]),
            ("cli.sample", ["sample", "--in", f["truth.hist"], "--n", str(self.N), "--seed", str(seed),
                            "--out", f["samples.txt"]]),
            ("cli.learn", ["learn", "--in", f["samples.txt"], "--k", str(K), "--xi", str(XI),
                           "--out", f["learned.hist"], "--truth", f["truth.hist"], "--report", f["learn.report"]]),
            ("cli.eval", ["eval", "--in", f["learned.hist"], "--truth", f["truth.hist"],
                          "--dump-grid", str(self.DUMP), "--out", f["grid.csv"]]),
        ]

    def ops(self, inputs, workdir):
        return [Op(name, lambda r, argv=argv: run_cli(argv), span=name) for name, argv in inputs]

    def check(self, inputs, results, workdir) -> list:
        path = {name: str(Path(workdir) / name) for name in self.FILES}
        domain, truth = ref.parse_hypothesis(path["truth.hist"])
        require(domain == (1, None), f"truth.hist declares domain {domain}")
        ref.check_tiling(domain, truth, "truth.hist")
        require(abs(ref.total_mass(truth) - 1.0) <= 1e-9, "truth.hist does not have mass 1")

        lines = ref.data_line_count(path["samples.txt"])
        _, points = ref.parse_samples(path["samples.txt"])
        report = key_values(Path(path["learn.report"]).read_text(encoding="utf-8"))
        require(lines == self.N == len(points) == int(report["n"]),
                f"samples.txt has {lines} lines, {len(points)} parsed rows; learn read n={report['n']}")
        levels = ref.adaptive_levels(points)
        require(int(report["grid.levels"]) == levels, f"learn used {report['grid.levels']} levels, not {levels}")

        _, learned = ref.parse_hypothesis(path["learned.hist"])
        check_learned("learned.hist", domain, learned, levels)
        require(int(report["pieces"]) == len(learned[2]), "learn reported a piece count unlike its file")
        evaluated = key_values(results["cli.eval"])
        l1 = check_l1("learned.hist", domain, truth, learned, float(report["error.l1_vs_truth"]), self.L1_CEILING)
        check_l1("eval", domain, truth, learned, float(evaluated["l1_vs_truth"]), self.L1_CEILING)

        grid = np.loadtxt(path["grid.csv"], delimiter=",", comments="#", ndmin=2)
        centers = (np.arange(self.DUMP) + 0.5) / self.DUMP
        require(grid.shape == (self.DUMP, 2) and np.allclose(grid[:, 0], centers, rtol=0, atol=1e-12),
                "grid.csv does not hold the expected grid centers")
        want = ref.lookup(domain, learned, grid[:, :1])
        require(np.allclose(grid[:, 1], want, rtol=1e-11, atol=0), "grid.csv values differ from the reference lookup")
        return [l1]

    def fingerprint(self, results, workdir) -> dict:
        out = {name: hashlib.sha256((Path(workdir) / name).read_bytes()).hexdigest() for name in self.FILES}
        out.update({name: text for name, text in results.items()})
        return out


WORKLOADS = {
    "learn-l1-d2": LearnL1D2(),
    "fixed-d2": FixedD2(),
    "cli-session-d1": CliSessionD1(),
}
