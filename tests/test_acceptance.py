"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All instances are seeded, so every number here reproduces exactly;
the end-to-end thresholds (criteria 8 and 10) were frozen from calibration
runs recorded in the repository notes.
"""

import itertools
import math
import time

import numpy as np
import pytest

import dyadhist as dh
from dyadhist.core import Domain, EmpiricalDist, GridSpec, l1_dist, l2_sq_dist
from dyadhist.ddist import build_tree, compute_d1, fit_d1
from dyadhist.oracle import brute_d1, dk_distance_between, opt_hier_l2, opt_partial_hier_dk
from dyadhist.split import SplitParams, adaptive_greedy_split, greedy_split, greedy_split_l2
from dyadhist.theory import BudgetFormula, sample_budget, strictly_greater_region

from conftest import (
    cell_values,
    exact_fit_minimum,
    make_rng,
    random_hier_hist,
    random_partial_hist,
    reference_lines,
    reference_tree,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    return ok


def _d1_instance(i: int):
    """Instance family for criteria 1-2: d<=2, M<=8, s<=16, a in [0, 2/vol]."""
    rng = make_rng(30_000 + i)
    dim = int(rng.integers(1, 3))
    M = int(rng.choice([2, 4, 8]))
    if i % 3 == 0:
        dom = Domain.unit(dim)
        pts = rng.random((int(rng.integers(1, 17)), dim))
    else:
        dom = Domain.discrete(M, dim)
        pts = rng.integers(1, M + 1, size=(int(rng.integers(1, 17)), dim))
    emp = EmpiricalDist.from_samples(dom, pts)
    grid = dh.build_adaptive_grid(emp)[0] if i % 5 == 0 else GridSpec.uniform(dom, M)
    rect = grid.root()
    vol = grid.volume_of(rect)
    a = float(rng.random() * 2.0 / vol) if vol > 0 else float(rng.random())
    return emp, grid, rect, a


SWEEP = list(itertools.product((1, 2), (4, 8), (1, 2), (0.5, 1.0, 2.0)))
# criterion 3 alone also runs d=1, M=16; k=3 there costs about 1.6 s an instance
SWEEP_M16 = list(itertools.product((1,), (16,), (1, 2), (0.5, 1.0, 2.0)))


def _sweep_instance(i: int, seed_base: int, sweep: list = SWEEP):
    dim, M, k, xi = sweep[i % len(sweep)]
    rng = make_rng(seed_base + i)
    dom = Domain.discrete(M, dim)
    s = int(rng.integers(2, 17))
    emp = EmpiricalDist.from_samples(dom, rng.integers(1, M + 1, size=(s, dim)))
    return emp, GridSpec.uniform(dom, M), k, xi, dim, M


def test_criterion_1_compute_d1_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for i in range(1000):
        emp, grid, rect, a = _d1_instance(i)
        err = compute_d1(build_tree(emp, grid, rect), a)
        ok &= abs(err - brute_d1(emp, grid, rect, a)) <= 1e-12
    wall = time.perf_counter() - t0
    ok &= wall < 10.0
    assert _report(1, "ComputeD1 oracle equivalence", ok, f"{wall:.1f}s/1000 instances")


def test_criterion_2_fit_d1_optimality():
    ok = True
    probes = 0
    for i in range(1000):
        emp, grid, rect, _ = _d1_instance(i)
        fit = fit_d1(build_tree(emp, grid, rect))
        lines = reference_lines(grid, rect, reference_tree(emp, grid, rect))
        ok &= fit.err <= exact_fit_minimum(*lines) + 1e-12
        probes = max(probes, fit.probes)
    ok &= probes <= 16
    # hand-derived instance: counts (2,1,0,1)/4 on [4], optimum 0.25 at a=0.25
    dom = Domain.discrete(4, 1)
    emp = EmpiricalDist(dom, np.array([[1], [2], [4]]), np.array([2, 1, 1]))
    grid = GridSpec.uniform(dom, 4)
    fit = fit_d1(build_tree(emp, grid, grid.root()))
    ok &= fit.a == 0.25 and fit.err == 0.25
    assert _report(2, "FitD1 optimality", ok, f"at most {probes} probes per fit")


def test_criterion_3_greedy_split_guarantee():
    t0 = time.perf_counter()
    ok = True
    bound_ok = True
    instances = [_sweep_instance(i, 10_000) for i in range(200)]
    instances += [_sweep_instance(i, 70_000, SWEEP_M16) for i in range(48)]
    for emp, grid, k, xi, dim, M in instances:
        hyp, _ = greedy_split(emp, grid, SplitParams(k=k, xi=xi))
        lhs = dk_distance_between(emp, hyp, grid, k)
        opt = opt_partial_hier_dk(emp, grid, k)
        ok &= lhs <= (3 + 6 / xi**2) * opt + 1e-6
        bound_ok &= hyp.piece_count <= math.ceil(1 + xi) * (1 << dim) * k * int(math.log2(M))
    wall = time.perf_counter() - t0
    ok &= wall < 300.0
    test_criterion_3_greedy_split_guarantee.bound_ok = bound_ok
    assert _report(3, "GreedySplit (3 + 6/xi^2) guarantee", ok, f"{wall:.1f}s/{len(instances)} instances")


def test_criterion_4_piece_bound_everywhere():
    # the learners hard-assert the bound on every run; re-check explicitly
    # across both sweeps and a spread of xi values including fractional ones
    ok = True
    for i in range(100):
        emp, grid, k, xi, dim, M = _sweep_instance(i, 40_000)
        xi = (0.1, 0.3, xi)[i % 3]
        hyp, _ = greedy_split(emp, grid, SplitParams(k=k, xi=xi))
        hyp2, _ = greedy_split_l2(emp, grid, SplitParams(k=k, xi=xi))
        cap = math.ceil(1 + xi) * (1 << dim) * k * int(math.log2(M))
        ok &= hyp.piece_count <= cap and hyp2.piece_count <= cap
    ok &= getattr(test_criterion_3_greedy_split_guarantee, "bound_ok", True)
    assert _report(4, "piece-count bound", ok)


def test_criterion_5_greedy_split_l2_guarantee():
    ok = True
    for i in range(200):
        emp, grid, k, xi, dim, M = _sweep_instance(i, 20_000)
        hyp, _ = greedy_split_l2(emp, grid, SplitParams(k=k, xi=xi))
        lhs = l2_sq_dist(emp, hyp)
        opt, _ = opt_hier_l2(emp, grid, k)
        ok &= lhs <= (1 + 1 / xi) * opt + 1e-12
    assert _report(5, "GreedySplitL2 (1 + 1/xi) guarantee", ok)


def test_criterion_6_hierarchical_identity():
    ok = True
    for i in range(200):
        rng = make_rng(50_000 + i)
        dim = int(rng.integers(1, 3))
        M = int(rng.choice([4, 8]))
        grid = GridSpec.uniform(Domain.unit(dim), M)
        cap = 3 if dim == 1 else 1  # <= 3 dyadic pieces forces 1 piece when d=2
        f = random_hier_hist(rng, grid, cap, normalize=True)
        g = random_hier_hist(rng, grid, cap, normalize=True)
        k = max(f.piece_count, g.piece_count)
        ok &= abs(l1_dist(f, g) - 2 * dk_distance_between(f, g, grid, 2 * k)) <= 1e-10
        # deeper trees exercise the identity beyond the k<=3 family
        f2 = random_hier_hist(rng, grid, 7, normalize=True)
        g2 = random_hier_hist(rng, grid, 7, normalize=True)
        k2 = max(f2.piece_count, g2.piece_count)
        ok &= abs(l1_dist(f2, g2) - 2 * dk_distance_between(f2, g2, grid, 2 * k2)) <= 1e-10
    assert _report(6, "l1 = 2 * D_2k identity", ok)


def test_criterion_7_partial_vs_full_region():
    ok = True
    nonempty = 0
    for i in range(200):
        rng = make_rng(60_000 + i)
        dim = int(rng.integers(1, 3))
        M = int(rng.choice([4, 8]))
        k = int(rng.integers(1, 4))
        grid = GridSpec.uniform(Domain.unit(dim), M)
        h = random_partial_hist(rng, grid, k)
        g = random_hier_hist(rng, grid, max(k, 1 << dim), normalize=True)
        region = strictly_greater_region(h, g)
        ok &= len(region) <= 2 * max(k, g.piece_count)
        covered = np.zeros((M,) * dim, dtype=bool)
        for r in region:
            sl = tuple(
                slice(r.index[a] << r.level, (r.index[a] + 1) << r.level)
                for a in range(dim)
            )
            covered[sl] = True
        truth = cell_values(h, grid) > cell_values(g, grid)
        ok &= bool((covered == truth).all())
        nonempty += int(truth.any())
    ok &= nonempty >= 50
    assert _report(7, "partial-vs-full region", ok, f"{nonempty} nonempty regions")


def test_criterion_8_end_to_end_consistency():
    t0 = time.perf_counter()
    truth = dh.gen_truth(3, Domain.unit(2), seed=2026)
    params = SplitParams(k=3, xi=1.0)
    medians = []
    for n in (5_000, 20_000, 80_000):
        errs = []
        for seed in range(1, 6):
            emp = dh.sample_from(truth, n, seed)
            hyp, _ = adaptive_greedy_split(emp, params)
            errs.append(l1_dist(truth, hyp))
        medians.append(float(np.median(errs)))
    wall = time.perf_counter() - t0
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))
    # threshold frozen from the calibration run: observed median 0.059 at n=80k
    ok = monotone and medians[-1] <= 0.10 and wall < 180.0
    assert _report(
        8, "end-to-end l1 consistency", ok,
        f"medians={[round(m, 4) for m in medians]}, {wall:.0f}s",
    )


def test_criterion_9_near_linear_runtime():
    truth = dh.gen_truth(5, Domain.unit(2), seed=11)
    params = SplitParams(k=5, xi=1.0)
    med = {}
    for n in (10_000, 20_000, 40_000):
        times = []
        for rep in range(3):
            emp = dh.sample_from(truth, n, 3 + rep)
            t0 = time.perf_counter()
            adaptive_greedy_split(emp, params)
            times.append(time.perf_counter() - t0)
        med[n] = float(np.median(times))
    r1 = med[20_000] / med[10_000]
    r2 = med[40_000] / med[20_000]
    ok = r1 <= 2.8 and r2 <= 2.8
    assert _report(9, "near-linear runtime", ok, f"ratios {r1:.2f}, {r2:.2f}")


def test_criterion_10_vc_decay_rate():
    truth = dh.gen_truth(3, Domain.unit(2), seed=314)
    grid = GridSpec.uniform(Domain.unit(2), 8)
    ratios = []
    for seed in range(1, 10):
        small = dh.sample_from(truth, 500, seed)
        large = dh.sample_from(truth, 2_000, 100 + seed)
        d_small = dk_distance_between(small, truth, grid, 1)
        d_large = dk_distance_between(large, truth, grid, 1)
        ratios.append(d_small / d_large)
    med = float(np.median(ratios))
    ok = 1.5 <= med <= 3.0
    assert _report(10, "VC-rate decay under 4x samples", ok, f"median ratio {med:.2f}")


def test_criterion_11_sample_budget_goldens():
    ok = sample_budget(BudgetFormula.L2, k=1, d=1, eps=0.01, delta=math.exp(-1)) == 100
    ok &= (
        sample_budget(
            BudgetFormula.FIXED_GRID_L1,
            k=2, d=1, eps=0.1, delta=math.exp(-1), xi=1.0, m=256,
        )
        == 51_300
    )
    ns = [
        sample_budget(BudgetFormula.ADAPTIVE_L1, k=2, d=2, eps=e, delta=0.1)
        for e in (0.05, 0.1, 0.2, 0.4)
    ]
    ok &= all(a >= b for a, b in zip(ns, ns[1:]))
    assert _report(11, "sample-budget golden values", ok)


def test_criterion_12_determinism(tmp_path):
    from dyadhist.cli import main
    from dyadhist.fileio import write_hypothesis, write_samples

    truth = dh.gen_truth(3, Domain.unit(2), seed=7)
    emp = dh.sample_from(truth, 1_500, seed=5)
    write_hypothesis(tmp_path / "t.hist", truth)
    write_samples(tmp_path / "s.txt", emp)

    outputs = []
    for run in range(2):
        argv = [
            "learn", "--in", str(tmp_path / "s.txt"), "--k", "3", "--xi", "1.0",
            "--out", str(tmp_path / f"h{run}.hist"),
            "--report", str(tmp_path / f"h{run}.report"),
            "--truth", str(tmp_path / "t.hist"),
        ]
        assert main(argv) == 0
        outputs.append(
            (
                (tmp_path / f"h{run}.hist").read_bytes(),
                (tmp_path / f"h{run}.report").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1]

    grid, _ = dh.build_adaptive_grid(emp)
    p = SplitParams(k=3, xi=1.0)
    _, tr1 = greedy_split(emp, grid, p)
    _, tr2 = greedy_split(emp, grid, p)
    ok &= tr1.to_text() == tr2.to_text()

    e1 = dh.sample_from(truth, 400, seed=21)
    e2 = dh.sample_from(truth, 400, seed=21)
    ok &= np.array_equal(e1.points, e2.points) and np.array_equal(e1.counts, e2.counts)
    assert _report(12, "byte-for-byte determinism", ok)
