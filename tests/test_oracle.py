"""Brute-force baselines: D_k distances and exact optimal fits."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadhist.core import Domain, DyadicRect, EmpiricalDist, GridSpec, l1_dist
from dyadhist.errors import OracleGuardError
from dyadhist.oracle import (
    DEFAULT_GUARD,
    OracleGuard,
    _disjoint_unions,
    all_dyadic_rects,
    brute_d1,
    cell_masses,
    dk_distance,
    dk_distance_between,
    opt_hier_l2,
    opt_hier_l2_dp_1d,
    opt_partial_hier_dk,
)

from conftest import make_rng, random_empirical, random_grid, random_hier_hist


class TestDkDistance:
    def test_zero_function(self):
        grid = GridSpec.uniform(Domain.unit(2), 4)
        assert dk_distance(np.zeros((4, 4)), grid, 2) == 0.0

    def test_monotone_in_k(self, rng):
        grid = GridSpec.uniform(Domain.unit(2), 4)
        u = rng.normal(size=(4, 4))
        vals = [dk_distance(u, grid, k) for k in range(1, 5)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_k1_matches_single_rect_enumeration(self, rng):
        for trial in range(20):
            r = make_rng(trial)
            dim = int(r.integers(1, 3))
            M = int(r.choice([2, 4, 8]))
            grid = GridSpec.uniform(Domain.unit(dim), M)
            u = r.normal(size=(M,) * dim)
            got = dk_distance(u, grid, 1)
            best = 0.0
            for rect in all_dyadic_rects(grid):
                sl = tuple(
                    slice(rect.index[a] << rect.level, (rect.index[a] + 1) << rect.level)
                    for a in range(dim)
                )
                best = max(best, abs(float(u[sl].sum())))
            assert got == pytest.approx(best, abs=1e-12)

    def test_k1_against_brute_d1_on_empirical(self, rng):
        # |fhat(U)| with a=0 is exactly the k=1 distance to the zero function
        d = Domain.discrete(8, 2)
        grid = GridSpec.uniform(d, 8)
        emp = random_empirical(rng, d, 10)
        got = dk_distance(cell_masses(emp, grid), grid, 1)
        berr, _ = brute_d1(emp, grid, grid.root(), 0.0)
        assert got == pytest.approx(berr, abs=1e-14)

    def test_hierarchical_difference_identity(self):
        for trial in range(40):
            rng = make_rng(trial + 77)
            dim = int(rng.integers(1, 3))
            M = int(rng.choice([4, 8]))
            grid = GridSpec.uniform(Domain.unit(dim), M)
            cap = 3 if dim == 1 else 7
            f = random_hier_hist(rng, grid, cap, normalize=True)
            g = random_hier_hist(rng, grid, cap, normalize=True)
            k = max(f.piece_count, g.piece_count)
            lhs = l1_dist(f, g)
            rhs = 2 * dk_distance_between(f, g, grid, 2 * k)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_guard(self):
        grid_big = GridSpec.uniform(Domain.unit(2), 256)
        with pytest.raises(OracleGuardError):
            dk_distance(np.zeros((256, 256)), grid_big, 1)


class TestOptHierL2:
    def test_zero_when_k_covers_cells(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[1], [3]]), np.array([1, 2]))
        grid = GridSpec.uniform(d, 4)
        val, hyp = opt_hier_l2(emp, grid, 7)
        assert val == pytest.approx(0.0, abs=1e-15)
        assert hyp.piece_count <= 7

    def test_single_partition_example(self):
        d = Domain.discrete(2, 1)
        emp = EmpiricalDist(d, np.array([[1], [2]]), np.array([3, 1]))
        grid = GridSpec.uniform(d, 2)
        val, hyp = opt_hier_l2(emp, grid, 1)
        assert val == pytest.approx(0.125, abs=0)
        assert hyp.piece_count == 1
        assert hyp.pieces[0].value == 0.5

    def test_agrees_with_1d_dynamic_program(self):
        for trial in range(25):
            rng = make_rng(trial + 31)
            d = Domain.discrete(8, 1)
            emp = random_empirical(rng, d, int(rng.integers(2, 14)))
            grid = GridSpec.uniform(d, 8)
            k = int(rng.integers(1, 5))
            val, _ = opt_hier_l2(emp, grid, k)
            assert val == pytest.approx(opt_hier_l2_dp_1d(emp, grid, k), abs=1e-13)

    def test_lower_bounds_any_heuristic(self, rng):
        from dyadhist.split import SplitParams, greedy_split_l2
        from dyadhist.core import l2_sq_dist

        d = Domain.discrete(8, 1)
        emp = random_empirical(rng, d, 10)
        grid = GridSpec.uniform(d, 8)
        hyp, _ = greedy_split_l2(emp, grid, SplitParams(k=2, xi=1.0))
        val, _ = opt_hier_l2(emp, grid, hyp.piece_count)
        assert val <= l2_sq_dist(emp, hyp) + 1e-15

    def test_guard(self):
        d = Domain.discrete(8, 2)
        emp = EmpiricalDist(d, np.array([[1, 1]]), np.array([1]))
        grid = GridSpec.uniform(d, 8)
        with pytest.raises(OracleGuardError):
            opt_hier_l2(emp, grid, 64, OracleGuard(max_partitions=50))


class TestOptPartialHierDk:
    def test_empirical_matching_hierarchical_histogram(self):
        # uniform empirical is itself a 1-piece hierarchical histogram
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2], [3], [4]]))
        grid = GridSpec.uniform(d, 4)
        assert opt_partial_hier_dk(emp, grid, 1) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_k1(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[2]]), np.array([5]))
        grid = GridSpec.uniform(d, 4)
        assert opt_partial_hier_dk(emp, grid, 1) == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_order_consistency(self):
        for trial in range(10):
            rng = make_rng(trial + 500)
            dim = int(rng.integers(1, 3))
            d = Domain.discrete(4, dim)
            emp = random_empirical(rng, d, 8)
            grid = GridSpec.uniform(d, 4)
            k = int(rng.integers(1, 3))
            fwd = opt_partial_hier_dk(emp, grid, k, _order="forward")
            rev = opt_partial_hier_dk(emp, grid, k, _order="reversed")
            assert fwd == pytest.approx(rev, abs=1e-9)

    def test_hand_checkable_2101(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[1], [2], [4]]), np.array([2, 1, 1]))
        grid = GridSpec.uniform(d, 4)
        val = opt_partial_hier_dk(emp, grid, 1)
        # support = {1,2} with a = 3/8 leaves max discrepancy 1/4 on {3,4}/{1};
        # no single-rect support does better (the fit_d1 optimum is also 1/4)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_guard(self):
        d = Domain.discrete(8, 2)
        emp = EmpiricalDist(d, np.array([[1, 1]]), np.array([1]))
        grid = GridSpec.uniform(d, 8)
        with pytest.raises(OracleGuardError):
            opt_partial_hier_dk(emp, grid, 3, OracleGuard(max_partitions=100))

    def test_memory_grows_as_rects_times_unions(self):
        # one cached union-weight column per rectangle; a weight matrix kept
        # per support would hold unions^2 x k floats, about 200 MB here
        d = Domain.discrete(8, 2)
        grid = GridSpec.uniform(d, 8)
        rects = all_dyadic_rects(grid)
        unions = _disjoint_unions(rects, 2, DEFAULT_GUARD)
        assert (len(rects), len(unions)) == (85, 3428)
        emp = random_empirical(make_rng(5), d, 30)
        opt_partial_hier_dk(emp, grid, 1)  # imports scipy before the measurement
        tracemalloc.start()
        try:
            val = opt_partial_hier_dk(emp, grid, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert val == 0.11441441441441444
        assert peak < 4 * len(rects) * len(unions) * 8, peak  # 9.3 MB; the oracle takes about 4.2 MB


# ---------------------------------------------------------------------------
# Fuzzed twins: each oracle against a plainer enumeration of its definition
# ---------------------------------------------------------------------------

def _cell_slice(rect):
    return tuple(slice(i << rect.level, (i + 1) << rect.level) for i in rect.index)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_brute_d1_matches_per_rectangle_loop(seed):
    rng = make_rng(seed)
    dim = int(rng.integers(1, 4))
    M = int(rng.choice([2, 4] if dim == 3 else [2, 4, 8]))
    domain = Domain.unit(dim) if rng.random() < 0.5 else Domain.discrete(M, dim)
    grid = random_grid(rng, domain, M, warp=bool(rng.random() < 0.5))
    emp = random_empirical(rng, domain, int(rng.integers(1, 25)))
    lev = int(rng.integers(0, grid.levels + 1))
    rect = DyadicRect(lev, tuple(int(i) for i in rng.integers(grid.M >> lev, size=dim)))
    counts = np.zeros((grid.M,) * dim, dtype=np.int64)
    for cell, c in zip(grid.cell_index(emp.points), emp.counts):
        counts[tuple(cell)] += c
    inside = [r for r in all_dyadic_rects(grid) if rect.contains(r)]
    pick = inside[int(rng.integers(len(inside)))]
    vol = grid.volume_of(pick)
    if vol > 0 and rng.random() < 0.3:  # fit one rect exactly, which makes ties likely
        a = float(counts[_cell_slice(pick)].sum() / emp.n / vol)
    else:
        a = float(rng.random() * 2.0 / max(grid.volume_of(rect), 1e-9))
    best, witness = -1.0, None
    for r in sorted(inside, key=lambda r: (r.level, r.index)):  # ties go to the first
        disc = abs(int(counts[_cell_slice(r)].sum()) / emp.n - a * grid.volume_of(r))
        if disc > best:
            best, witness = disc, r
    err, wit = brute_d1(emp, grid, rect, a)
    assert err == best
    assert wit == witness


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
def test_dk_distance_matches_union_enumeration(seed, k):
    rng = make_rng(seed)
    dim = int(rng.integers(1, 3))
    M = int(rng.choice([2, 4, 8] if dim == 1 else [2, 4]))
    grid = GridSpec.uniform(Domain.unit(dim), M)
    u = rng.normal(size=(M,) * dim)
    rects = all_dyadic_rects(grid)
    sums = [float(u[_cell_slice(r)].sum()) for r in rects]
    best = 0.0
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(len(rects)), size):
            if all(rects[i].disjoint_from(rects[j]) for i, j in itertools.combinations(combo, 2)):
                best = max(best, abs(sum(sums[i] for i in combo)))
    assert dk_distance(u, grid, k) == pytest.approx(best, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
def test_opt_hier_l2_matches_1d_dynamic_program(seed, k):
    rng = make_rng(seed)
    M = int(rng.choice([2, 4, 8, 16]))
    domain = Domain.discrete(M, 1)
    emp = random_empirical(rng, domain, int(rng.integers(1, 30)))
    grid = random_grid(rng, domain, M, warp=bool(rng.random() < 0.3))
    val, hyp = opt_hier_l2(emp, grid, k)
    assert hyp.piece_count <= k
    assert val == pytest.approx(opt_hier_l2_dp_1d(emp, grid, k), abs=1e-13)
