"""Brute-force baselines: D_k distances and exact optimal fits."""

import functools
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadhist.cli import main
from dyadhist.core import Domain, DyadicRect, EmpiricalDist, GridSpec, gen_truth, l1_dist
from dyadhist.errors import OracleGuardError, UnsupportedDomainError
from dyadhist.fileio import write_samples
from dyadhist import oracle
from dyadhist.oracle import (
    _disjoint_unions,
    all_dyadic_rects,
    brute_d1,
    cell_masses,
    dk_distance,
    dk_distance_between,
    opt_hier_l2,
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
        assert got == pytest.approx(brute_d1(emp, grid, grid.root(), 0.0), abs=1e-14)

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

    def test_k_past_the_cells_gives_the_value_at_the_cells(self):
        # a subtree of c cells holds at most c disjoint rectangles, so the
        # tables stop there; at 10^12 they once asked for 7.28 TiB
        for trial in range(40):
            r = make_rng(trial)
            dim = int(r.integers(1, 3))
            M = int(r.choice([2, 4, 8] if dim == 1 else [2, 4]))
            grid = GridSpec.uniform(Domain.unit(dim), M)
            u = r.normal(size=(M,) * dim)
            at_cells = dk_distance(u, grid, M**dim)
            for k in (M**dim + 1, 3 * M**dim + 1, 10**12):
                assert dk_distance(u, grid, k) == at_cells, (trial, k)

    def test_guard(self):
        grid_big = GridSpec.uniform(Domain.unit(2), 256)
        with pytest.raises(OracleGuardError):
            dk_distance(np.zeros((256, 256)), grid_big, 1)

    def test_guard_trips_before_the_cell_arrays(self):
        # the limit trips before the dense (M,)*d cell arrays, 25 MB here, are built
        d = Domain.discrete(1024, 2)
        emp = EmpiricalDist(d, np.array([[1, 1]]), np.array([1]))
        grid = GridSpec.uniform(d, 1024)
        tracemalloc.start()
        try:
            with pytest.raises(OracleGuardError, match="1398101 dyadic rectangles"):
                dk_distance_between(emp, emp, grid, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


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

    def test_agrees_with_partition_twin(self):
        for trial in range(25):
            rng = make_rng(trial + 31)
            d = Domain.discrete(8, 1)
            emp = random_empirical(rng, d, int(rng.integers(2, 14)))
            grid = GridSpec.uniform(d, 8)
            k = int(rng.integers(1, 5))
            val, _ = opt_hier_l2(emp, grid, k)
            assert val == pytest.approx(partition_twin(emp, grid, k), abs=1e-13)

    @pytest.mark.parametrize("m, dim, k", [(1024, 1, 30), (32, 2, 25)])
    def test_large_k_within_a_second(self, m, dim, k):
        # both grids have far more than 10^6 split trees with at most k leaves
        d = Domain.discrete(m, dim)
        emp = random_empirical(make_rng(m), d, 200)
        grid = GridSpec.uniform(d, m)
        t0 = time.perf_counter()
        val, hyp = opt_hier_l2(emp, grid, k)
        assert time.perf_counter() - t0 < 1.0
        assert hyp.piece_count <= k and val > 0

    def test_lower_bounds_any_heuristic(self, rng):
        from dyadhist.split import SplitParams, greedy_split_l2
        from dyadhist.core import l2_sq_dist

        d = Domain.discrete(8, 1)
        emp = random_empirical(rng, d, 10)
        grid = GridSpec.uniform(d, 8)
        hyp, _ = greedy_split_l2(emp, grid, SplitParams(k=2, xi=1.0))
        val, _ = opt_hier_l2(emp, grid, hyp.piece_count)
        assert val <= l2_sq_dist(emp, hyp) + 1e-15

    def test_guard(self, monkeypatch):
        d = Domain.discrete(8, 2)
        emp = EmpiricalDist(d, np.array([[1, 1]]), np.array([1]))
        grid = GridSpec.uniform(d, 8)
        monkeypatch.setattr(oracle, "_MAX_PARTITIONS", 50)
        with pytest.raises(OracleGuardError):
            opt_hier_l2(emp, grid, 64)

    def test_unit_cube_rejected(self):
        # a unit-cube rect's volume is no count of lattice points, so the
        # squared error would go negative and read as 0
        d = Domain.unit(1)
        emp = EmpiricalDist.from_samples(d, np.array([[0.1], [0.2], [0.7]]))
        grid = GridSpec.uniform(d, 4)
        with pytest.raises(UnsupportedDomainError):
            opt_hier_l2(emp, grid, 2)


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

    def test_matches_every_support_lp(self):
        for trial in range(10):
            rng = make_rng(trial + 500)
            dim = int(rng.integers(1, 3))
            d = Domain.discrete(4, dim)
            emp = random_empirical(rng, d, 8)
            grid = GridSpec.uniform(d, 4)
            k = int(rng.integers(1, 3))
            assert opt_partial_hier_dk(emp, grid, k) == pytest.approx(support_lp_twin(emp, grid, k), abs=1e-9)

    def test_hand_checkable_2101(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[1], [2], [4]]), np.array([2, 1, 1]))
        grid = GridSpec.uniform(d, 4)
        val = opt_partial_hier_dk(emp, grid, 1)
        # support = {1,2} with a = 3/8 leaves max discrepancy 1/4 on {3,4}/{1};
        # no single-rect support does better (the fit_d1 optimum is also 1/4)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_guard(self, monkeypatch):
        d = Domain.discrete(8, 2)
        emp = EmpiricalDist(d, np.array([[1, 1]]), np.array([1]))
        grid = GridSpec.uniform(d, 8)
        monkeypatch.setattr(oracle, "_MAX_PARTITIONS", 100)
        with pytest.raises(OracleGuardError):
            opt_partial_hier_dk(emp, grid, 3)

    def test_memory_grows_as_rects_times_unions(self):
        # one cached union-weight column per rectangle; a weight matrix kept
        # per support would hold unions^2 x k floats, about 200 MB here
        d = Domain.discrete(8, 2)
        grid = GridSpec.uniform(d, 8)
        rects = all_dyadic_rects(grid)
        unions = _disjoint_unions(rects, 2)
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

    def test_column_guard_bounds_rects_times_unions(self, tmp_path, capsys):
        # {1..32}^2 with k=2 passes the rect and union limits (1365 rects, 925,924
        # unions), but one column per rect over all unions is about 10 GB
        d = Domain.discrete(32, 2)
        emp = random_empirical(make_rng(32), d, 20)
        grid = GridSpec.uniform(d, 32)
        t0 = time.perf_counter()
        with pytest.raises(OracleGuardError, match="1365 rectangles x"):
            opt_partial_hier_dk(emp, grid, 2)
        assert time.perf_counter() - t0 < 5.0
        path = tmp_path / "s.txt"
        write_samples(path, emp)
        assert main(["oracle", "--in", str(path), "--k", "2", "--m", "32"]) == 3
        assert "exceeds guard" in capsys.readouterr().err

    def test_pruning_guard_bounds_supports_times_unions(self, tmp_path, capsys):
        # {1..12}^2 pads to 16^2: 341 rects and 57,060 unions pass the column
        # guard, but the pruning pass would read each support's columns over
        # every union, about 3.3e9 reads
        d = Domain.discrete(12, 2)
        path = tmp_path / "s.txt"
        write_samples(path, random_empirical(make_rng(12), d, 20))
        t0 = time.perf_counter()
        assert main(["oracle", "--in", str(path), "--k", "2"]) == 3
        assert time.perf_counter() - t0 < 5.0
        assert capsys.readouterr().err == f"error: 57059 supports x 57060 unions exceeds guard {1 << 26}\n"


# ---------------------------------------------------------------------------
# Fuzzed twins: each oracle against a plainer enumeration of its definition
# ---------------------------------------------------------------------------

def _cell_slice(rect):
    return tuple(slice(i << rect.level, (i + 1) << rect.level) for i in rect.index)


@pytest.mark.parametrize("argv", [["learn", "--k", "100000"], ["oracle", "--k", str(10**12), "--m", "2"]])
def test_huge_k_on_a_one_row_file_costs_what_the_grid_does(tmp_path, capsys, argv):
    # learn's D_k report once sized its tables by k (890 MB at k = 6000),
    # and the partial oracle its unions by k and its loop ran k times
    from scipy.optimize import linprog  # noqa: F401  imported before the measurement

    path = tmp_path / "s.txt"
    write_samples(path, EmpiricalDist.from_samples(Domain.unit(1), np.array([[0.3]])))
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        rc = main([argv[0], "--in", str(path), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, capsys.readouterr().err) == (0, "")
    assert time.perf_counter() - t0 < 5.0
    assert peak < 100 << 20, peak


def test_oracles_refuse_another_domain():
    # a sample set on [0, 1] once put all its mass in cell 0 of a {1..8}
    # grid, and brute_d1 returned 0.9 at a = 0.1
    unit = EmpiricalDist.from_samples(Domain.unit(1), np.array([[0.25], [0.75]]))
    eight = EmpiricalDist.from_samples(Domain.discrete(8, 1), np.array([[1], [6]]))
    four = GridSpec.uniform(Domain.discrete(4, 1), 4)
    calls = [(opt_hier_l2, eight, four, 1), (cell_masses, gen_truth(1, Domain.unit(1), 0), four)]
    for g, grid in ((unit, GridSpec.uniform(Domain.discrete(8, 1), 8)), (eight, four)):
        calls += [(cell_masses, g, grid), (brute_d1, g, grid, grid.root(), 0.1),
                  (opt_partial_hier_dk, g, grid, 1), (dk_distance_between, g, g, grid, 1)]
    for fn, *args in calls:
        with pytest.raises(ValueError, match="disagree on the domain"):
            fn(*args)


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
    best = max(abs(int(counts[_cell_slice(r)].sum()) / emp.n - a * grid.volume_of(r)) for r in inside)
    assert brute_d1(emp, grid, rect, a) == best


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


def support_lp_twin(emp, grid, k):
    """``opt_partial_hier_dk`` with every support's linear program solved: no bounds, no pruning.

    A support is a family of at most k pairwise-disjoint dyadic rectangles
    and so is a union; a support's program is min t subject to
    |fhat(U) - sum_s a_s vol(U ∩ s)| <= t for every union U, with a >= 0.
    Rectangles are cell indicators, so overlaps are cell sums.
    """
    from scipy.optimize import linprog

    rects = all_dyadic_rects(grid)
    cells = np.zeros((len(rects),) + (grid.M,) * grid.dim)
    for i, r in enumerate(rects):
        cells[i][_cell_slice(r)] = 1.0
    cells = cells.reshape(len(rects), -1)
    counts = np.zeros((grid.M,) * grid.dim)
    for cell, c in zip(grid.cell_index(emp.points), emp.counts):
        counts[tuple(cell)] += c
    cell_vol = functools.reduce(np.multiply.outer, [np.diff(ax) for ax in grid.axes]).ravel()
    shared = cells @ cells.T > 0
    unions = [
        combo
        for size in range(k + 1)
        for combo in itertools.combinations(range(len(rects)), size)
        if not any(shared[i, j] for i, j in itertools.combinations(combo, 2))
    ]
    member = np.zeros((len(unions), len(rects)))
    for u, combo in enumerate(unions):
        member[u, list(combo)] = 1.0
    f = member @ cells @ counts.ravel() / emp.n
    weights = member @ (cells * cell_vol) @ cells.T  # vol(U ∩ s) for every union U and rect s
    best = float(np.abs(f).max())  # the empty support: h == 0
    for support in unions[1:]:
        w = weights[:, list(support)]
        ones = np.ones((len(unions), 1))
        res = linprog(
            np.r_[np.zeros(len(support)), 1.0],
            A_ub=np.vstack([np.hstack([-w, -ones]), np.hstack([w, -ones])]),
            b_ub=np.r_[-f, f],
            bounds=[(0, None)] * len(support) + [(None, None)],
            method="highs",
        )
        assert res.status == 0, res.message
        best = min(best, float(res.fun))
    return best


def _split_trees(rect, budget, fan):
    """Leaf tuples of every full split tree of ``rect`` with at most ``budget`` leaves."""
    if budget >= 1:
        yield (rect,)
    if rect.level and budget >= fan:
        children = rect.children()

        def rest(i, left):  # children[i:] share ``left`` leaves, at least one each
            if i == fan:
                yield ()
                return
            for head in _split_trees(children[i], left - (fan - 1 - i), fan):
                for tail in rest(i + 1, left - len(head)):
                    yield head + tail

        yield from rest(0, budget)


def _leaf_l2(emp, grid, rect):
    """Squared error of the flattening on ``rect``, summed over its lattice points."""
    spans = [
        range(int(ax[i << rect.level]), int(ax[(i + 1) << rect.level]))
        for ax, i in zip(grid.axes, rect.index)
    ]
    lattice = list(itertools.product(*spans))
    if not lattice:
        return 0.0
    g = {tuple(int(c) for c in p): int(c) / emp.n for p, c in zip(emp.points, emp.counts)}
    vals = [g.get(x, 0.0) for x in lattice]
    a = sum(vals) / len(lattice)
    return sum((v - a) ** 2 for v in vals)


def partition_twin(emp, grid, k):
    """Least squared error over every full split tree with at most k leaves."""
    trees = _split_trees(grid.root(), k, 1 << grid.dim)
    return min(sum(_leaf_l2(emp, grid, r) for r in leaves) for leaves in trees)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_opt_hier_l2_matches_partition_enumeration(dim, seed):
    # warped grids put several lattice points in one cell, which the twin
    # sums one by one
    rng = make_rng(seed)
    M = int(rng.choice([2, 4, 8, 16] if dim == 1 else [2, 4]))
    k = int(rng.integers(1, 7 if dim == 1 else 17))
    domain = Domain.discrete(M, dim)
    emp = random_empirical(rng, domain, int(rng.integers(1, 30)))
    grid = random_grid(rng, domain, M, warp=bool(rng.random() < 0.5))
    val, hyp = opt_hier_l2(emp, grid, k)
    assert hyp.piece_count <= k
    assert val == pytest.approx(partition_twin(emp, grid, k), abs=1e-13)
    assert val == pytest.approx(sum(_leaf_l2(emp, grid, r) for r in hyp.dyadic), abs=1e-13)
