"""Sample budgets and structural conversions."""

import math

import numpy as np
import pytest

from dyadhist.core import Domain, GridSpec, HistHypothesis, HistKind, Piece, Rect, l1_dist
from dyadhist.errors import ConfigurationError, StructureError
from dyadhist.theory import (
    BudgetFormula,
    dyadic_intervals,
    sample_budget,
    strictly_greater_region,
    to_hierarchical,
)

from conftest import cell_values, make_rng, random_hier_hist, random_partial_hist


class TestSampleBudget:
    def test_l2_golden(self):
        assert sample_budget(BudgetFormula.L2, k=1, d=1, eps=0.01, delta=math.exp(-1)) == 100

    def test_fixed_grid_golden(self):
        n = sample_budget(
            BudgetFormula.FIXED_GRID_L1,
            k=2, d=1, eps=0.1, delta=math.exp(-1), xi=1.0, m=256,
        )
        assert type(n) is int and n == 51_300

    def test_adaptive_monotone_in_eps(self):
        eps_grid = [0.02, 0.05, 0.1, 0.2, 0.4]
        ns = [
            sample_budget(BudgetFormula.ADAPTIVE_L1, k=3, d=2, eps=e, delta=0.05)
            for e in eps_grid
        ]
        assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_monotone_in_k_and_d(self):
        def n(k, d):
            return sample_budget(BudgetFormula.ADAPTIVE_L1, k=k, d=d, eps=0.1, delta=0.1)

        assert n(1, 1) <= n(2, 1) <= n(4, 1)
        assert n(2, 1) <= n(2, 2) <= n(2, 3)

    def test_monotone_in_delta(self):
        for formula in (BudgetFormula.FIXED_GRID_L1, BudgetFormula.ADAPTIVE_L1, BudgetFormula.L2):
            ns = [
                sample_budget(formula, k=2, d=2, eps=0.1, delta=dl, m=16)
                for dl in (0.01, 0.05, 0.2, 0.5)
            ]
            assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sample_budget(BudgetFormula.L2, k=1, d=1, eps=0.0, delta=0.5)
        with pytest.raises(ValueError):
            sample_budget(BudgetFormula.L2, k=1, d=1, eps=0.5, delta=1.0)
        with pytest.raises(ValueError):
            sample_budget(BudgetFormula.FIXED_GRID_L1, k=1, d=1, eps=0.5, delta=0.5)

    @pytest.mark.parametrize("formula", list(BudgetFormula))
    @pytest.mark.parametrize("bad", [dict(xi=math.inf), dict(eps=1e-200), dict(eps=1e-320)])
    def test_unrepresentable_budget_raises_value_error(self, formula, bad):
        args = dict(k=2, d=2, eps=0.1, delta=0.1, m=16) | bad
        if formula is BudgetFormula.L2 and bad == dict(eps=1e-200):
            assert sample_budget(formula, **args) > 10**200  # ln(10) / 1e-200 is a finite float
            return
        with pytest.raises(ValueError) as err:
            sample_budget(formula, **args)
        assert type(err.value) is ValueError


class TestDyadicIntervals:
    def test_worked_decomposition(self):
        blocks = dyadic_intervals(1, 7)
        spans = [(s, s + (1 << t)) for s, t in blocks]
        assert spans == [(1, 2), (2, 4), (4, 6), (6, 7)]

    def test_blocks_are_aligned_and_tile(self):
        rng = make_rng(7)
        for _ in range(100):
            m = int(rng.choice([4, 8, 16, 32]))
            lo = int(rng.integers(0, m))
            hi = int(rng.integers(lo + 1, m + 1))
            covered = []
            for s, t in dyadic_intervals(lo, hi):
                assert s % (1 << t) == 0
                covered.extend(range(s, s + (1 << t)))
            assert covered == list(range(lo, hi))
            assert len(dyadic_intervals(lo, hi)) <= 2 * math.log2(m) + 1


class TestToHierarchical:
    def test_already_dyadic_piece_unchanged(self):
        d = Domain.unit(1)
        grid = GridSpec.uniform(d, 8)
        h = HistHypothesis(
            d,
            (Piece(Rect((0.0,), (0.5,)), 1.0), Piece(Rect((0.5,), (1.0,)), 1.0)),
            HistKind.ARBITRARY,
        )
        out = to_hierarchical(h, grid)
        assert out.piece_count == 2

    def test_interval_1_to_7_becomes_four_pieces(self):
        d = Domain.discrete(8, 1)
        grid = GridSpec.uniform(d, 8)
        h = HistHypothesis(
            d,
            (Piece(Rect((2,), (8,)), 0.5), Piece(Rect((1,), (2,)), 0.1),
             Piece(Rect((8,), (9,)), 0.1)),
            HistKind.ARBITRARY,
        )
        out = to_hierarchical(h, grid)
        # ranks [1,7) decompose into [1,2),[2,4),[4,6),[6,7)
        mids = [p for p in out.pieces if p.value == 0.5]
        assert len(mids) == 4

    def test_l1_preserved_and_count_bounded(self):
        for trial in range(30):
            rng = make_rng(trial)
            dim = int(rng.integers(1, 3))
            grid = GridSpec.uniform(Domain.unit(dim), 8)
            # random on-grid arbitrary histogram: random guillotine over ranks
            k = int(rng.integers(1, 5))
            h = _random_on_grid_hist(rng, grid, k)
            out = to_hierarchical(h, grid)
            assert l1_dist(h, out) == pytest.approx(0.0, abs=1e-12)
            assert out.piece_count <= k * (2 * grid.levels) ** dim

    def test_hierarchical_input_refines_to_arbitrary(self):
        for trial in range(200):
            rng = make_rng(trial + 900)
            grid = GridSpec.uniform(Domain.unit(1 + trial % 2), 8)
            h = random_hier_hist(rng, grid, 7)
            out = to_hierarchical(h, grid)
            assert out.kind is HistKind.ARBITRARY
            assert l1_dist(h, out) == 0.0

    def test_partial_input_stays_partial(self, rng):
        grid = GridSpec.uniform(Domain.unit(2), 8)
        h = random_partial_hist(rng, grid, 3)
        out = to_hierarchical(h, grid)
        assert out.kind is HistKind.PARTIAL
        assert l1_dist(h, out) == 0.0

    def test_off_grid_vertex_rejected(self):
        d = Domain.unit(1)
        grid = GridSpec.uniform(d, 4)
        h = HistHypothesis(d, (Piece(Rect((0.0,), (0.3,)), 1.0),), HistKind.PARTIAL)
        with pytest.raises(StructureError):
            to_hierarchical(h, grid)


def _random_on_grid_hist(rng, grid, k):
    """Random k-piece partition with vertices on the grid (rank guillotines)."""
    domain = grid.domain
    rects = [(tuple([0] * grid.dim), tuple([grid.M] * grid.dim))]
    for _ in range(k - 1):
        opts = [i for i, (lo, hi) in enumerate(rects) if any(h - l >= 2 for l, h in zip(lo, hi))]
        if not opts:
            break
        i = opts[int(rng.integers(len(opts)))]
        lo, hi = rects.pop(i)
        axes = [a for a in range(grid.dim) if hi[a] - lo[a] >= 2]
        a = axes[int(rng.integers(len(axes)))]
        cut = int(rng.integers(lo[a] + 1, hi[a]))
        hi1 = list(hi); hi1[a] = cut
        lo2 = list(lo); lo2[a] = cut
        rects.append((lo, tuple(hi1)))
        rects.append((tuple(lo2), hi))
    pieces = []
    for lo, hi in rects:
        r = Rect(
            tuple(grid.coord(a, lo[a]) for a in range(grid.dim)),
            tuple(grid.coord(a, hi[a]) for a in range(grid.dim)),
        )
        pieces.append(Piece(r, float(rng.uniform(0.1, 1.0))))
    return HistHypothesis(domain=domain, pieces=tuple(pieces), kind=HistKind.ARBITRARY)


class TestStrictlyGreaterRegion:
    def test_equal_histograms_empty_region(self, rng):
        grid = GridSpec.uniform(Domain.unit(2), 4)
        g = random_hier_hist(rng, grid, 7)
        assert strictly_greater_region(g, g) == []

    def test_left_half_example(self):
        d = Domain.unit(1)
        grid = GridSpec.uniform(d, 4)
        from dyadhist.core import DyadicRect

        left = DyadicRect(1, (0,))
        h = HistHypothesis(
            d, (Piece(grid.rect_of(left), 1.0),), HistKind.PARTIAL,
            grid=grid, dyadic=(left,),
        )
        root = grid.root()
        g = HistHypothesis(
            d, (Piece(grid.rect_of(root), 0.5),), HistKind.HIERARCHICAL,
            grid=grid, dyadic=(root,),
        )
        assert strictly_greater_region(h, g) == [left]

    def test_matches_pointwise_truth(self):
        hits = 0
        for trial in range(60):
            rng = make_rng(trial + 1000)
            dim = int(rng.integers(1, 3))
            M = int(rng.choice([4, 8]))
            k = int(rng.integers(1, 4))
            grid = GridSpec.uniform(Domain.unit(dim), M)
            h = random_partial_hist(rng, grid, k)
            g = random_hier_hist(rng, grid, max(k, 1 + (1 << dim) - 1))
            region = strictly_greater_region(h, g)
            assert len(region) <= len(h.pieces) + len(g.pieces)
            covered = np.zeros((M,) * dim, dtype=bool)
            for r in region:
                sl = tuple(slice(r.index[a] << r.level, (r.index[a] + 1) << r.level)
                           for a in range(dim))
                covered[sl] = True
            truth = cell_values(h, grid) > cell_values(g, grid)
            assert (covered == truth).all()
            hits += truth.any()
        assert hits > 10  # the family genuinely exercises nonempty regions

    def test_grid_mismatch_rejected(self, rng):
        g1 = GridSpec.uniform(Domain.unit(1), 4)
        g2 = GridSpec.uniform(Domain.unit(1), 8)
        a = random_hier_hist(rng, g1, 3)
        b = random_hier_hist(rng, g2, 3)
        with pytest.raises(ConfigurationError):
            strictly_greater_region(a, b)
