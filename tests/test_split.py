"""The greedy splitting learners and the adaptive grid construction."""

import numpy as np
import pytest

from dyadhist.core import (
    Domain,
    DyadicRect,
    EmpiricalDist,
    GridSpec,
    HistKind,
    l2_sq_dist,
    mass,
)
from dyadhist import split
from dyadhist.ddist import MortonIndex, build_tree, compute_d1
from dyadhist.errors import DegenerateRegionError, UnsupportedDomainError
from dyadhist.oracle import dk_distance_between, opt_hier_l2, opt_partial_hier_dk
from dyadhist.split import (
    SplitParams,
    adaptive_greedy_split,
    build_adaptive_grid,
    greedy_split,
    greedy_split_l2,
    piece_bound,
    renormalize,
)

from conftest import (
    exact_fit_minimum,
    make_rng,
    random_empirical,
    random_hier_hist,
    reference_lines,
    reference_tree,
)


class TestGreedySplit:
    def test_uniform_data_never_splits(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2], [3], [4]]))
        grid = GridSpec.uniform(d, 4)
        hyp, trace = greedy_split(emp, grid, SplitParams(k=3, xi=1.0))
        assert hyp.piece_count == 1
        assert hyp.pieces[0].value == 0.25
        assert all(rec.split == [] for rec in trace.iterations)

    def test_recovers_two_piece_histogram_exactly(self):
        # empirical equal to a 2-piece histogram split at the dyadic midpoint
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[1], [2], [3], [4]]), np.array([4, 4, 1, 1]))
        grid = GridSpec.uniform(d, 4)
        hyp, _ = greedy_split(emp, grid, SplitParams(k=2, xi=1.0))
        assert hyp.piece_count == 2
        assert [p.value for p in hyp.pieces] == [0.4, 0.1]
        assert dk_distance_between(emp, hyp, grid, 2) == pytest.approx(0.0, abs=1e-12)

    def test_piece_bound_arithmetic(self):
        assert piece_bound(2, 1.0, 2, 3) == 2 * 4 * 2 * 3

    def test_exactly_levels_iterations(self, rng):
        d = Domain.unit(2)
        emp = random_empirical(rng, d, 30)
        grid = build_adaptive_grid(emp)
        _, trace = greedy_split(emp, grid, SplitParams(k=2, xi=0.5))
        assert len(trace.iterations) == grid.levels
        assert [r.iteration for r in trace.iterations] == list(range(1, grid.levels + 1))

    def test_zero_error_and_level0_leaves_never_split(self, rng):
        import math

        for trial in range(10):
            emp = random_empirical(make_rng(trial), Domain.discrete(8, 2), 20)
            grid = GridSpec.uniform(Domain.discrete(8, 2), 8)
            k, xi = 2, 1.0
            _, trace = greedy_split(emp, grid, SplitParams(k=k, xi=xi))
            for rec in trace.iterations:
                assert len(rec.chosen) <= math.ceil((1 + xi) * k)
                errs = dict(zip(rec.leaves, rec.errors))
                for r in rec.split:
                    assert r.level > 0
                    assert errs[r] > 0.0

    def test_piece_bound_holds_on_random_runs(self, rng):
        for trial in range(15):
            k = int(rng.integers(1, 4))
            xi = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
            emp = random_empirical(make_rng(trial + 50), Domain.discrete(8, 2), 25)
            grid = GridSpec.uniform(Domain.discrete(8, 2), 8)
            hyp, _ = greedy_split(emp, grid, SplitParams(k=k, xi=xi))
            assert hyp.piece_count <= piece_bound(k, xi, 2, grid.levels)

    def test_guarantee_vs_oracle_small(self):
        factor_cases = [(1, 1.0), (2, 0.5), (2, 2.0)]
        for trial, (k, xi) in enumerate(factor_cases):
            emp = random_empirical(make_rng(trial + 9), Domain.discrete(8, 1), 10)
            grid = GridSpec.uniform(Domain.discrete(8, 1), 8)
            hyp, _ = greedy_split(emp, grid, SplitParams(k=k, xi=xi))
            lhs = dk_distance_between(emp, hyp, grid, k)
            opt = opt_partial_hier_dk(emp, grid, k)
            assert lhs <= (3 + 6 / xi**2) * opt + 1e-6

    def test_determinism_byte_for_byte(self):
        emp = random_empirical(make_rng(4242), Domain.unit(2), 60)
        grid = build_adaptive_grid(emp)
        p = SplitParams(k=2, xi=1.0)
        h1, t1 = greedy_split(emp, grid, p)
        h2, t2 = greedy_split(emp, grid, p)
        assert t1.to_text() == t2.to_text()
        assert [(pc.rect, pc.value) for pc in h1.pieces] == [
            (pc.rect, pc.value) for pc in h2.pieces
        ]

    def test_output_total_mass_matches_report(self, rng):
        emp = random_empirical(rng, Domain.discrete(16, 2), 40)
        grid = build_adaptive_grid(emp)
        hyp, _ = greedy_split(emp, grid, SplitParams(k=3, xi=1.0))
        # hierarchical pieces partition the domain
        assert hyp.kind is HistKind.HIERARCHICAL
        total_vol = sum(
            np.prod([float(h) - float(l) for l, h in zip(p.rect.lo, p.rect.hi)])
            for p in hyp.pieces
        )
        assert total_vol == pytest.approx(16.0**2, abs=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SplitParams(k=0)
        with pytest.raises(ValueError):
            SplitParams(k=1, xi=0.0)

    @pytest.mark.parametrize("xi", [float("inf"), float("nan")])
    def test_non_finite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match="xi must be positive and finite"):
            SplitParams(k=1, xi=xi)


class TestGreedySplitL2:
    def test_constant_data_one_piece(self):
        d = Domain.discrete(8, 1)
        emp = EmpiricalDist.from_samples(d, np.arange(1, 9).reshape(-1, 1))
        grid = GridSpec.uniform(d, 8)
        hyp, _ = greedy_split_l2(emp, grid, SplitParams(k=2, xi=1.0))
        assert hyp.piece_count == 1
        assert l2_sq_dist(emp, hyp) == 0.0

    def test_two_cell_example(self):
        d = Domain.discrete(2, 1)
        emp = EmpiricalDist(d, np.array([[1], [2]]), np.array([3, 1]))
        grid = GridSpec.uniform(d, 2)
        hyp, _ = greedy_split_l2(emp, grid, SplitParams(k=1, xi=1.0))
        assert hyp.piece_count == 2
        assert l2_sq_dist(emp, hyp) == 0.0
        opt, _ = opt_hier_l2(emp, grid, 1)
        assert opt == pytest.approx(0.125, abs=0)

    def test_guarantee_vs_oracle(self):
        for trial in range(8):
            rng = make_rng(trial + 100)
            k = int(rng.integers(1, 3))
            xi = float(rng.choice([0.5, 1.0, 2.0]))
            dim = int(rng.integers(1, 3))
            d = Domain.discrete(8, dim)
            emp = random_empirical(rng, d, 12)
            grid = GridSpec.uniform(d, 8)
            hyp, _ = greedy_split_l2(emp, grid, SplitParams(k=k, xi=xi))
            opt, _ = opt_hier_l2(emp, grid, k)
            assert l2_sq_dist(emp, hyp) <= (1 + 1 / xi) * opt + 1e-12

    def test_unit_cube_rejected(self):
        d = Domain.unit(1)
        emp = EmpiricalDist.from_samples(d, np.array([[0.5]]))
        grid = GridSpec.uniform(d, 4)
        with pytest.raises(UnsupportedDomainError):
            greedy_split_l2(emp, grid, SplitParams(k=1))


class TestAdaptiveGrid:
    def test_single_distinct_coordinate_gives_m2(self):
        d = Domain.unit(1)
        emp = EmpiricalDist.from_samples(d, np.array([[0.3], [0.3], [0.3]]))
        grid = build_adaptive_grid(emp)
        assert grid.M == 2

    def test_worked_discrete_example(self):
        d = Domain.discrete(16, 2)
        emp = EmpiricalDist.from_samples(d, np.array([[3, 7], [3, 2], [9, 2]]))
        grid = build_adaptive_grid(emp)
        assert grid.M == 4
        assert grid.axes[0].tolist() == [1, 3, 9, 9, 17]
        assert grid.axes[1].tolist() == [1, 2, 7, 7, 17]

    def test_m_is_power_of_two_and_bounded(self, rng):
        for trial in range(10):
            n = int(rng.integers(1, 60))
            emp = random_empirical(make_rng(trial), Domain.unit(2), n)
            grid = build_adaptive_grid(emp)
            assert grid.M & (grid.M - 1) == 0
            assert grid.M <= 2 * emp.n

    def test_sample_mass_avoids_padded_cells(self, rng):
        emp = random_empirical(rng, Domain.discrete(32, 2), 12)
        grid = build_adaptive_grid(emp)
        cells = grid.cell_index(emp.points)
        for a in range(2):
            widths = np.diff(grid.axes[a])
            assert (widths[cells[:, a]] > 0).all()

    def test_empty_samples_rejected(self):
        d = Domain.unit(1)
        empty = EmpiricalDist(d, np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            build_adaptive_grid(empty)


class TestAdaptiveGreedySplit:
    def test_point_mass_concentrates(self):
        d = Domain.discrete(64, 2)
        emp = EmpiricalDist(d, np.array([[10, 20]]), np.array([7]))
        hyp, _ = adaptive_greedy_split(emp, SplitParams(k=1, xi=1.0))
        nonzero = [p for p in hyp.pieces if p.value > 0]
        assert len(nonzero) == 1
        piece = nonzero[0]
        assert piece.rect.contains_points(np.array([[10, 20]]), d)[0]
        assert mass(hyp, piece.rect) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "pts",
        [
            [[1.0, 1.0], [0.3, 0.5]],
            [[1.0], [0.3], [0.6]],
            [[1.0, 0.3], [1.0, 0.7]],  # every sample of axis 0 at the top face
            [[1.0]],
            [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.2, 1.0, 0.9]],
        ],
    )
    def test_samples_on_the_top_face_keep_their_mass(self, pts):
        pts = np.array(pts)
        emp = EmpiricalDist.from_samples(Domain.unit(pts.shape[1]), pts)
        hyp, _ = adaptive_greedy_split(emp, SplitParams(k=2, xi=1.0))
        assert hyp.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_hypothesis_boundaries_come_from_samples(self, rng):
        emp = random_empirical(rng, Domain.unit(2), 25)
        hyp, _ = adaptive_greedy_split(emp, SplitParams(k=2, xi=1.0))
        allowed = [set(emp.points[:, a]) | {0.0, 1.0} for a in range(2)]
        for p in hyp.pieces:
            for a in range(2):
                assert p.rect.lo[a] in allowed[a]
                assert p.rect.hi[a] in allowed[a]

    def test_uniform_consistency_at_10k(self):
        # frozen from a calibration run: median l1 error over 5 seeds at
        # n=10000, k=1 for a true uniform density is ~0.07
        from dyadhist.cli import sample_from
        from dyadhist.core import HistHypothesis, Piece, l1_dist

        d = Domain.unit(1)
        truth = HistHypothesis(d, (Piece(d.full_rect(), 1.0),), HistKind.ARBITRARY)
        errs = []
        for seed in range(1, 6):
            emp = sample_from(truth, 10_000, seed)
            hyp, _ = adaptive_greedy_split(emp, SplitParams(k=1, xi=1.0))
            errs.append(l1_dist(truth, hyp))
        assert float(np.median(errs)) <= 0.2


class TestRenormalize:
    def test_identity_when_mass_one(self, rng):
        grid = GridSpec.uniform(Domain.unit(2), 4)
        h = random_hier_hist(rng, grid, 7, normalize=True)
        out = renormalize(h)
        assert [p.value for p in out.pieces] == pytest.approx(
            [p.value for p in h.pieces], rel=1e-12
        )

    def test_halves_on_mass_two(self):
        d = Domain.unit(1)
        from dyadhist.core import HistHypothesis, Piece

        h = HistHypothesis(d, (Piece(d.full_rect(), 2.0),), HistKind.ARBITRARY)
        out = renormalize(h)
        assert out.pieces[0].value == 1.0

    def test_total_mass_property(self, rng):
        for trial in range(25):
            grid = GridSpec.uniform(Domain.unit(int(make_rng(trial).integers(1, 3))), 8)
            h = random_hier_hist(make_rng(trial), grid, 10, normalize=False)
            assert renormalize(h).total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        d = Domain.unit(1)
        from dyadhist.core import HistHypothesis, Piece

        h = HistHypothesis(d, (Piece(d.full_rect(), 0.0),), HistKind.ARBITRARY)
        with pytest.raises(DegenerateRegionError):
            renormalize(h)


def test_leaf_values_are_exact_fits():
    # every leaf of every round holds its exact best constant and its error
    for seed in range(4):
        emp = random_empirical(make_rng(800 + seed), Domain.discrete(16, 2), 40)
        grid = GridSpec.uniform(emp.domain, 16)
        _, trace = greedy_split(emp, grid, SplitParams(k=2, xi=1.0))
        twin = reference_tree(emp, grid, grid.root())
        for rec in trace.iterations:
            for rect, a, e in zip(rec.leaves, rec.values, rec.errors):
                assert e <= exact_fit_minimum(*reference_lines(grid, rect, twin)) + 1e-12
                assert e == compute_d1(build_tree(emp, grid, rect), a)[0]


@pytest.mark.parametrize("learner", ["l1", "l2"])
def test_each_leaf_scored_once_when_made(learner, monkeypatch):
    # the L1 learner scores a leaf by one fit_d1 call, the L2 learner by one
    # index run; both score the root first, then each child as it is made
    scored = []
    fit, run = split.fit_d1, MortonIndex.run

    def counted_fit(tree):
        scored.append(tree.rect)
        return fit(tree)

    def counted_run(index, rect):
        scored.append(rect)
        return run(index, rect)

    if learner == "l1":
        monkeypatch.setattr(split, "fit_d1", counted_fit)
    else:
        monkeypatch.setattr(MortonIndex, "run", counted_run)
    for dim, m in ((1, 64), (2, 16)):
        emp = random_empirical(make_rng(830 + dim), Domain.discrete(m, dim), 60)
        grid = GridSpec.uniform(emp.domain, m)
        scored.clear()
        learn = greedy_split if learner == "l1" else greedy_split_l2
        _, trace = learn(emp, grid, SplitParams(k=2, xi=1.0))
        splits = [r for rec in trace.iterations for r in rec.split]
        made = [grid.root()] + [ch for r in splits for ch in r.children()]
        assert len(splits) > 3
        assert len(scored) == 1 + (1 << dim) * len(splits)
        assert scored[0] == grid.root()
        assert sorted(scored) == sorted(made)  # every leaf that ever exists, each once
