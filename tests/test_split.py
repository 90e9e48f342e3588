"""The greedy splitting learners and the adaptive grid construction."""

import math
import os
import subprocess
import sys
from pathlib import Path

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
    next_pow2,
)
from dyadhist import split
from dyadhist.cli import main
from dyadhist.ddist import MortonIndex, build_tree, compute_d1, fit_d1
from dyadhist.errors import DegenerateRegionError, UnsupportedDomainError
from dyadhist.fileio import write_samples
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
        grid, _ = build_adaptive_grid(emp)
        _, trace = greedy_split(emp, grid, SplitParams(k=2, xi=0.5))
        assert len(trace.iterations) == grid.levels
        assert [r.iteration for r in trace.iterations] == list(range(1, grid.levels + 1))

    def test_zero_error_and_level0_leaves_never_split(self, rng):
        for trial in range(10):
            emp = random_empirical(make_rng(trial), Domain.discrete(8, 2), 20)
            grid = GridSpec.uniform(Domain.discrete(8, 2), 8)
            k, xi = 2, 1.0
            _, trace = greedy_split(emp, grid, SplitParams(k=k, xi=xi))
            for rec in trace.iterations:
                assert len(rec.chosen) <= math.ceil((1 + xi) * k)
                for r in rec.split:
                    assert r.level > 0
                    assert trace.scores[r][1] > 0.0

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
        grid, _ = build_adaptive_grid(emp)
        p = SplitParams(k=2, xi=1.0)
        h1, t1 = greedy_split(emp, grid, p)
        h2, t2 = greedy_split(emp, grid, p)
        assert t1.to_text() == t2.to_text()
        assert [(pc.rect, pc.value) for pc in h1.pieces] == [
            (pc.rect, pc.value) for pc in h2.pieces
        ]

    def test_output_total_mass_matches_report(self, rng):
        emp = random_empirical(rng, Domain.discrete(16, 2), 40)
        grid, _ = build_adaptive_grid(emp)
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
        grid, _ = build_adaptive_grid(emp)
        assert grid.M == 2

    def test_worked_discrete_example(self):
        d = Domain.discrete(16, 2)
        emp = EmpiricalDist.from_samples(d, np.array([[3, 7], [3, 2], [9, 2]]))
        grid, _ = build_adaptive_grid(emp)
        assert grid.M == 4
        assert grid.axes[0].tolist() == [1, 3, 9, 9, 17]
        assert grid.axes[1].tolist() == [1, 2, 7, 7, 17]

    def test_m_is_power_of_two_and_bounded(self, rng):
        for trial in range(10):
            n = int(rng.integers(1, 60))
            emp = random_empirical(make_rng(trial), Domain.unit(2), n)
            grid, _ = build_adaptive_grid(emp)
            assert grid.M & (grid.M - 1) == 0
            assert grid.M <= 2 * emp.n

    def test_sample_mass_avoids_padded_cells(self, rng):
        emp = random_empirical(rng, Domain.discrete(32, 2), 12)
        grid, _ = build_adaptive_grid(emp)
        cells = grid.cell_index(emp.points)
        for a in range(2):
            widths = np.diff(grid.axes[a])
            assert (widths[cells[:, a]] > 0).all()

    def test_axes_match_concatenating_twin(self):
        # coordinates at the unit cube's upper bound 1.0 are no boundary, and
        # a column may lie entirely there; m = 2^53 - 1, the largest side,
        # puts the upper bound at 2^53
        rng = make_rng(2_500)
        for trial in range(60):
            dim = int(rng.integers(1, 4))
            m = int(rng.choice([1, 5, 12, 1000, 2**53 - 1])) if trial % 2 else None
            domain = Domain.unit(dim) if m is None else Domain.discrete(m, dim)
            n = int(rng.integers(1, 80))
            if m is None:
                pts = rng.integers(0, 9, size=(n, dim)) / 8.0  # repeats, and 1.0 about once in nine
            else:
                pts = np.minimum(rng.integers(1, min(m, 2_000) + 1, size=(n, dim)), m)
                pts[rng.random(n) < 0.3, 0] = m
            if trial % 5 == 0:
                pts[:, int(rng.integers(dim))] = domain.upper if m is None else m
            emp = EmpiricalDist.from_samples(domain, pts)
            grid, _ = build_adaptive_grid(emp)
            twin = adaptive_axes_twin(emp)
            assert len(grid.axes) == len(twin)
            for axis, expect in zip(grid.axes, twin):
                assert axis.dtype == expect.dtype == np.float64
                assert np.array_equal(axis, expect)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_cells_match_cell_index(self, dim):
        # discrete sides that are not powers of two and the largest side,
        # points on the upper bound (1.0) and at m, single-valued columns,
        # one-point supports, and sets built directly with unsorted rows
        rng = make_rng(2_700 + dim)
        for trial in range(42):
            m = (None, 1, 3, 6, 12, 1000, 2**53 - 1)[trial % 7]
            domain = Domain.unit(dim) if m is None else Domain.discrete(m, dim)
            n = int(rng.integers(1, 70))
            if m is None:
                pts = rng.integers(0, 9, size=(n, dim)) / 8.0  # repeats, and 1.0 about once in nine
                pts[rng.random(n) < 0.3] = rng.random((1, dim))
            else:
                pts = m - rng.integers(0, min(m, 2_000), size=(n, dim))
                pts[rng.random(n) < 0.3, 0] = 1
            if trial % 3 == 0:
                pts[:, int(rng.integers(dim))] = pts[0, 0]
            if trial % 6 == 5:
                pts = pts[:1]
            emp = EmpiricalDist.from_samples(domain, pts)
            if trial % 2:
                shuffled = rng.permutation(emp.support_size)
                emp = EmpiricalDist(domain, emp.points[shuffled], emp.counts[shuffled])
            grid, cells = build_adaptive_grid(emp)
            want = grid.cell_index(emp.points)
            assert cells.dtype == np.int64 and np.array_equal(cells, want), trial
            index, looked_up = MortonIndex(emp, grid, cells), MortonIndex(emp, grid)
            assert np.array_equal(index.rows, looked_up.rows) and np.array_equal(index.cells, want[index.rows])
            assert len(index.words) == len(looked_up.words)
            assert all(np.array_equal(w, x) for w, x in zip(index.words, looked_up.words))

    def test_empty_samples_rejected(self):
        # no empty sample set reaches build_adaptive_grid: the constructor refuses it
        with pytest.raises(ValueError, match="empty sample set"):
            EmpiricalDist(Domain.unit(1), np.zeros((0, 1)), np.zeros(0))


def adaptive_axes_twin(samples):
    """``build_adaptive_grid``'s axes by a mask, two concatenations and a cast."""
    domain = samples.domain
    uniques = []
    for a in range(domain.dim):
        u = np.unique(samples.points[:, a])
        uniques.append(u[u < domain.upper])
    m_cells = max(next_pow2(len(u) + 1) for u in uniques)
    axes = []
    for u in uniques:
        pad = u[-1] if len(u) else domain.lower
        interior = np.concatenate([u, np.full(m_cells - 1 - len(u), pad)])
        axes.append(np.concatenate([[domain.lower], interior, [domain.upper]]).astype(np.float64))
    return axes


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
    # every scored leaf holds its exact best constant and its error
    for seed in range(4):
        emp = random_empirical(make_rng(800 + seed), Domain.discrete(16, 2), 40)
        grid = GridSpec.uniform(emp.domain, 16)
        _, trace = greedy_split(emp, grid, SplitParams(k=2, xi=1.0))
        twin = reference_tree(emp, grid, grid.root())
        for rect, (a, e) in trace.scores.items():
            assert e <= exact_fit_minimum(*reference_lines(grid, rect, twin)) + 1e-12
            assert e == compute_d1(build_tree(emp, grid, rect), a)


@pytest.mark.parametrize("learner", ["l1", "l2"])
def test_each_leaf_scored_once_when_made(learner, monkeypatch):
    # the L1 learner scores a leaf by one fit_d1 call, the L2 learner by one
    # call of its scorer; both score the root first, then each child as it
    # is made
    scored = []
    fit, loop = split.fit_d1, split._run_split_loop

    def counted_fit(tree):
        scored.append(tree.rect)
        return fit(tree)

    def counted_loop(grid, params, index, score):
        def counted_score(rect, run):
            scored.append(rect)
            return score(rect, run)

        return loop(grid, params, index, counted_score)

    if learner == "l1":
        monkeypatch.setattr(split, "fit_d1", counted_fit)
    else:
        monkeypatch.setattr(split, "_run_split_loop", counted_loop)
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


def snapshot_twin(emp, grid, params, learner):
    """Each round's sorted leaves with their ``(a, err)``, and its chosen and split leaves.

    This is the loop that copied every leaf every round, with a scorer of
    its own: the fit on a standalone tree (L1), or the flattening of the
    support points inside the leaf (L2).
    """

    def score(rect):
        if learner == "l1":
            fit = fit_d1(build_tree(emp, grid, rect))
            return fit.a, fit.err
        masses = emp.counts[grid.rect_of(rect).contains_points(emp.points, emp.domain)] / emp.n
        vol = grid.volume_of(rect)
        if vol <= 0:
            return 0.0, 0.0
        a = float(masses.sum()) / vol
        return a, max(0.0, float(np.sum((masses - a) ** 2)) + (vol - len(masses)) * a * a)

    n_split = math.ceil((1.0 + params.xi) * params.k)
    leaves = {grid.root(): score(grid.root())}
    rounds = []
    for _ in range(grid.levels):
        chosen = sorted(leaves, key=lambda r: (-leaves[r][1], -r.level, r.index))[:n_split]
        to_split = [r for r in chosen if r.level > 0 and leaves[r][1] > 0.0]
        rounds.append(([(r, *leaves[r]) for r in sorted(leaves)], chosen, to_split))
        for r in to_split:
            del leaves[r]
            leaves.update((ch, score(ch)) for ch in r.children())
    return rounds


def snapshot_text(rounds) -> str:
    """The trace text as it was written from the per-round copies."""

    def name(r):
        return f"{r.level}:{','.join(map(str, r.index))}"

    out = []
    for it, (snapshot, chosen, to_split) in enumerate(rounds, 1):
        out.append(f"iteration {it}")
        out += [f"  leaf {name(r)} a={a!r} e={e!r}" for r, a, e in snapshot]
        out.append("  chosen " + " ".join(map(name, chosen)))
        out.append("  split " + " ".join(map(name, to_split)))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("learner", ["l1", "l2"])
@pytest.mark.parametrize("dim,m", [(1, 64), (2, 16)])
def test_trace_keeps_each_scored_leaf_once(learner, dim, m):
    emp = random_empirical(make_rng(840 + dim), Domain.discrete(m, dim), 60)
    grid = GridSpec.uniform(emp.domain, m)
    params = SplitParams(k=2, xi=1.0)
    _, trace = (greedy_split if learner == "l1" else greedy_split_l2)(emp, grid, params)
    splits = [r for rec in trace.iterations for r in rec.split]
    made = [grid.root()] + [ch for r in splits for ch in r.children()]
    assert len(splits) > 3
    assert len(set(made)) == len(made) == len(trace.scores) == 1 + (1 << dim) * len(splits)
    assert list(trace.scores) == made  # the root, then each split's children in order
    # the values are those the per-round copies held, and the text replays them
    rounds = snapshot_twin(emp, grid, params, learner)
    assert [(rec.chosen, rec.split) for rec in trace.iterations] == [r[1:] for r in rounds]
    assert all(trace.scores[r] == (a, e) for snapshot, _, _ in rounds for r, a, e in snapshot)
    assert trace.to_text() == snapshot_text(rounds)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_adaptive_rounds_match_the_dict_loop(dim):
    # few distinct coordinates, each repeated, and lattices with equal
    # counts tie many errors: zero ones on empty and zero-width leaves, and
    # equal ones on leaves holding equal counts; the index order breaks
    # each tie, as the dict loop's sort did
    rng = make_rng(850 + dim)
    ties = 0
    for trial in range(12):
        domain = Domain.discrete(int(rng.choice([3, 5, 12])), dim) if trial % 2 else Domain.unit(dim)
        n = int(rng.integers(8, 40 if dim < 3 else 16))
        if trial % 4 == 3:  # every lattice point once, and a few twice
            pts = np.argwhere(np.ones((min(domain.m, 5 if dim < 3 else 3),) * dim)) + 1
        elif domain.is_discrete:
            pts = rng.integers(1, domain.m + 1, size=(n, dim))
        else:
            pts = rng.integers(0, 6, size=(n, dim)) / 5.0
        emp = EmpiricalDist.from_samples(domain, np.vstack([pts, pts[: int(rng.integers(len(pts)))]]))
        params = SplitParams(k=int(rng.integers(1, 6)), xi=float(rng.choice([0.5, 1.0, 2.0])))
        grid, cells = build_adaptive_grid(emp)
        hyp, trace = greedy_split(emp, grid, params, cells=cells)
        rounds = snapshot_twin(emp, grid, params, "l1")
        assert [(rec.chosen, rec.split) for rec in trace.iterations] == [r[1:] for r in rounds]
        assert trace.to_text() == snapshot_text(rounds)
        # the pieces the dict loop's leaves give, through rect_of
        leaves, _, to_split = rounds[-1]
        final = sorted({r for r, _, _ in leaves} - set(to_split) | {ch for r in to_split for ch in r.children()})
        assert hyp.dyadic == tuple(final)
        assert [(p.rect, p.value) for p in hyp.pieces] == [(grid.rect_of(r), trace.scores[r][0]) for r in final]
        for snapshot, chosen, _ in rounds:  # ties the order decides: within the chosen leaves or at the cut
            errs = sorted((e for _, _, e in snapshot), reverse=True)[: len(chosen) + 1]
            ties += sum(a == b for a, b in zip(errs, errs[1:]))
    assert ties >= 12


def test_piece_bound_is_an_error_not_bad_input(monkeypatch, tmp_path):
    # a learner that outgrows its bound is a program fault: it raises, and
    # ``learn`` lets it through rather than exit 2 as for bad input
    monkeypatch.setattr(split, "piece_bound", lambda *args: 1)
    emp = random_empirical(make_rng(860), Domain.discrete(16, 2), 40)
    with pytest.raises(AssertionError, match="leaves exceed bound 1"):
        greedy_split(emp, GridSpec.uniform(emp.domain, 16), SplitParams(k=2))
    path = tmp_path / "samples.txt"
    write_samples(path, emp)
    with pytest.raises(AssertionError, match="leaves exceed bound 1"):
        main(["learn", "--in", str(path), "--k", "2", "--out", str(tmp_path / "h"), "--report", str(tmp_path / "r")])


def test_piece_bound_holds_under_python_O(tmp_path):
    path = tmp_path / "samples.txt"
    write_samples(path, random_empirical(make_rng(861), Domain.unit(2), 40))
    code = (
        "import sys\n"
        "from dyadhist import split\n"
        "from dyadhist.cli import main\n"
        "assert not __debug__, 'assert statements run'\n"
        "split.piece_bound = lambda *args: 1\n"
        f"sys.exit(main(['learn', '--in', {str(path)!r}, '--k', '2', '--out', {str(tmp_path / 'h')!r}]))\n"
    )
    src = str(Path(split.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "AssertionError: " in proc.stderr and "leaves exceed bound 1" in proc.stderr
