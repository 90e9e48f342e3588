"""Sparse dyadic trees, max-discrepancy computation, and the constant fit."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadhist import gen_truth, sample_from
from dyadhist.core import Domain, DyadicRect, EmpiricalDist, GridSpec
from dyadhist.ddist import MortonIndex, _morton_words, _ones_below, build_tree, compute_d1, fit_d1
from dyadhist.errors import OracleGuardError, StructureError

from dyadhist.oracle import all_dyadic_rects, brute_d1
from dyadhist.split import build_adaptive_grid

from conftest import (
    exact_fit_minimum,
    fit_objective,
    make_rng,
    morton_twin,
    random_empirical,
    random_grid,
    random_points,
    reference_lines,
    reference_tree,
    twin_volume,
)


def counts_2101():
    d = Domain.discrete(4, 1)
    emp = EmpiricalDist(d, np.array([[1], [2], [4]]), np.array([2, 1, 1]))
    return emp, GridSpec.uniform(d, 4)


def random_instance(rng, idx):
    """One instance of the desk-scale family: d<=2, M<=8, s<=16, mixed grids."""
    dim = int(rng.integers(1, 3))
    M = int(rng.choice([2, 4, 8]))
    if idx % 3 == 0:
        domain = Domain.unit(dim)
        grid = random_grid(rng, domain, M, warp=bool(idx % 2))
    else:
        domain = Domain.discrete(M, dim)
        grid = random_grid(rng, domain, M, warp=bool(idx % 2))
    s = int(rng.integers(1, 17))
    emp = random_empirical(rng, domain, s)
    # query rectangle: usually the root, sometimes a random descendant
    rect = grid.root()
    if idx % 4 == 0 and grid.levels > 0:
        lev = int(rng.integers(0, grid.levels))
        side = grid.M >> lev
        rect = DyadicRect(lev, tuple(int(rng.integers(side)) for _ in range(dim)))
    vol = grid.volume_of(rect)
    a = float(rng.random() * (2.0 / vol)) if vol > 0 else float(rng.random())
    return emp, grid, rect, a


class TestBuildTree:
    def test_empty_distribution_zero_nodes(self):
        emp, grid = counts_2101()
        rect = DyadicRect(0, (2,))  # cell {3} holds no samples
        tree = build_tree(emp, grid, rect)
        assert tree.node_count == 0
        assert tree.max_empty_vol == grid.volume_of(rect)

    def test_single_point_path_of_nodes(self):
        # one stored node: the cell holding the point, whose chain of
        # one-child nodes runs up to the root
        d = Domain.discrete(8, 1)
        emp = EmpiricalDist(d, np.array([[5]]), np.array([1]))
        tree = build_tree(emp, GridSpec.uniform(d, 8), DyadicRect(3, (0,)))
        assert tree.node_count == 1
        assert tree.node_level.tolist() == [0] and top_level(tree).tolist() == [3]
        assert sorted(tree_nodes(tree)) == [(0, (4,)), (1, (2,)), (2, (1,)), (3, (0,))]  # one per level
        assert tree.node_vol.tolist() == [1.0] and tree.top_vol.tolist() == [8.0]
        assert tree.max_empty_vol == 4.0

    def test_two_points_in_different_root_children(self):
        d = Domain.discrete(2, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2]]))
        tree = build_tree(emp, GridSpec.uniform(d, 2), DyadicRect(1, (0,)))
        assert tree.node_count == 3  # root + two leaves

    def test_parent_counts_are_sums_of_children(self, rng):
        for trial in range(25):
            emp, grid, rect, _ = random_instance(rng, trial)
            nodes = tree_nodes(build_tree(emp, grid, rect))
            for (lev, ix), m in nodes.items():
                if lev == 0:
                    continue
                kid_sum = sum(
                    nodes.get((lev - 1, ch.index), 0.0)
                    for ch in DyadicRect(lev, ix).children()
                )
                assert m == pytest.approx(kid_sum, abs=1e-12)

    def test_visits_scale_linearly_in_support(self, rng):
        d = Domain.discrete(256, 2)
        grid = GridSpec.uniform(d, 256)
        sizes = [200, 400, 800]
        visits = []
        for s in sizes:
            emp = random_empirical(make_rng(99), d, s)
            tree = build_tree(emp, grid, grid.root())
            visits.append(tree.node_visits)
            c = tree.node_visits / (4 * emp.support_size * grid.levels)
            print(f"visit constant at s={s}: C={c:.3f}")
            assert c <= 0.7  # visits <= C * 2^d * s * log M; the build measures 0.52-0.67
        for a, b in zip(visits, visits[1:]):
            assert b <= 2.0 * a * 1.2
            assert b >= a  # more support never costs less

    def test_index_build_counted_once_in_the_view_that_makes_it(self, rng):
        # a standalone build counts what the first view of an up-front index
        # counts; later views count only their own search
        for trial in range(12):
            emp, grid, _, _ = random_instance(rng, trial)
            root = grid.root()
            index = MortonIndex(emp, grid)
            first = index.view(root)
            assert build_tree(emp, grid, root).node_visits == first.node_visits
            assert index.node_visits > 0
            search = first.node_visits - index.node_visits
            assert index.view(root).node_visits == search
            assert build_tree(emp, grid, root, index=index).node_visits == search

    def test_tree_holds_exactly_the_mass_carrying_rects(self, rng):
        from dyadhist.oracle import all_dyadic_rects

        for trial in range(20):
            emp, grid, rect, _ = random_instance(rng, trial)
            present = set(tree_nodes(build_tree(emp, grid, rect)))
            for r in all_dyadic_rects(grid):
                if not rect.contains(r):
                    continue
                m = emp.mass_in(grid.rect_of(r))
                if m > 0:
                    assert (r.level, r.index) in present
                else:
                    assert (r.level, r.index) not in present

    def test_non_dyadic_rect_rejected(self):
        emp, grid = counts_2101()
        with pytest.raises(StructureError):
            build_tree(emp, grid, DyadicRect(5, (0,)))
        with pytest.raises(StructureError):
            build_tree(emp, grid, DyadicRect(1, (7,)))


def top_level(tree):
    """The top level of each node's chain: the index's, with the last chain clipped at the tree's rectangle."""
    top = tree.index.top_level[tree.start : tree.start + tree.node_count].copy()
    top[-1:] = tree.rect.level
    return top


def chains(tree):
    """Each stored node's chain, expanded: ``(rects bottom to top, mass)``.

    The rectangles are the node at its own level and the one-child nodes
    above it up to its top level; the last node's chain ends at the
    tree's rectangle.
    """
    index, out = tree.index, []
    for i, (lev, top, m) in enumerate(zip(tree.node_level, top_level(tree), tree.node_mass)):
        cell = index.cells[index.point_of(tree.start + i)]  # the level-0 cell at which node i ends
        rects = [DyadicRect(l, tuple(int(c) >> l for c in cell)) for l in range(int(lev), int(top) + 1)]
        out.append((rects, float(m)))
    return out


def tree_nodes(tree):
    """``{(level, index): mass}`` of every rectangle of every chain of the tree."""
    return {(r.level, r.index): m for rects, m in chains(tree) for r in rects}


def chain_empty(grid, nodes, rects):
    """The largest volume of a missing child over a chain's rectangles, from the twin's nodes."""
    missing = [ch for r in rects if r.level for ch in r.children() if (ch.level, ch.index) not in nodes]
    return max((twin_volume(grid, ch) for ch in missing), default=-1.0)


def big_key_instances():
    """Grids where d * log2(M) exceeds 62, some with zero-width cells."""
    out = []
    for i, (dim, M) in enumerate(((4, 1 << 16), (7, 512), (8, 256))):
        rng = make_rng(77 + i)
        for domain in (Domain.unit(dim), Domain.discrete(20, dim)):
            grid = random_grid(rng, domain, M, warp=True)
            pts = random_empirical(rng, domain, 10).points
            emp = EmpiricalDist.from_samples(domain, np.vstack([pts, pts[:3]]))
            out.append((emp, grid))
    return out


def twin_d1(grid, nodes, empty, rect, a):
    """compute_d1 from the twin: the largest discrepancy over its nodes below
    ``rect``, against its empty term."""
    below = [DyadicRect(*key) for key in nodes if rect.contains(DyadicRect(*key))]
    err = max((abs(nodes[(q.level, q.index)] - a * twin_volume(grid, q)) for q in below), default=-1.0)
    return max(err, a * empty.get((rect.level, rect.index), twin_volume(grid, rect)))


class TestMortonIndex:
    def check_views(self, emp, grid, pick=None):
        """Views of the root's index against standalone builds and the twin.

        ``pick`` chooses the rectangles to view from the twin's nodes; by
        default every dyadic rectangle of the grid is viewed.
        """
        index = MortonIndex(emp, grid)
        nodes, empty = reference_tree(emp, grid, grid.root())
        rects = all_dyadic_rects(grid) if pick is None else pick(nodes)
        clipped = 0
        for r in rects:
            view = build_tree(emp, grid, r, index=index)
            alone = build_tree(emp, grid, r)
            want = {key: m for key, m in nodes.items() if r.contains(DyadicRect(*key))}
            best = empty.get((r.level, r.index), grid.volume_of(r))
            for tree in (view, alone):
                expanded = chains(tree)
                assert tree_nodes(tree) == want, r
                assert sum(len(rects) for rects, _ in expanded) == len(want), r  # the chains do not overlap
                # the chain's bottom and top volumes, and its largest missing child
                assert tree.node_vol.tolist() == [twin_volume(grid, rects[0]) for rects, _ in expanded], r
                assert tree.top_vol.tolist() == [twin_volume(grid, rects[-1]) for rects, _ in expanded], r
                want_empty = [chain_empty(grid, nodes, rects) for rects, _ in expanded]
                assert tree.node_empty.tolist() == want_empty, r
                assert tree.max_empty_vol == best, r
                if tree.node_count:
                    assert expanded[-1][0][-1] == r  # post-order: the chain that r sits in is last
            if view.node_count:
                clipped += top_level(view)[-1] < index.top_level[view.start + view.node_count - 1]
            assert np.array_equal(top_level(view), top_level(alone)), r
            for name in ("node_level", "node_mass", "node_vol", "top_vol", "node_empty"):
                assert np.array_equal(getattr(view, name), getattr(alone, name)), (r, name)
        return clipped

    def test_views_match_standalone_builds_on_random_family(self, rng):
        clipped = 0
        for trial in range(60):
            emp, grid, _, _ = random_instance(rng, trial)
            if trial % 5 == 0:
                grid = build_adaptive_grid(emp)  # zero-width padded cells
            clipped += self.check_views(emp, grid)
        assert clipped > 20  # views whose rectangle sits inside a chain, which they clip

    def test_views_match_when_keys_need_several_words(self):
        def pick(nodes):
            rects = [DyadicRect(*key) for key in sorted(nodes)][::3]
            return rects + [ch for r in rects[::5] if r.level for ch in r.children()[::9]]

        clipped = 0
        for emp, grid in big_key_instances():
            assert grid.dim * grid.levels > 62
            clipped += self.check_views(emp, grid, pick)
        assert clipped > 0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_morton_words_match_the_bit_loop_twin(self, dim):
        # several words once dim * levels > 63; up to 62 levels, so every cell fits in int64
        rng, per_word = make_rng(40 + dim), 63 // dim
        depths = (0, 1, 7, 8, 9, 16, per_word, per_word + 1, 2 * per_word + 3, 62)
        for levels in sorted({min(62, n) for n in depths}):
            cells = rng.integers(0, 1 << levels, size=(300, dim))
            cells[0], cells[1] = 0, (1 << levels) - 1  # the first and the last cell
            cols = [cells[:, a] for a in range(dim)]
            words, want = _morton_words(cols, levels), morton_twin(cols, levels)
            assert len(words) == len(want) == max(1, -(-levels // per_word))
            assert all(np.array_equal(w, t) for w, t in zip(words, want)), levels
            for lev in range(levels + 1):  # the key of the last cell of each cell's level-lev rectangle
                last = [c | ((1 << lev) - 1) for c in cols]
                assert all(np.array_equal(w, t) for w, t in zip(_ones_below(words, lev, levels, dim),
                                                                 morton_twin(last, levels))), (levels, lev)
            for row in cells[:40].tolist():  # the Python ints that ``run`` passes
                words = _morton_words(row, levels)
                assert words == morton_twin(row, levels) and all(type(w) is int for w in words), (levels, row)
                lev = int(rng.integers(levels + 1))
                last = [c | ((1 << lev) - 1) for c in row]
                assert _ones_below(words, lev, levels, dim) == morton_twin(last, levels), (levels, lev)

    def test_index_is_bound_to_its_samples_and_grid(self):
        emp, grid = counts_2101()
        index = MortonIndex(emp, grid)
        other = EmpiricalDist(emp.domain, emp.points, emp.counts)
        with pytest.raises(ValueError):
            build_tree(other, grid, DyadicRect(0, (0,)), index=index)
        with pytest.raises(ValueError):
            build_tree(emp, GridSpec.uniform(emp.domain, 4), DyadicRect(0, (0,)), index=index)

    def test_discrepancy_through_views_matches_brute_force(self, rng):
        for trial in range(150):
            emp, grid, _, a = random_instance(rng, trial)
            index = MortonIndex(emp, grid)
            for r in all_dyadic_rects(grid)[:: max(1, trial % 4)]:
                tree = build_tree(emp, grid, r, index=index)
                assert compute_d1(tree, a) == pytest.approx(brute_d1(emp, grid, r, a), abs=1e-12), (trial, r)

    def test_discrepancy_on_grids_with_holes_and_a_warped_grid(self):
        # uniform discrete grids with a point in every cell but a few, where
        # the largest empty rectangles are level-0 cells missing from several
        # level-1 nodes, and a warped grid where the level-0 cell (2,2) and
        # the level-1 rectangle (1,0) are both empty with the largest volume
        cases = []
        for m, holes in ((8, [(1, 1), (0, 2), (3, 3), (5, 6), (7, 0)]),
                         (4, [(1, 1, 1), (0, 0, 2), (3, 2, 0), (2, 3, 3)])):
            dim = len(holes[0])
            domain = Domain.discrete(m, dim)
            cells = {tuple(c) for c in np.ndindex(*(m,) * dim)} - set(holes)
            pts = np.array(sorted(cells)) + 1
            emp = EmpiricalDist.from_samples(domain, np.vstack([pts, pts[::7]]))
            cases.append((emp, GridSpec.uniform(domain, m)))
        domain = Domain.discrete(5, 2)
        grid = GridSpec(domain, (np.array([1, 1, 2, 6, 6.0]), np.array([1, 2, 3, 5, 6.0])))
        pts = np.array([[1, 2], [4, 5], [4, 5], [1, 5], [1, 3]])
        cases.append((EmpiricalDist.from_samples(domain, pts), grid))
        for emp, grid in cases:
            self.check_views(emp, grid)
            nodes, empty = reference_tree(emp, grid, grid.root())
            for r in all_dyadic_rects(grid):
                tree = build_tree(emp, grid, r)
                for a in (0.5 / emp.n, 1.0 / emp.n, 0.05):
                    err = compute_d1(tree, a)
                    assert err == brute_d1(emp, grid, r, a) == twin_d1(grid, nodes, empty, r, a), (r, a)

    def test_discrepancy_inside_zero_width_chains(self):
        # warped grids with far more cells than lattice values have many
        # zero-width halves, so volumes repeat up a chain: its discrepancy
        # and its missing children then tie across its levels
        disc_ties = disc_above_bottom = empty_ties = 0
        for seed in range(60):
            rng = make_rng(63_000 + seed)
            dim = 1 + seed % 2
            domain = Domain.discrete(4, dim)
            grid = random_grid(rng, domain, 32 if dim == 1 else 8, warp=True)
            emp = random_empirical(rng, domain, int(rng.integers(1, 6)))
            index = MortonIndex(emp, grid)
            nodes, empty = reference_tree(emp, grid, grid.root())
            for r in all_dyadic_rects(grid):
                tree = build_tree(emp, grid, r, index=index)
                expanded = chains(tree)
                for a in (0.0, 0.1, 0.5, 2.0):
                    err = compute_d1(tree, a)
                    assert err == brute_d1(emp, grid, r, a) == twin_d1(grid, nodes, empty, r, a), (seed, r, a)
                    for rects, m in expanded:
                        tied = [q for q in rects if abs(m - a * twin_volume(grid, q)) == err]
                        disc_ties += len(tied) > 1
                        disc_above_bottom += any(q != rects[0] for q in tied)
                for rects, _ in expanded:
                    levels = {
                        q.level for q in rects if q.level
                        for ch in q.children()
                        if (ch.level, ch.index) not in nodes and twin_volume(grid, ch) == tree.max_empty_vol
                    }
                    empty_ties += len(levels) > 1
        counts = (disc_ties, disc_above_bottom, empty_ties)
        assert disc_ties > 500 and disc_above_bottom > 10 and empty_ties > 50, counts


def benchmark_sized_index(dim, n):
    """The index of the learner on ``n`` samples of the benchmark's truth in [0,1]^dim, built."""
    emp = sample_from(gen_truth(5, Domain.unit(dim), seed=11), n, seed=3)
    grid = build_adaptive_grid(emp)
    index = MortonIndex(emp, grid)
    return index, grid


class TestIndexSize:
    """Machine-independent guards on what the compressed index stores."""

    @pytest.mark.parametrize("dim, n", [(1, 30_000), (2, 40_000), (3, 20_000)])
    def test_at_most_two_stored_nodes_per_point(self, dim, n):
        index, grid = benchmark_sized_index(dim, n)
        tree = index.view(grid.root())
        s = len(index.rows)
        assert tree.node_count == len(index.level) <= 2 * s + 1  # the cells and the branching nodes
        levels = int((top_level(tree) - tree.node_level + 1).sum())  # one per level of every chain
        if dim > 1:
            assert levels > 4 * tree.node_count  # most of the tree sits on one-child chains
        else:
            assert levels < 1.01 * tree.node_count  # nearly every node of the d=1 tree branches

    def test_build_peak_within_half_again_what_it_keeps(self):
        # the build's temporaries are worked on in blocks, and its lists
        # are freed as the node arrays fill, so its peak stays near what
        # the index keeps
        index, grid = benchmark_sized_index(2, 40_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tree = index.view(grid.root())
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.node_count > 40_000
        assert peak - base <= 1.5 * (kept - base), (peak - base, kept - base)


class TestComputeD1:
    def test_uniform_data_fits_exactly(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2], [3], [4]]))
        grid = GridSpec.uniform(d, 4)
        assert compute_d1(build_tree(emp, grid, grid.root()), 0.25) == 0.0

    def test_hand_derived_instance(self):
        emp, grid = counts_2101()
        assert compute_d1(build_tree(emp, grid, grid.root()), 0.25) == 0.25

    def test_empty_region_b2_branch(self):
        emp, grid = counts_2101()
        rect = DyadicRect(0, (2,))  # cell {3} holds no samples
        assert compute_d1(build_tree(emp, grid, rect), 0.5) == 0.5 * 1

    @pytest.mark.parametrize("a", [-0.1, math.nan])
    @pytest.mark.parametrize("d1", [
        lambda emp, grid, a: compute_d1(build_tree(emp, grid, grid.root()), a),
        lambda emp, grid, a: brute_d1(emp, grid, grid.root(), a),
    ], ids=["compute_d1", "brute_d1"])
    def test_negative_constant_rejected(self, d1, a):
        emp, grid = counts_2101()
        with pytest.raises(ValueError, match="constant a must be nonnegative"):
            d1(emp, grid, a)

    def test_matches_brute_force_on_random_family(self, rng):
        # both return a plain float: on an empty tree (the half {1,2} of a
        # point mass at {4}), on a tree of one chain (a point mass at {3},
        # from its cell up to the root) and on every random instance
        d = Domain.discrete(4, 1)
        grid = GridSpec.uniform(d, 4)
        at4 = EmpiricalDist(d, np.array([[4]]), np.array([1]))
        at3 = EmpiricalDist(d, np.array([[3]]), np.array([1]))
        for emp, rect, a, want in ((at4, DyadicRect(1, (0,)), 0.5, 1.0), (at3, grid.root(), 0.0, 1.0)):
            err, berr = compute_d1(build_tree(emp, grid, rect), a), brute_d1(emp, grid, rect, a)
            assert type(err) is type(berr) is float and err == berr == want
        for trial in range(300):
            emp, grid, rect, a = random_instance(rng, trial)
            err, berr = compute_d1(build_tree(emp, grid, rect), a), brute_d1(emp, grid, rect, a)
            assert type(err) is type(berr) is float
            assert err == pytest.approx(berr, abs=1e-12), trial

    def test_monotone_under_domain_growth(self, rng):
        for trial in range(40):
            emp, grid, rect, a = random_instance(rng, trial)
            if rect.level == 0:
                continue
            err_parent = compute_d1(build_tree(emp, grid, rect), a)
            for child in rect.children():
                err_child = compute_d1(build_tree(emp, grid, child), a)
                assert err_child <= err_parent + 1e-15


class TestFitD1:
    def test_constant_data_exact(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2], [3], [4]]))
        grid = GridSpec.uniform(d, 4)
        fit = fit_d1(build_tree(emp, grid, grid.root()))
        assert fit.a == 0.25
        assert fit.err == 0.0

    def test_hand_derived_instance(self):
        emp, grid = counts_2101()
        fit = fit_d1(build_tree(emp, grid, grid.root()))
        assert fit.a == pytest.approx(0.25, abs=0)
        assert fit.err == pytest.approx(0.25, abs=0)

    def test_empty_region(self):
        emp, grid = counts_2101()
        fit = fit_d1(build_tree(emp, grid, DyadicRect(0, (2,))))  # cell {3} holds no samples
        assert fit.a == 0.0
        assert fit.err == 0.0

    def test_crossing_is_rounded_once(self):
        # the fit stops where the line of cell {8} (mass 7/20, volume 1),
        # active in D, crosses the root's line (mass 1, volume 8), active in
        # I.  The crossing is the one float expression (m_p + m_q) / (v_p + v_q),
        # which lands an ulp above 0.15, where the exact crossing, a product
        # with the reciprocal and a sum of two quotients all round; the
        # golden digests depend on it.
        d = Domain.discrete(8, 1)
        emp = EmpiricalDist(d, np.array([[1], [3], [5], [8]]), np.array([6, 4, 3, 7]))
        grid = GridSpec.uniform(d, 8)
        tree = build_tree(emp, grid, grid.root())
        m, v = tree.node_mass, tree.node_vol
        p = int(np.flatnonzero((m == 0.35) & (v == 1.0))[0])
        q = tree.node_count - 1  # the root, last in post-order
        assert (m[q], v[q], tree.top_vol[q]) == (1.0, 8.0, 8.0)
        fit = fit_d1(tree)
        assert fit.a == (m[p] + m[q]) / (v[p] + v[q]) == math.nextafter(0.15, 1.0)
        assert float((Fraction(m[p]) + Fraction(m[q])) / (Fraction(v[p]) + Fraction(v[q]))) == 0.15
        assert (m[p] + m[q]) * (1 / (v[p] + v[q])) == m[p] / (v[p] + v[q]) + m[q] / (v[p] + v[q]) == 0.15
        # the two lines are the active ones: D reads the chains' bottoms, I their tops
        assert (m - fit.a * v).argmax() == p and (m - fit.a * tree.top_vol).argmin() == q
        assert fit.err == compute_d1(tree, fit.a)

    def test_exact_without_a_tolerance(self):
        emp, grid = counts_2101()
        tree = build_tree(emp, grid, grid.root())
        with pytest.raises(TypeError):
            fit_d1(tree, 1e-6)  # the fit takes no tolerance
        fit = fit_d1(tree)
        lines = reference_lines(grid, grid.root(), reference_tree(emp, grid, grid.root()))
        assert fit.err == exact_fit_minimum(*lines)
        assert fit.probes <= 16

    def test_no_worse_than_dense_scan(self, rng):
        # the twin's objective over a dense grid of constants, in one numpy
        # pass; compute_d1 gives the same value bit for bit on a sample of them
        step = 1e-4
        for trial in range(12):
            emp, grid, rect, _ = random_instance(rng, trial)
            vol = grid.volume_of(rect)
            if vol <= 0:
                continue
            tree = build_tree(emp, grid, rect)
            fit = fit_d1(tree)
            if tree.node_count == 0:
                assert fit.err == 0.0
                continue
            m, v, ev = reference_lines(grid, rect, reference_tree(emp, grid, rect))
            dens = m[v > 0] / v[v > 0]
            hi = float(dens.max()) if len(dens) else 0.0
            a = np.arange(0.0, hi + step, step / (4 * vol))
            f = fit_objective(m, v, ev, a)
            assert fit.err <= f.min() + 1e-15
            for i in np.r_[np.linspace(0, len(a) - 1, 64).astype(int), f.argmin()]:
                assert compute_d1(tree, float(a[i])) == f[i], (trial, a[i])

    def test_rounding_fallback_keeps_the_best_probe(self):
        # one stored node whose chain top's volume is its bottom's plus its
        # missing child's: the first probe, mass/top volume, is the optimum,
        # and the second one's crossing of the bottom's line with the empty
        # term rounds past the bracket at that same constant, so the fit
        # stops there and keeps the first
        rng = make_rng(901900)
        pts = random_points(rng, Domain.unit(2), int(rng.integers(1, 30)))
        pts[::3, 0] = 1.0
        emp = EmpiricalDist.from_samples(Domain.unit(2), pts)
        grid = build_adaptive_grid(emp)
        index = MortonIndex(emp, grid)
        twin = reference_tree(emp, grid, grid.root())
        for rect in (DyadicRect(1, (3, 6)), DyadicRect(1, (7, 4))):
            lines = reference_lines(grid, rect, twin)
            for tree in (build_tree(emp, grid, rect, index=index), build_tree(emp, grid, rect)):
                fit = fit_d1(tree)
                assert (tree.node_count, fit.probes) == (1, 2), rect
                assert fit.err == exact_fit_minimum(*lines) == compute_d1(tree, fit.a), rect

    def test_exact_on_larger_random_trees(self):
        # up to 3-D, 160 points and 64 cells per axis, with warped and
        # adaptive grids (whose padding cells have zero width)
        worst = 0.0
        for trial in range(60):
            rng = make_rng(61_000 + trial)
            dim = 1 + trial % 3
            m = int(rng.choice([16, 64])) if dim < 3 else 8
            domain = Domain.unit(dim) if trial % 2 else Domain.discrete(m, dim)
            adaptive = trial % 4 == 1  # at most 80 points: its trees are deep
            emp = random_empirical(rng, domain, int(rng.integers(20, 81 if adaptive else 161)))
            if adaptive:
                grid = build_adaptive_grid(emp)
            else:
                grid = random_grid(rng, domain, m, warp=trial % 4 == 3)
            lev = int(rng.integers(max(0, grid.levels - 2), grid.levels + 1))
            rect = DyadicRect(lev, tuple(int(i) for i in rng.integers(grid.M >> lev, size=dim)))
            tree = build_tree(emp, grid, rect)
            fit = fit_d1(tree)
            lines = reference_lines(grid, rect, reference_tree(emp, grid, rect))
            worst = max(worst, fit.err - exact_fit_minimum(*lines))
            assert fit.err == compute_d1(tree, fit.a)
        assert worst <= 1e-12

    def test_exact_on_every_golden_leaf(self):
        # every scored leaf of the L1 golden runs, through one shared
        # index as the learner uses it: err is compute_d1 at the returned
        # constant, bit for bit, and (up to 200 nodes) the exact minimum
        from test_golden import sweep_cases

        checked = exact = zero_width = 0
        for name, thunk in sweep_cases():
            if name.startswith("l2-"):
                continue
            emp, *rest = thunk.__defaults__
            grid = rest[0] if len(rest) == 2 else build_adaptive_grid(emp)
            index = MortonIndex(emp, grid)
            twin = reference_tree(emp, grid, grid.root())
            _, trace = thunk()
            for rect in sorted(trace.scores):
                tree = build_tree(emp, grid, rect, index=index)
                fit = fit_d1(tree)
                assert fit.err == compute_d1(tree, fit.a), (name, rect)
                checked += 1
                zero_width += grid.volume_of(rect) == 0
                lines = reference_lines(grid, rect, twin)
                if len(lines[0]) <= 200:
                    assert fit.err <= exact_fit_minimum(*lines) + 1e-12, (name, rect)
                    exact += 1
        assert checked > 1400 and exact > 1000 and zero_width > 0

    def test_err_is_compute_d1_at_a_on_random_families(self):
        # d = 1-3 on uniform, warped and adaptive grids.  Warped discrete
        # and adaptive grids have zero-width cells; on [0,1]^d a fixed grid
        # gets a zero-width top cell on axis 0, where samples at 1.0 land.
        # Empty rectangles and zero-volume ones holding mass take the
        # a = 0 path.
        kinds = {"empty": 0, "zero volume": 0, "kelley": 0}
        shapes = itertools.product(range(3), (1, 2, 3), ("uniform", "warped", "adaptive"), (False, True))
        for trial, (_, dim, kind, unit) in enumerate(shapes):
            rng = make_rng(62_000 + trial)
            m = 8 if dim == 3 else 16
            domain = Domain.unit(dim) if unit else Domain.discrete(m, dim)
            pts = random_points(rng, domain, int(rng.integers(1, 41)))
            if unit:
                pts[::3, 0] = 1.0
            emp = EmpiricalDist.from_samples(domain, pts)
            if kind == "adaptive":
                grid = build_adaptive_grid(emp)
            else:
                grid = random_grid(rng, domain, m, warp=kind == "warped")
                if unit:
                    top = np.r_[grid.axes[0][:-2], 1.0, 1.0]
                    grid = GridSpec(domain, (top,) + grid.axes[1:])
            index = MortonIndex(emp, grid)
            cells = grid.cell_index(emp.points)
            rects = set()
            for lev in range(grid.levels + 1):  # every node, and some rects picked at random
                picks = np.vstack([cells >> lev, rng.integers(grid.M >> lev, size=(8, dim))])
                rects |= {DyadicRect(lev, tuple(int(i) for i in p)) for p in picks}
            for r in sorted(rects):
                tree = build_tree(emp, grid, r, index=index)
                fit = fit_d1(tree)
                assert fit.err == compute_d1(tree, fit.a), (trial, r)
                if tree.node_count == 0:
                    kinds["empty"] += 1
                elif grid.volume_of(r) == 0:
                    kinds["zero volume"] += 1
                else:
                    kinds["kelley"] += 1
        assert min(kinds.values()) > 20, kinds

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 4.0))
    def test_no_constant_does_better(self, seed, scale):
        emp, grid, rect, _ = random_instance(make_rng(seed), seed)
        vol = grid.volume_of(rect)
        a = scale / vol if vol > 0 else scale
        tree = build_tree(emp, grid, rect)
        fit = fit_d1(tree)
        assert fit.err <= compute_d1(tree, a) + 1e-12


class TestBruteD1:
    def test_guard(self):
        d = Domain.discrete(1024, 2)
        emp = EmpiricalDist(d, np.array([[1, 1]]), np.array([1]))
        grid = GridSpec.uniform(d, 1024)
        with pytest.raises(OracleGuardError):
            brute_d1(emp, grid, grid.root(), 0.1)

    def test_empty_with_zero_constant(self):
        emp, grid = counts_2101()
        assert brute_d1(emp, grid, DyadicRect(0, (2,)), 0.0) == 0.0  # cell {3} holds no samples
