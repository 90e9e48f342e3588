"""Sparse dyadic trees, max-discrepancy computation, and the constant fit."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadhist.core import Domain, DyadicRect, EmpiricalDist, GridSpec
from dyadhist.ddist import MortonIndex, brute_d1, build_tree, compute_d1, fit_d1
from dyadhist.errors import OracleGuardError, StructureError

from dyadhist.oracle import all_dyadic_rects
from dyadhist.split import build_adaptive_grid

from conftest import exact_fit_minimum, make_rng, random_empirical, random_grid, random_points


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
        assert tree.empty_witness == rect

    def test_single_point_path_of_nodes(self):
        d = Domain.discrete(8, 1)
        emp = EmpiricalDist(d, np.array([[5]]), np.array([1]))
        tree = build_tree(emp, GridSpec.uniform(d, 8), DyadicRect(3, (0,)))
        assert tree.node_count == 4  # one node per level 3..0

    def test_two_points_in_different_root_children(self):
        d = Domain.discrete(2, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2]]))
        tree = build_tree(emp, GridSpec.uniform(d, 2), DyadicRect(1, (0,)))
        assert tree.node_count == 3  # root + two leaves

    def test_parent_counts_are_sums_of_children(self, rng):
        for trial in range(25):
            emp, grid, rect, _ = random_instance(rng, trial)
            tree = build_tree(emp, grid, rect)
            nodes = {
                (int(l), tuple(map(int, ix))): m
                for l, ix, m in zip(tree.node_level, tree.node_index, tree.node_mass)
            }
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

    def test_tree_holds_exactly_the_mass_carrying_rects(self, rng):
        from dyadhist.oracle import all_dyadic_rects

        for trial in range(20):
            emp, grid, rect, _ = random_instance(rng, trial)
            tree = build_tree(emp, grid, rect)
            present = {
                (int(l), tuple(map(int, ix)))
                for l, ix in zip(tree.node_level, tree.node_index)
            }
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


def reference_tree(emp, grid, root):
    """Plain-Python twin of the index below ``root``.

    Returns ``(nodes, empty)``: ``{(level, index): mass}`` of the rectangles
    holding mass, and ``{(level, index): (vol, witness)}`` giving, for each
    of them, the largest empty rectangle below it: the largest volume, then
    least (level, index), over the missing children of its subtree.
    """
    counts = {}
    for cell, k in zip(grid.cell_index(emp.points), emp.counts):
        cell = tuple(int(c) for c in cell)
        if tuple(c >> root.level for c in cell) != root.index:
            continue
        for lev in range(root.level + 1):
            key = (lev, tuple(c >> lev for c in cell))
            counts[key] = counts.get(key, 0) + int(k)
    nodes = {key: c / emp.n for key, c in counts.items()}
    axes = [a.tolist() for a in grid.axes]

    def volume(r):
        v = 1.0
        for b, i in zip(axes, r.index):
            v *= b[(i + 1) << r.level] - b[i << r.level]
        return v

    empty = {}
    for lev, idx in sorted(nodes):  # children before parents
        best = None
        if lev > 0:
            for ch in DyadicRect(lev, idx).children():
                key = (ch.level, ch.index)
                cand = empty[key] if key in nodes else (volume(ch), ch)
                if cand is not None and (
                    best is None or (-cand[0], cand[1]) < (-best[0], best[1])
                ):
                    best = cand
        empty[(lev, idx)] = best
    return nodes, empty


def root_empty_ties(emp, grid):
    """The largest empty rectangles below the root, from the twin.

    Returns ``(levels, morton_first, least)``: the levels they sit on, the
    missing child of the first tied node of least level in Morton order
    (axis 0 first), and the least one by (level, index).
    """
    nodes, _ = reference_tree(emp, grid, grid.root())
    missing = [
        (grid.volume_of(ch), DyadicRect(lev, idx), ch)
        for lev, idx in nodes
        if lev > 0
        for ch in DyadicRect(lev, idx).children()
        if (ch.level, ch.index) not in nodes
    ]
    top = max(vol for vol, _, _ in missing)
    tied = [(parent, ch) for vol, parent, ch in missing if vol == top]
    least = min(ch for _, ch in tied)

    def morton(r):
        key = 0
        for b in range(grid.levels - r.level, -1, -1):
            for i in r.index:
                key = (key << 1) | ((i >> b) & 1)
        return key

    first = min((p for p, _ in tied if p.level == least.level + 1), key=morton)
    morton_first = min(ch for p, ch in tied if p == first)
    return {ch.level for _, ch in tied}, morton_first, least


def tree_nodes(tree):
    return {
        (int(l), tuple(int(v) for v in ix)): float(m)
        for l, ix, m in zip(tree.node_level, tree.node_index, tree.node_mass)
    }


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


class TestMortonIndex:
    def check_views(self, emp, grid, pick=None):
        """Views of the root's index against standalone builds and the twin.

        ``pick`` chooses the rectangles to view from the twin's nodes; by
        default every dyadic rectangle of the grid is viewed.
        """
        index = MortonIndex(emp, grid, grid.root())
        nodes, empty = reference_tree(emp, grid, grid.root())
        rects = all_dyadic_rects(grid) if pick is None else pick(nodes)
        for r in rects:
            view = build_tree(emp, grid, r, index=index)
            alone = build_tree(emp, grid, r)
            want = {key: m for key, m in nodes.items() if r.contains(DyadicRect(*key))}
            best = empty.get((r.level, r.index), (grid.volume_of(r), r))
            for tree in (view, alone):
                assert tree_nodes(tree) == want, r
                assert (tree.max_empty_vol, tree.empty_witness) == (best or (-1.0, None)), r
                assert tree.node_level.tolist() == [tree.node_at(i).level for i in range(tree.node_count)]
                if tree.node_count:
                    assert tree.node_at(tree.node_count - 1) == r  # post-order: the root is last
            assert np.array_equal(view.node_mass, alone.node_mass), r
            assert np.array_equal(view.node_vol, alone.node_vol), r

    def test_views_match_standalone_builds_on_random_family(self, rng):
        for trial in range(60):
            emp, grid, _, _ = random_instance(rng, trial)
            if trial % 5 == 0:
                grid = build_adaptive_grid(emp)  # zero-width padded cells
            self.check_views(emp, grid)

    def test_views_match_when_keys_need_several_words(self):
        def pick(nodes):
            rects = [DyadicRect(*key) for key in sorted(nodes)][::3]
            return rects + [ch for r in rects[::5] if r.level for ch in r.children()[::9]]

        for emp, grid in big_key_instances():
            assert grid.dim * grid.levels > 62
            self.check_views(emp, grid, pick)

    def test_index_is_bound_to_its_samples_and_root(self):
        emp, grid = counts_2101()
        index = MortonIndex(emp, grid, DyadicRect(1, (0,)))
        with pytest.raises(StructureError):
            build_tree(emp, grid, DyadicRect(1, (1,)), index=index)
        other = EmpiricalDist(emp.domain, emp.points, emp.counts)
        with pytest.raises(ValueError):
            build_tree(other, grid, DyadicRect(0, (0,)), index=index)

    def test_discrepancy_through_views_matches_brute_force(self, rng):
        for trial in range(150):
            emp, grid, _, a = random_instance(rng, trial)
            index = MortonIndex(emp, grid, grid.root())
            for r in all_dyadic_rects(grid)[:: max(1, trial % 4)]:
                tree = build_tree(emp, grid, r, index=index)
                err, wit = compute_d1(emp, grid, r, a, tree=tree)
                berr, bwit = brute_d1(emp, grid, r, a)
                assert err == pytest.approx(berr, abs=1e-12), (trial, r)
                wd = abs(emp.mass_in(grid.rect_of(wit)) - a * grid.volume_of(wit))
                bd = abs(emp.mass_in(grid.rect_of(bwit)) - a * grid.volume_of(bwit))
                assert wd == pytest.approx(bd, abs=1e-12), (trial, r)

    def test_empty_witness_ties_on_uniform_and_warped_grids(self):
        # uniform discrete grids with a point in every cell but a few: every
        # node above level 1 is present, so the largest empty rectangles are
        # level-0 cells, missing children of several level-1 nodes.  At d=2
        # the first of those in Morton order, (0,0), misses (1,1), and the
        # least empty cell, (0,2), is a child of (0,1); likewise at d=3.
        cases = []
        for m, holes in ((8, [(1, 1), (0, 2), (3, 3), (5, 6), (7, 0)]),
                         (4, [(1, 1, 1), (0, 0, 2), (3, 2, 0), (2, 3, 3)])):
            dim = len(holes[0])
            domain = Domain.discrete(m, dim)
            cells = {tuple(c) for c in np.ndindex(*(m,) * dim)} - set(holes)
            pts = np.array(sorted(cells)) + 1
            emp = EmpiricalDist.from_samples(domain, np.vstack([pts, pts[::7]]))
            cases.append((emp, GridSpec.uniform(domain, m)))
        # a warped grid where the level-0 cell (2,2) and the level-1
        # rectangle (1,0) are both empty with the largest volume, 8
        domain = Domain.discrete(5, 2)
        grid = GridSpec(domain, (np.array([1, 1, 2, 6, 6.0]), np.array([1, 2, 3, 5, 6.0])))
        pts = np.array([[1, 2], [4, 5], [4, 5], [1, 5], [1, 3]])
        cases.append((EmpiricalDist.from_samples(domain, pts), grid))
        ties = []
        for emp, grid in cases:
            ties.append(root_empty_ties(emp, grid))
            self.check_views(emp, grid)
            for r in all_dyadic_rects(grid):
                tree = build_tree(emp, grid, r)
                for a in (0.5 / emp.n, 1.0 / emp.n, 0.05):
                    assert compute_d1(emp, grid, r, a, tree=tree) == brute_d1(emp, grid, r, a), (r, a)
        # the first two: the first tied node in Morton order does not own
        # the least child; the third: the tie spans two levels, and the
        # least index is not on the least level
        (lev2, morton2, least2), (lev3, morton3, least3), (levw, _, leastw) = ties
        assert lev2 == {0} and morton2 != least2 and lev3 == {0} and morton3 != least3
        assert levw == {0, 1} and leastw == DyadicRect(0, (2, 2))

    def test_discrepancy_ties_pick_least_level_then_index(self):
        # three cells holding one point each: near a = 1/16 their level-0
        # nodes tie for the maximum.  Morton order puts cell (1,0) first;
        # the lexicographically least is (0,3).
        d = Domain.discrete(4, 2)
        emp = EmpiricalDist(d, np.array([[1, 4], [2, 1], [4, 4]]), np.array([1, 1, 1]))
        grid = GridSpec.uniform(d, 4)
        for a in (1 / 16, 0.06):
            err, wit = compute_d1(emp, grid, grid.root(), a)
            assert wit == DyadicRect(0, (0, 3))
            assert (err, wit) == brute_d1(emp, grid, grid.root(), a)


class TestComputeD1:
    def test_uniform_data_fits_exactly(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2], [3], [4]]))
        grid = GridSpec.uniform(d, 4)
        err, _ = compute_d1(emp, grid, grid.root(), 0.25)
        assert err == 0.0

    def test_hand_derived_instance(self):
        emp, grid = counts_2101()
        err, wit = compute_d1(emp, grid, grid.root(), 0.25)
        assert err == pytest.approx(0.25, abs=0)
        assert wit == DyadicRect(0, (0,))  # lexicographically least witness

    def test_empty_region_b2_branch(self):
        emp, grid = counts_2101()
        empty = EmpiricalDist(Domain.discrete(4, 1), np.zeros((0, 1)), np.zeros(0))
        err, wit = compute_d1(empty, grid, grid.root(), 0.5)
        assert err == pytest.approx(0.5 * 4, abs=0)
        assert wit == grid.root()

    def test_negative_constant_rejected(self):
        emp, grid = counts_2101()
        with pytest.raises(ValueError):
            compute_d1(emp, grid, grid.root(), -0.1)

    def test_matches_brute_force_on_random_family(self, rng):
        for trial in range(300):
            emp, grid, rect, a = random_instance(rng, trial)
            err, wit = compute_d1(emp, grid, rect, a)
            berr, bwit = brute_d1(emp, grid, rect, a)
            assert err == pytest.approx(berr, abs=1e-12), trial
            wd = abs(emp.mass_in(grid.rect_of(wit)) - a * grid.volume_of(wit))
            bd = abs(emp.mass_in(grid.rect_of(bwit)) - a * grid.volume_of(bwit))
            assert wd == pytest.approx(bd, abs=1e-12), trial

    def test_monotone_under_domain_growth(self, rng):
        for trial in range(40):
            emp, grid, rect, a = random_instance(rng, trial)
            if rect.level == 0:
                continue
            err_parent, _ = compute_d1(emp, grid, rect, a)
            for child in rect.children():
                err_child, _ = compute_d1(emp, grid, child, a)
                assert err_child <= err_parent + 1e-15


class TestFitD1:
    def test_constant_data_exact(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2], [3], [4]]))
        grid = GridSpec.uniform(d, 4)
        fit = fit_d1(emp, grid, grid.root())
        assert fit.a == 0.25
        assert fit.err == 0.0

    def test_hand_derived_instance(self):
        emp, grid = counts_2101()
        fit = fit_d1(emp, grid, grid.root())
        assert fit.a == pytest.approx(0.25, abs=0)
        assert fit.err == pytest.approx(0.25, abs=0)

    def test_empty_region(self):
        d = Domain.discrete(4, 1)
        empty = EmpiricalDist(d, np.zeros((0, 1)), np.zeros(0))
        grid = GridSpec.uniform(d, 4)
        fit = fit_d1(empty, grid, grid.root())
        assert fit.a == 0.0
        assert fit.err == 0.0

    def test_exact_without_a_tolerance(self):
        emp, grid = counts_2101()
        with pytest.raises(TypeError):
            fit_d1(emp, grid, grid.root(), 1e-6)  # the fit takes no tolerance
        tree = build_tree(emp, grid, grid.root())
        fit = fit_d1(emp, grid, grid.root(), tree=tree)
        assert fit.err == exact_fit_minimum(tree)
        assert fit.probes <= 16

    def test_no_worse_than_dense_scan(self, rng):
        step = 1e-4
        for trial in range(12):
            emp, grid, rect, _ = random_instance(rng, trial)
            vol = grid.volume_of(rect)
            if vol <= 0:
                continue
            fit = fit_d1(emp, grid, rect)
            tree = build_tree(emp, grid, rect)
            if tree.node_count == 0:
                assert fit.err == 0.0
                continue
            dens = tree.node_mass[tree.node_vol > 0] / tree.node_vol[tree.node_vol > 0]
            hi = float(dens.max()) if len(dens) else 0.0
            best = np.inf
            for a in np.arange(0.0, hi + step, step / (4 * vol)):
                err, _ = compute_d1(emp, grid, rect, float(a), tree=tree)
                best = min(best, err)
            assert fit.err <= best + 1e-15

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
            fit = fit_d1(emp, grid, rect, tree=tree)
            worst = max(worst, fit.err - exact_fit_minimum(tree))
            assert fit.err == compute_d1(emp, grid, rect, fit.a, tree=tree)[0]
        assert worst <= 1e-12

    def test_exact_on_every_golden_leaf(self):
        # every leaf of every round of the L1 golden runs, through one shared
        # index as the learner uses it: err is compute_d1 at the returned
        # constant, bit for bit, and (up to 200 nodes) the exact minimum
        from test_golden import sweep_cases

        checked = exact = zero_width = 0
        for name, thunk in sweep_cases():
            if name.startswith("l2-"):
                continue
            emp, *rest = thunk.__defaults__
            grid = rest[0] if len(rest) == 2 else build_adaptive_grid(emp)
            index = MortonIndex(emp, grid, grid.root())
            _, trace = thunk()
            for rect in sorted({r for rec in trace.iterations for r in rec.leaves}):
                tree = build_tree(emp, grid, rect, index=index)
                fit = fit_d1(emp, grid, rect, tree=tree)
                assert fit.err == compute_d1(emp, grid, rect, fit.a, tree=tree)[0], (name, rect)
                checked += 1
                zero_width += grid.volume_of(rect) == 0
                if tree.node_count <= 200:
                    assert fit.err <= exact_fit_minimum(tree) + 1e-12, (name, rect)
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
            index = MortonIndex(emp, grid, grid.root())
            cells = grid.cell_index(emp.points)
            rects = set()
            for lev in range(grid.levels + 1):  # every node, and some rects picked at random
                picks = np.vstack([cells >> lev, rng.integers(grid.M >> lev, size=(8, dim))])
                rects |= {DyadicRect(lev, tuple(int(i) for i in p)) for p in picks}
            for r in sorted(rects):
                tree = build_tree(emp, grid, r, index=index)
                fit = fit_d1(emp, grid, r, tree=tree)
                assert fit.err == compute_d1(emp, grid, r, fit.a, tree=tree)[0], (trial, r)
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
        fit = fit_d1(emp, grid, rect, tree=tree)
        assert fit.err <= compute_d1(emp, grid, rect, a, tree=tree)[0] + 1e-12


class TestBruteD1:
    def test_guard(self):
        d = Domain.discrete(1024, 2)
        emp = EmpiricalDist(d, np.array([[1, 1]]), np.array([1]))
        grid = GridSpec.uniform(d, 1024)
        with pytest.raises(OracleGuardError):
            brute_d1(emp, grid, grid.root(), 0.1)

    def test_empty_with_zero_constant(self):
        d = Domain.discrete(4, 1)
        empty = EmpiricalDist(d, np.zeros((0, 1)), np.zeros(0))
        grid = GridSpec.uniform(d, 4)
        err, _ = brute_d1(empty, grid, grid.root(), 0.0)
        assert err == 0.0

    def test_point_mass_witness_is_owning_leaf(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[3]]), np.array([1]))
        grid = GridSpec.uniform(d, 4)
        err, wit = brute_d1(emp, grid, grid.root(), 0.0)
        assert err == 1.0
        assert wit == DyadicRect(0, (2,))
