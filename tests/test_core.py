"""Histogram algebra: volumes, masses, flattening, exact distances."""

import itertools
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadhist import core
from dyadhist.core import (
    Domain,
    DyadicRect,
    EmpiricalDist,
    GridSpec,
    HistHypothesis,
    HistKind,
    Piece,
    Rect,
    flatten,
    l1_dist,
    l2_sq_dist,
    mass,
    volume,
)
from dyadhist.errors import (
    ConfigurationError,
    DegenerateRegionError,
    DomainViolationError,
    StructureError,
    UnsupportedDomainError,
)
from dyadhist.cli import gen_truth
from dyadhist.fileio import read_hypothesis, write_hypothesis
from dyadhist.split import SplitParams, adaptive_greedy_split

from conftest import (
    coverage_twin,
    hypothesis_text_twin,
    lattice_points,
    make_rng,
    mass_in_twin,
    random_grid,
    random_hier_hist,
    random_partial_hist,
    random_points,
    raster_twin,
    total_mass_twin,
    twin_volume,
)


def uniform_hist(domain):
    v = 1.0 / volume(domain.full_rect(), domain)
    return HistHypothesis(domain, (Piece(domain.full_rect(), v),), HistKind.ARBITRARY)


class TestVolume:
    def test_full_discrete_domain(self):
        d = Domain.discrete(4, 1)
        assert volume(d.full_rect(), d) == 4

    def test_unit_cube_product_of_lengths(self):
        d = Domain.unit(2)
        assert volume(Rect((0.25, 0.0), (0.75, 0.5)), d) == pytest.approx(0.25, abs=0)

    def test_lattice_box_counted_directly(self):
        d = Domain.discrete(4, 2)
        r = Rect((2, 1), (4, 5))  # {2..3} x {1..4}
        assert volume(r, d) == lattice_points(r, d) == 8

    def test_rect_outside_domain_rejected(self):
        d = Domain.discrete(4, 1)
        with pytest.raises(DomainViolationError):
            volume(Rect((0,), (3,)), d)
        with pytest.raises(DomainViolationError):
            volume(Rect((1,), (7,)), d)


NAN = float("nan")


class TestRect:
    @pytest.mark.parametrize(
        "lo, hi",
        [((0.0,), (NAN,)), ((NAN,), (1.0,)), ((0.0, NAN), (1.0, NAN)), ((0.5,), (0.25,))],
        ids=["nan-hi", "nan-lo", "nan-both", "lo-above-hi"],
    )
    def test_needs_lo_at_most_hi(self, lo, hi):
        with pytest.raises(ValueError, match="rect needs lo <= hi on every axis"):
            Rect(lo, hi)

    def test_nan_piece_refused(self):
        # taken, it would be a total hypothesis of mass 0 whose value at 0.5 is 1
        with pytest.raises(ValueError, match="lo <= hi"):
            HistHypothesis(Domain.unit(1), (Piece(Rect((0.0,), (NAN,)), 1.0),), HistKind.ARBITRARY)


class TestFlatten:
    def test_constant_is_its_own_flattening(self):
        d = Domain.unit(1)
        h = HistHypothesis(d, (Piece(d.full_rect(), 2.5),), HistKind.PARTIAL)
        assert flatten(h, Rect((0.0,), (0.4,))) == pytest.approx(2.5)

    def test_single_sample_over_four_lattice_points(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[2]]), np.array([1]))
        assert flatten(emp, d.full_rect()) == pytest.approx(0.25, abs=0)

    def test_empty_region_flattens_to_zero(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist(d, np.array([[1]]), np.array([1]))
        assert flatten(emp, Rect((3,), (5,))) == 0.0

    def test_zero_volume_rect_rejected(self):
        d = Domain.unit(1)
        emp = EmpiricalDist(d, np.array([[0.5]]), np.array([1]))
        with pytest.raises(DegenerateRegionError):
            flatten(emp, Rect((0.3,), (0.3,)))

    def test_flatten_minimizes_l2_among_constants(self, rng):
        # golden-section scan over the constant, independent of flatten()
        d = Domain.discrete(8, 1)
        grid = GridSpec.uniform(d, 8)
        for trial in range(20):
            emp = EmpiricalDist.from_samples(d, rng.integers(1, 9, size=(12, 1)))
            rect = d.full_rect()
            masses = np.zeros(8)
            for p, c in zip(emp.points, emp.counts):
                masses[p[0] - 1] += c / emp.n

            def err(a):
                return float(np.sum((masses - a) ** 2))

            lo, hi = 0.0, 1.0
            invphi = (np.sqrt(5) - 1) / 2
            for _ in range(200):
                x1 = hi - invphi * (hi - lo)
                x2 = lo + invphi * (hi - lo)
                if err(x1) <= err(x2):
                    hi = x2
                else:
                    lo = x1
            assert flatten(emp, rect) == pytest.approx((lo + hi) / 2, abs=1e-7)


def piecewise_value(h, pts) -> list:
    """Plain twin of value_at: the value of the first piece holding each point.

    None marks a point no piece of a total hypothesis holds.
    """
    out = []
    for x in np.atleast_2d(pts):
        hits = [p.value for p in h.pieces if p.rect.contains_points(x, h.domain)[0]]
        out.append(hits[0] if hits else (0.0 if h.kind is HistKind.PARTIAL else None))
    return out


def probe_points(rng, h, count) -> np.ndarray:
    """Random points; in half of them every coordinate is a piece boundary.

    Boundaries include the unit cube's top face 1.0; on a discrete domain
    the exclusive bound m+1 is no point of the domain and is left out.
    """
    dom = h.domain
    pts = random_points(rng, dom, count)
    top = dom.m if dom.is_discrete else 1.0
    for a in range(dom.dim):
        edges = np.unique([c for p in h.pieces for c in (p.rect.lo[a], p.rect.hi[a])])
        pts[: count // 2, a] = rng.choice(edges[edges <= top], count // 2)
    return pts


def hypothesis_family(seed):
    """Hierarchical, partial and guillotine hypotheses on unit and discrete domains."""
    rng = make_rng(seed)
    for dim, m in itertools.product((1, 2, 3), (None, 16)):
        dom = Domain.discrete(m, dim) if m else Domain.unit(dim)
        grid = random_grid(rng, dom, 8 if dim < 3 else 4, warp=bool(rng.integers(2)))
        yield random_hier_hist(rng, grid, 15)
        yield random_partial_hist(rng, grid, 3)
        yield gen_truth(5, dom, seed=seed + dim)


@st.composite
def box_hists(draw):
    """A product partition of the domain with values exact at 12 digits; a
    partial one drops some of the boxes.  Returns (hypothesis, points)."""
    dim = draw(st.integers(1, 3))
    m = draw(st.sampled_from([None, 4, 9]))
    dom = Domain.discrete(m, dim) if m else Domain.unit(dim)
    edges = []
    for _ in range(dim):
        if m:
            cuts = sorted(draw(st.sets(st.integers(2, m), max_size=3)))
            edges.append([1] + cuts + [m + 1])
        else:
            cuts = sorted(draw(st.sets(st.integers(1, 15), max_size=3)))
            edges.append([0.0] + [c / 16 for c in cuts] + [1.0])
    kind = draw(st.sampled_from([HistKind.ARBITRARY, HistKind.PARTIAL]))
    pieces = []
    for box in itertools.product(*[list(zip(e[:-1], e[1:])) for e in edges]):
        if kind is HistKind.PARTIAL and pieces and draw(st.booleans()):
            continue
        lo, hi = zip(*box)
        pieces.append(Piece(Rect(lo, hi), draw(st.integers(0, 64)) / 8))
    if m:
        coord = [st.integers(1, m)] * dim
    else:
        coord = [st.one_of(st.sampled_from(e), st.floats(0.0, 1.0)) for e in edges]
    pts = draw(st.lists(st.tuples(*coord), min_size=1, max_size=20))
    return HistHypothesis(dom, tuple(pieces), kind), np.array(pts, dtype=np.float64)


class TestEval:
    def test_single_piece(self):
        d = Domain.unit(2)
        h = HistHypothesis(d, (Piece(d.full_rect(), 3.0),), HistKind.ARBITRARY)
        assert h.value_at([0.2, 0.9]) == 3.0

    def test_partial_uncovered_is_zero(self):
        d = Domain.unit(1)
        h = HistHypothesis(d, (Piece(Rect((0.0,), (0.5,)), 2.0),), HistKind.PARTIAL)
        assert h.value_at([0.75]) == 0.0

    def test_two_piece_split_left_value(self):
        d = Domain.unit(1)
        h = HistHypothesis(
            d,
            (Piece(Rect((0.0,), (0.5,)), 1.5), Piece(Rect((0.5,), (1.0,)), 0.5)),
            HistKind.ARBITRARY,
        )
        assert h.value_at([0.25]) == 1.5
        assert h.value_at([0.5]) == 0.5
        assert h.value_at([1.0]) == 0.5  # top face belongs to the last piece

    def test_outside_domain_rejected(self):
        d = Domain.unit(1)
        h = uniform_hist(d)
        with pytest.raises(DomainViolationError):
            h.value_at([1.5])
        with pytest.raises(DomainViolationError):
            uniform_hist(Domain.unit(2)).value_at([[0.5, 0.5], [0.5, 1.5]])
        h = uniform_hist(Domain.discrete(4, 1))
        for bad in ([0], [5]):
            with pytest.raises(DomainViolationError):
                h.value_at(bad)

    def test_matches_piecewise_twin(self):
        for seed in range(6):
            for h in hypothesis_family(seed):
                pts = probe_points(make_rng(seed), h, 300)
                got = h.value_at(pts)
                assert got.shape == (300,)
                assert got.tolist() == piecewise_value(h, pts), (seed, h.domain, h.kind)

    def test_boundaries_and_top_face(self):
        d = Domain.unit(2)
        cuts = [(0.0, 0.25), (0.25, 1.0)]
        pieces = tuple(
            Piece(Rect((x0, y0), (x1, y1)), float(1 + 2 * i + j))
            for i, (x0, x1) in enumerate(cuts)
            for j, (y0, y1) in enumerate(cuts)
        )
        h = HistHypothesis(d, pieces, HistKind.ARBITRARY)
        pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [0.25, 0.25],
                        [1.0, 0.1], [0.1, 1.0], [1.0, 1.0], [0.25, 1.0]])
        assert h.value_at(pts).tolist() == [1.0, 3.0, 2.0, 4.0, 3.0, 2.0, 4.0, 4.0]
        disc = Domain.discrete(4, 1)
        h = HistHypothesis(
            disc, (Piece(Rect((1,), (3,)), 0.5), Piece(Rect((3,), (5,)), 0.25)), HistKind.ARBITRARY
        )
        assert h.value_at(np.array([[1], [2], [3], [4]])).tolist() == [0.5, 0.5, 0.25, 0.25]

    def test_single_point_agrees_with_rows(self):
        for h in hypothesis_family(7):
            pts = probe_points(make_rng(7), h, 40)
            singles = [h.value_at(x) for x in pts]
            assert all(type(v) is float for v in singles)
            assert singles == h.value_at(pts).tolist()
            assert h.value_at(np.zeros((0, h.domain.dim))).shape == (0,)

    def test_wrong_dimension_rejected(self):
        h = uniform_hist(Domain.unit(2))
        for bad in ([0.5], [0.5, 0.5, 0.5], np.full((3, 1), 0.5), np.full((2, 2, 2), 0.5)):
            with pytest.raises(DomainViolationError):
                h.value_at(bad)

    def test_uncovered_point_of_total_histogram_rejected(self):
        d = Domain.unit(1)
        # the constructor names the centre of the first uncovered overlay cell
        with pytest.raises(StructureError, match=r"^kind=arbitrary pieces leave the point \[0\.75\] uncovered$"):
            HistHypothesis(d, (Piece(Rect((0.0,), (0.5,)), 2.0),), HistKind.ARBITRARY)
        grid = GridSpec.uniform(Domain.discrete(4, 2), 4)
        corner = DyadicRect(1, (0, 0))  # the cells [1, 3) x [1, 3)
        with pytest.raises(StructureError, match=r"^kind=hierarchical .* point \[2\.0, 4\.0\] uncovered$"):
            HistHypothesis(grid.domain, (Piece(grid.rect_of(corner), 1.0),), HistKind.HIERARCHICAL, grid, (corner,))

    def test_overlapping_pieces_rejected(self):
        d = Domain.unit(1)
        pieces = (Piece(Rect((0.0,), (1.0,)), 1.0), Piece(Rect((0.0,), (0.6,)), 2.0))
        for kind in (HistKind.ARBITRARY, HistKind.PARTIAL):
            with pytest.raises(StructureError, match="overlap"):
                HistHypothesis(d, pieces, kind)
        d2 = Domain.discrete(4, 2)
        corner = Piece(Rect((1, 1), (3, 3)), 0.1)
        with pytest.raises(StructureError, match="overlap"):
            HistHypothesis(d2, (corner, Piece(Rect((2, 2), (5, 5)), 0.1)), HistKind.PARTIAL)
        # touching faces and zero-width pieces are not overlaps
        HistHypothesis(d2, (corner, Piece(Rect((3, 1), (5, 3)), 0.1), Piece(Rect((2, 2), (2, 5)), 1.0)),
                       HistKind.PARTIAL)

    def test_pieces_outside_the_domain_rejected(self):
        d = Domain.unit(1)
        for rect in (Rect((0.0,), (2.0,)), Rect((-0.5,), (0.5,)), Rect((0.0, 0.0), (1.0, 1.0))):
            for kind in (HistKind.ARBITRARY, HistKind.PARTIAL):
                with pytest.raises(DomainViolationError):
                    HistHypothesis(d, (Piece(rect, 0.5),), kind)
        d2 = Domain.discrete(4, 2)
        inside = Piece(Rect((1, 1), (5, 3)), 0.1)
        for rect in (Rect((1, 3), (5, 6)), Rect((0, 3), (5, 5)), Rect((1,), (5,))):
            with pytest.raises(DomainViolationError):
                HistHypothesis(d2, (inside, Piece(rect, 0.1)), HistKind.PARTIAL)
        HistHypothesis(d2, (inside, Piece(Rect((1, 3), (5, 5)), 0.1)), HistKind.ARBITRARY)

    def test_first_bad_piece_named(self):
        # the bounds are checked as one array; the message is the first failing piece's, in piece order
        d2, inside = Domain.discrete(4, 2), Piece(Rect((1, 1), (5, 3)), 0.1)
        low, high, flat = Rect((0, 3), (5, 5)), Rect((1, 3), (5, 6)), Rect((1,), (5,))
        cases = [((inside, Piece(low, 0.1), Piece(high, 0.1)), f"rect {low} outside domain bounds"),
                 ((inside, Piece(high, 0.1), Piece(flat, 0.1)), f"rect {high} outside domain bounds"),
                 ((inside, Piece(flat, 0.1), Piece(low, 0.1)), "rect dim 1 != domain dim 2")]
        for pieces, message in cases:
            with pytest.raises(DomainViolationError, match=f"^{re.escape(message)}$"):
                HistHypothesis(d2, pieces, HistKind.PARTIAL)
        # past 2^53 an integer bound rounds, as a float, onto the top of a cube of side 2^53 - 1
        wide, past = Domain.discrete(2**53 - 1, 1), Rect((1,), (2**53 + 1,))
        assert float(past.hi[0]) == wide.upper
        with pytest.raises(DomainViolationError, match=f"^{re.escape(f'rect {past} outside domain bounds')}$"):
            HistHypothesis(wide, (Piece(past, 0.0),), HistKind.PARTIAL)
        HistHypothesis(wide, (Piece(Rect((1,), (2**53,)), 0.0),), HistKind.PARTIAL)

    @given(box_hists())
    @settings(max_examples=150, deadline=None)
    def test_fuzz_twin_and_file_round_trip(self, case):
        h, pts = case
        want = piecewise_value(h, pts)
        assert h.value_at(pts).tolist() == want
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.hist"
            write_hypothesis(path, h)
            back = read_hypothesis(path)
            write_hypothesis(Path(tmp) / "again.hist", back)
            assert (Path(tmp) / "again.hist").read_bytes() == path.read_bytes()
        assert (back.kind, back.pieces) == (h.kind, h.pieces)
        assert back.value_at(pts).tolist() == want



class TestMass:
    def test_full_domain_is_one(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [1], [2], [4]]))
        assert mass(emp, d.full_rect()) == 1.0

    def test_empirical_partial_rect(self):
        d = Domain.discrete(4, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [1], [2], [4]]))
        assert mass(emp, Rect((1,), (3,))) == pytest.approx(0.75, abs=0)

    def test_histogram_value_times_volume(self):
        d = Domain.unit(1)
        h = HistHypothesis(d, (Piece(Rect((0.0,), (0.5,)), 2.0),), HistKind.PARTIAL)
        assert mass(h, Rect((0.0,), (0.25,))) == pytest.approx(0.5, abs=0)

    @pytest.mark.parametrize("rect", [Rect((0.0,), (0.5,)), Rect((0.0,) * 3, (0.5,) * 3)])
    def test_rect_of_another_dimension_rejected(self, rect):
        d = Domain.unit(2)
        emp = EmpiricalDist.from_samples(d, np.array([[0.1, 0.9], [0.2, 0.3]]))
        for g in (emp, uniform_hist(d)):
            with pytest.raises(DomainViolationError, match="rect dim"):
                mass(g, rect)
            with pytest.raises(DomainViolationError, match="rect dim"):
                g.mass_in(rect)


class TestL1:
    def test_identity(self):
        d = Domain.unit(2)
        h = uniform_hist(d)
        assert l1_dist(h, h) == 0.0

    def test_two_vs_uniform_on_halves(self):
        d = Domain.unit(1)
        h1 = uniform_hist(d)
        h2 = HistHypothesis(
            d,
            (Piece(Rect((0.0,), (0.5,)), 2.0), Piece(Rect((0.5,), (1.0,)), 0.0)),
            HistKind.ARBITRARY,
        )
        assert l1_dist(h1, h2) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_thin_pieces_approach_two(self):
        d = Domain.unit(1)
        w = 1e-6
        h1 = HistHypothesis(d, (Piece(Rect((0.0,), (w,)), 1.0 / w),), HistKind.PARTIAL)
        h2 = HistHypothesis(d, (Piece(Rect((1.0 - w,), (1.0,)), 1.0 / w),), HistKind.PARTIAL)
        assert l1_dist(h1, h2) == pytest.approx(2.0, abs=1e-9)

    def test_mismatched_domains_rejected(self):
        with pytest.raises(ConfigurationError):
            l1_dist(uniform_hist(Domain.unit(1)), uniform_hist(Domain.unit(2)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle(self, seed):
        rng = make_rng(seed)
        grid = GridSpec.uniform(Domain.unit(rng.integers(1, 3)), 4)
        hs = [random_hier_hist(rng, grid, 7, normalize=False) for _ in range(3)]
        a, b, c = hs
        assert l1_dist(a, b) == pytest.approx(l1_dist(b, a), abs=1e-12)
        assert l1_dist(a, c) <= l1_dist(a, b) + l1_dist(b, c) + 1e-9


class TestRasterize:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_the_per_piece_twin(self, dim):
        # warped discrete grids repeat boundaries, so some pieces have zero width;
        # each hypothesis is painted on its own overlay and on the pair's joint one
        rng, zero_width = make_rng(50 + dim), 0
        for trial in range(40):
            domain = Domain.discrete(6, dim) if trial % 2 else Domain.unit(dim)
            grid = random_grid(rng, domain, 4, warp=trial % 4 < 2)
            hs = [random_hier_hist(rng, grid, 20), random_partial_hist(rng, grid, 5)]
            joint = core._overlay_axes(domain, hs[0].bounds, hs[1].bounds)
            for h in hs:
                for axes in (core._overlay_axes(domain, h.bounds), joint):
                    got, want = core._rasterize(h, axes), raster_twin(h, axes)
                    assert got.dtype == want.dtype and got.tolist() == want.tolist(), trial
            zero_width += sum(any(l == u for l, u in zip(p.rect.lo, p.rect.hi)) for h in hs for p in h.pieces)
        assert zero_width > 0
        empty = HistHypothesis(domain, (), HistKind.PARTIAL)
        assert core._rasterize(empty, joint).tolist() == raster_twin(empty, joint).tolist()

    def test_pieces_at_d40_built_and_compared_within_a_second(self):
        # upper ends at the domain's bound take no row past the last cell, so
        # a one-piece cube is one cell, not 2^40
        t0 = time.perf_counter()
        one, three = gen_truth(1, Domain.unit(40), 0), gen_truth(3, Domain.unit(40), 0)
        dist = l1_dist(one, three)
        assert time.perf_counter() - t0 < 1.0
        assert (one.piece_count, three.piece_count) == (1, 3) and 0.0 < dist < 2.0


class TestArraysMatchPerPieceTwins:
    @pytest.mark.parametrize("seed", range(4))
    def test_masses_and_file_text(self, seed, tmp_path):
        # the same products and the same order of sums as the per-piece loops, so equal bits
        rng = make_rng(700 + seed)
        for h in hypothesis_family(seed):
            assert h.values.dtype == np.float64 and h.values.tolist() == [p.value for p in h.pieces]
            assert h.total_mass() == total_mass_twin(h)
            dom = h.domain
            for _ in range(10):  # rects inside, sticking out below or above, and of zero width
                ends = np.sort(rng.uniform(dom.lower - 0.3, dom.upper + 0.3, size=(dom.dim, 2)), axis=1)
                ends = np.round(ends) if dom.is_discrete else ends
                flat = rng.random(dom.dim) < 0.2
                ends[flat, 1] = ends[flat, 0]
                rect = Rect(tuple(ends[:, 0].tolist()), tuple(ends[:, 1].tolist()))
                if (ends[:, 0] > dom.upper).any():  # the intersections leave the domain's top
                    for f in (h.mass_in, lambda r: mass_in_twin(h, r)):
                        with pytest.raises(DomainViolationError, match="outside domain bounds"):
                            f(rect)
                else:
                    assert h.mass_in(rect) == mass_in_twin(h, rect)
            write_hypothesis(tmp_path / "h.hist", h)
            assert (tmp_path / "h.hist").read_text(encoding="utf-8") == hypothesis_text_twin(h)


class TestPieceCoverage:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_per_piece_twin(self, dim):
        # boxes on a coarse lattice overlap, leave gaps and have zero width
        rng = make_rng(90 + dim)
        seen = {"overlap": 0, "gap": 0, "zero width": 0, "tiled": 0}
        for trial in range(80):
            domain = Domain.discrete(6, dim) if trial % 2 else Domain.unit(dim)
            lattice = list(range(1, 8)) if domain.is_discrete else np.linspace(0.0, 1.0, 5).tolist()
            pieces, count = [], int(rng.integers(0, 10))
            if trial % 8 == 0:  # the domain cut in two on the first axis: a tiling
                lo, hi, mid = [domain.lower] * dim, [domain.upper] * dim, lattice[len(lattice) // 2]
                pieces = [Piece(Rect(tuple(lo), (mid, *hi[1:])), 1.0), Piece(Rect((mid, *lo[1:]), tuple(hi)), 1.0)]
                count = 0
            for _ in range(count):
                ends = np.sort(rng.integers(0, len(lattice), size=(dim, 2)), axis=1)
                lo, hi = (tuple(lattice[i] for i in ends[:, j]) for j in (0, 1))
                pieces.append(Piece(Rect(lo, hi), 1.0))
            axes, counts = core.piece_coverage(domain, core.piece_bounds(domain, pieces))
            want_axes, want = coverage_twin(domain, pieces)
            assert len(axes) == len(want_axes) and all(np.array_equal(a, b) for a, b in zip(axes, want_axes))
            assert counts.dtype == want.dtype and counts.tolist() == want.tolist(), trial
            seen["overlap"] += bool((want > 1).any())
            seen["gap"] += not want.all()
            seen["zero width"] += any(l == h for p in pieces for l, h in zip(p.rect.lo, p.rect.hi))
            seen["tiled"] += bool((want == 1).all())
        assert min(seen.values()) > 5, seen

    def test_one_piece_at_d20_built_within_a_second(self):
        # its upper ends all sit at the domain's bound, which marks only the
        # row the counts drop: one corner is marked, not 2^20 (12.6 s)
        t0 = time.perf_counter()
        h = gen_truth(1, Domain.unit(20), 0)
        assert time.perf_counter() - t0 < 1.0
        assert h.piece_count == 1 and h.total_mass() == 1.0

    def test_peak_is_the_marks_and_a_few_bytes_per_piece_and_axis(self):
        # marked one corner at a time, the indices hold pieces x d entries;
        # all 2^d corners at once would hold 2^8 times that (about 77 MiB)
        samples = make_rng(95).random((30, 8))
        h, _ = adaptive_greedy_split(EmpiricalDist.from_samples(Domain.unit(8), samples), SplitParams(k=2))
        pieces, d = len(h.pieces), h.domain.dim
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            axes, counts = core.piece_coverage(h.domain, h.bounds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pieces > 4000 and (counts == 1).all()
        marks = 4 * int(np.prod([len(a) for a in axes]))  # int32, one row past the last cell per axis
        assert peak <= marks + 64 * pieces * d, (peak, marks)


class TestL2:
    def test_identity(self):
        d = Domain.discrete(2, 1)
        emp = EmpiricalDist.from_samples(d, np.array([[1], [2]]))
        assert l2_sq_dist(emp, emp) == 0.0

    def test_point_masses_vs_flat(self):
        d = Domain.discrete(2, 1)
        h1 = HistHypothesis(
            d,
            (Piece(Rect((1,), (2,)), 0.75), Piece(Rect((2,), (3,)), 0.25)),
            HistKind.ARBITRARY,
        )
        flat = HistHypothesis(d, (Piece(d.full_rect(), 0.5),), HistKind.ARBITRARY)
        assert l2_sq_dist(h1, flat) == pytest.approx(0.125, abs=0)

    def test_empirical_point_vs_flat(self):
        d = Domain.discrete(2, 1)
        emp = EmpiricalDist(d, np.array([[1]]), np.array([1]))
        flat = HistHypothesis(d, (Piece(d.full_rect(), 0.5),), HistKind.ARBITRARY)
        assert l2_sq_dist(emp, flat) == pytest.approx(0.5, abs=0)

    def test_empirical_vs_empirical(self):
        d = Domain.discrete(4, 1)
        e1 = EmpiricalDist.from_samples(d, np.array([[1], [1], [2], [4]]))
        e2 = EmpiricalDist.from_samples(d, np.array([[1], [2], [3], [4]]))
        # pointwise: (0.5-0.25)^2 + 0 + 0.25^2 + 0
        assert l2_sq_dist(e1, e2) == pytest.approx(0.125, abs=1e-15)

    def test_empirical_pair_matches_pointwise_twin(self, rng):
        # the same arithmetic per point as the dict lookup, so equal bits
        for trial in range(30):
            d = Domain.discrete(int(rng.integers(2, 40)), 1 + trial % 3)
            e1, e2 = (
                EmpiricalDist.from_samples(d, random_points(rng, d, int(rng.integers(1, 300))))
                for _ in range(2)
            )
            m1, m2 = ({tuple(p): c / e.n for p, c in zip(e.points.tolist(), e.counts)} for e in (e1, e2))
            keys = sorted(set(m1) | set(m2))
            v1, v2 = (np.array([m.get(key, 0.0) for key in keys]) for m in (m1, m2))
            assert l2_sq_dist(e1, e2) == float(np.sum((v1 - v2) ** 2))

    def test_empirical_vs_hypothesis_matches_dense_sum(self, rng):
        for h in hypothesis_family(3):
            if not h.domain.is_discrete or h.domain.dim > 2:
                continue
            emp = EmpiricalDist.from_samples(h.domain, random_points(rng, h.domain, 200))
            lattice = np.array(list(itertools.product(range(1, h.domain.m + 1), repeat=h.domain.dim)))
            g = np.zeros(len(lattice))
            for p, c in zip(emp.points, emp.counts):
                g[np.flatnonzero((lattice == p).all(axis=1))] = c / emp.n
            hx = np.array(piecewise_value(h, lattice), dtype=np.float64)  # None (a gap) reads nan
            assert l2_sq_dist(emp, h) == pytest.approx(float(np.sum((g - hx) ** 2)), rel=1e-12, abs=1e-15)

    def test_unit_domain_rejected(self):
        d = Domain.unit(1)
        with pytest.raises(UnsupportedDomainError):
            l2_sq_dist(uniform_hist(d), uniform_hist(d))


class TestEmpiricalDist:
    def test_duplicates_aggregate(self):
        d = Domain.discrete(4, 2)
        emp = EmpiricalDist.from_samples(d, np.array([[1, 2], [1, 2], [3, 4]]))
        assert emp.n == 3
        assert emp.support_size == 2

    def test_point_outside_domain_rejected(self):
        d = Domain.unit(1)
        with pytest.raises(DomainViolationError):
            EmpiricalDist.from_samples(d, np.array([[1.5]]))

    def test_fractional_coordinate_on_discrete_domain_rejected(self):
        d = Domain.discrete(8, 1)
        with pytest.raises(DomainViolationError, match="non-integral"):
            EmpiricalDist.from_samples(d, np.array([[2.7], [2.2], [5.0]]))
        with pytest.raises(DomainViolationError, match="non-integral"):
            EmpiricalDist(Domain.discrete(8, 2), np.array([[1.0, 3.5]]), np.array([1]))
        emp = EmpiricalDist.from_samples(d, np.array([[2.0], [2.0], [5.0]]))  # integral floats are fine
        assert emp.points.dtype == np.int64
        assert emp.points.tolist() == [[2], [5]] and emp.counts.tolist() == [2, 1]

    def test_total_mass_is_exactly_one(self, rng):
        d = Domain.discrete(16, 2)
        emp = EmpiricalDist.from_samples(d, rng.integers(1, 17, size=(100, 2)))
        assert mass(emp, d.full_rect()) == 1.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_samples_matches_unique_twin(self, data):
        dim = data.draw(st.integers(1, 5))
        if data.draw(st.booleans()):
            domain, coords = Domain.discrete(5, dim), [st.integers(1, 5)] * dim
            dtype = data.draw(st.sampled_from([np.int64, np.float64]))  # integral floats count as lattice points
        else:
            # per column, a few values (ties for the next column to break) or many distinct ones
            pool = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
            coords = [data.draw(st.sampled_from([pool, st.one_of(pool, st.floats(0.0, 1.0)), st.floats(0.0, 1.0)]))
                      for _ in range(dim)]
            domain, dtype = Domain.unit(dim), np.float64
        rows = data.draw(st.lists(st.tuples(*coords), min_size=1, max_size=60))
        samples = np.array(rows, dtype=dtype)
        # each row one draw, or as many draws as its count says
        weights = data.draw(st.none() | st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_COUNT_ROWS", data.draw(st.sampled_from([1, 2, 5, core._COUNT_ROWS])))
            emp = EmpiricalDist.from_samples(domain, samples, weights)
        if weights is not None:
            samples = np.repeat(samples, weights, axis=0)
        uniq, counts = np.unique(samples, axis=0, return_counts=True)
        if domain.is_discrete:
            uniq = uniq.astype(np.int64)
        assert emp.points.dtype == uniq.dtype and emp.counts.tolist() == counts.tolist()
        # np.unique keeps either zero of a tied pair; from_samples keeps +0.0
        assert emp.points.tobytes() == (uniq + 0).tobytes()
        assert not np.signbit(emp.points).any()

    @pytest.mark.parametrize("domain", [Domain.unit(2), Domain.discrete(3, 2)], ids=["unit", "lattice"])
    @pytest.mark.parametrize("counts", [[1, 2], [1, 0, 2], [1, -1, 2], [[1, 1, 2]]],
                             ids=["short", "zero", "negative", "2-d"])
    def test_bad_counts_rejected(self, domain, counts):
        samples = np.array([[1, 1], [1, 1], [1, 1]], dtype=np.float64)
        with pytest.raises(ValueError, match="^counts must hold one positive count per row$"):
            EmpiricalDist.from_samples(domain, samples, counts)

    def test_from_samples_rank_key_stays_below_n_squared(self):
        # the columns' distinct counts multiply to 8000^3 * 10000^2 > 2^63: only re-ranked keys sort these rows
        rng = make_rng(7)
        samples = rng.random((12_000, 5))
        samples[8000:10_000, :3] = samples[:2000, :3]  # ties on the leading columns
        samples[10_000:] = samples[:2000]  # repeated rows
        emp = EmpiricalDist.from_samples(Domain.unit(5), samples)
        uniq, counts = np.unique(samples, axis=0, return_counts=True)
        assert np.array_equal(emp.points, uniq) and np.array_equal(emp.counts, counts)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")  # inf -> int64 on a discrete domain
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("domain", [Domain.unit(1), Domain.unit(3), Domain.discrete(5, 1), Domain.discrete(5, 3)],
                             ids=["unit-1", "unit-3", "discrete-1", "discrete-3"])
    def test_non_finite_rows_rejected(self, domain, bad):
        nan_on_lattice = domain.is_discrete and np.isnan(bad)
        message = "non-integral coordinate on a discrete domain" if nan_on_lattice else "sample point outside domain"
        samples = random_points(make_rng(8), domain, 50).astype(np.float64)
        samples[[3, 17], 0] = bad
        samples[[9, 17], -1] = bad
        with pytest.raises(DomainViolationError, match=f"^{message}$"):
            EmpiricalDist.from_samples(domain, samples)

    def test_float_rows_are_not_lexsorted(self, monkeypatch):
        # with a lexsort, from_samples took 47 ms on 300k shuffled rows at d=1; with one argsort, 15 ms
        calls, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda *a, **k: calls.append(len(a[0])) or lexsort(*a, **k))
        rng = make_rng(9)
        for domain in [Domain.unit(1), Domain.unit(2), Domain.unit(3), Domain.discrete(1 << 40, 2)]:
            samples = random_points(rng, domain, 40).astype(np.float64)  # the huge lattice takes the general path
            samples[20:30] = samples[:10]
            emp = EmpiricalDist.from_samples(domain, samples)
            assert calls == [], domain
            assert emp.support_size == 30 and sorted(emp.counts.tolist()) == [1] * 20 + [2] * 10

    @pytest.mark.parametrize("dim", [2, 3])  # 25 cells: 19 blocks of 2 rows ranked; 125 cells > 80: no ranking
    @pytest.mark.parametrize("bad, message", [(0.0, "outside domain"), (6.0, "outside domain"), (2.5, "non-integral")])
    def test_late_non_lattice_row_takes_the_general_path(self, dim, bad, message, monkeypatch):
        # every block before the last is ranked before the bad row is seen
        ranked, rank = [], np.ravel_multi_index
        monkeypatch.setattr(core, "_COUNT_ROWS", 2)
        monkeypatch.setattr(np, "ravel_multi_index", lambda *a, **k: ranked.append(len(a[0][0])) or rank(*a, **k))
        samples = make_rng(dim).integers(1, 6, size=(40, dim)).astype(np.float64)
        samples[-1, -1] = bad
        with pytest.raises(DomainViolationError, match=message):
            EmpiricalDist.from_samples(Domain.discrete(5, dim), samples)
        assert sum(ranked) == (38 if dim == 2 else 0)

    def test_sparse_lattice_takes_the_general_path(self, monkeypatch):
        # more cells than twice the rows: the rows are ranked as off the lattice, not keyed
        calls, unique, rank = [], np.unique, np.ravel_multi_index
        monkeypatch.setattr(core, "_COUNT_ROWS", 3)
        monkeypatch.setattr(np, "ravel_multi_index", lambda *a, **k: calls.append("ravel_multi_index") or rank(*a, **k))
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append("unique") or unique(*a, **k))
        rng = make_rng(4)
        # cells > 2n: 64 > 62, 27 > 26, 10^6 > 100 and 10^6 > 80
        for m, dim, n in [(8, 2, 31), (3, 3, 13), (10**6, 1, 50), (1000, 2, 40)]:
            samples = rng.integers(1, m + 1, size=(n, dim))
            samples[n // 2 :] = samples[: n - n // 2]  # repeated rows
            emp = EmpiricalDist.from_samples(Domain.discrete(m, dim), samples)
            uniq, counts = unique(samples, axis=0, return_counts=True)
            assert emp.points.dtype == uniq.dtype == np.int64
            assert np.array_equal(emp.points, uniq) and np.array_equal(emp.counts, counts)
        assert calls == []

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_from_samples_peak_within_three_and_a_half_inputs(self, dim):
        # on distinct rows the general path keeps one sorted copy, a
        # count of ones and the dist's own copy of the points
        samples = make_rng(5).random((300_000, dim))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            emp = EmpiricalDist.from_samples(Domain.unit(dim), samples)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert emp.support_size == 300_000 and emp.counts.tolist() == [1] * 300_000
        assert np.array_equal(emp.points, samples[np.lexsort(samples.T[::-1])])
        assert peak <= 3.5 * samples.nbytes, peak


class TestGridSpec:
    def test_cell_index_half_open_with_duplicates(self):
        d = Domain.discrete(16, 1)
        grid = GridSpec(d, (np.array([1.0, 3, 9, 9, 17]),))
        idx = grid.cell_index(np.array([[1], [2], [3], [8], [9], [16]]))
        assert idx[:, 0].tolist() == [0, 0, 1, 1, 3, 3]

    def test_unit_top_face_clamps_into_last_cell(self):
        d = Domain.unit(1)
        grid = GridSpec.uniform(d, 4)
        idx = grid.cell_index(np.array([[1.0]]))
        assert idx[0, 0] == 3

    @pytest.mark.parametrize(
        "dim, axes, message",
        [
            (1, [[0.0, 0.5, 0.75, 1.0]], "cell count per axis must be a power of 2, got 3"),
            (2, [[0.0, 0.5, 1.0]], "one boundary array per dimension required"),
            (2, [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]], "all axes must have the same boundary count"),
            (1, [[0.0, 0.75, 0.5, 1.0, 1.0]], "axis boundaries must be non-decreasing"),
            (1, [[0.0, NAN, 1.0]], "axis boundaries must be non-decreasing"),
            (1, [[0.25, 0.5, 1.0]], "axis boundaries must start/end at the domain bounds"),
            (1, [[0.0, 0.5, 0.75]], "axis boundaries must start/end at the domain bounds"),
        ],
        ids=["not-a-power-of-2", "axis-count", "boundary-counts", "decreasing", "nan", "low-end", "high-end"],
    )
    def test_rejects_bad_axes(self, dim, axes, message):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            GridSpec(Domain.unit(dim), tuple(np.array(a) for a in axes))

    def test_dyadic_volume_matches_twin_bit_for_bit(self):
        # every level of padded and warped discrete grids and of warped unit
        # grids, one rectangle per call and at least a quarter of the level's
        # side per call, and each rectangle by volume_of
        rng = make_rng(2_600)
        grids = []
        for dim, cells in ((1, 256), (2, 32), (3, 8)):
            for m in (5, 12, cells - 1):
                grids.append(GridSpec.uniform(Domain.discrete(m, dim), m))  # zero-width cells pad m to 2^j
            grids.append(random_grid(rng, Domain.discrete(3, dim), cells, warp=True))
            grids.append(random_grid(rng, Domain.unit(dim), cells, warp=True))
        for grid in grids:
            for level in range(grid.levels + 1):
                side = grid.M >> level
                index = rng.integers(side, size=(side // 4 + 1 + int(rng.integers(2 * side)), grid.dim))
                index[0], index[-1] = 0, side - 1  # the first and the last rectangle
                rects = [DyadicRect(level, tuple(int(i) for i in row)) for row in index]
                want = [twin_volume(grid, r) for r in rects]
                assert grid.dyadic_volume(level, index).tolist() == want, (grid.M, level)
                assert [grid.volume_of(r) for r in rects] == want, (grid.M, level)
                for row, w in list(zip(index, want))[:4]:
                    assert grid.dyadic_volume(level, row[None]).tolist() == [w], (grid.M, level, row)
