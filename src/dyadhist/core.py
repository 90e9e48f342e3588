"""Domain types, exact histogram algebra, synthetic truths and sampling.

Conventions used throughout the package:

* Discrete domains are integer cubes ``{1..m}^d``; a rectangle is a product
  of half-open integer intervals ``[lo, hi)`` and its volume is the number
  of lattice points, ``prod(hi - lo)``.  The full domain is ``[1, m+1)^d``.
* The unit cube is ``[0,1]^d`` with Lebesgue volume.  All intervals are
  half-open; only the top face of the domain counts as closed, so a
  coordinate equal to 1.0 belongs to the last cell instead of falling off
  the grid.
* Grid ownership is by boundary rank: cell ``j`` on an axis with boundaries
  ``x_0 <= ... <= x_M`` owns coordinates in ``[x_j, x_{j+1})``.  Duplicate
  boundaries produce zero-width cells (volume 0), which are legal; points at
  a duplicated value always land in the last cell of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateRegionError,
    DomainViolationError,
    StructureError,
    UnsupportedDomainError,
)


# ---------------------------------------------------------------------------
# Domains and rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Either the discrete cube ``{1..m}^d`` (m set) or the unit cube ``[0,1]^d``."""

    dim: int
    m: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"discrete side m must be >= 1, got {self.m}")

    @staticmethod
    def discrete(m: int, dim: int) -> "Domain":
        return Domain(dim=dim, m=int(m))

    @staticmethod
    def unit(dim: int) -> "Domain":
        return Domain(dim=dim, m=None)

    @property
    def is_discrete(self) -> bool:
        return self.m is not None

    @property
    def lower(self) -> float:
        return 1 if self.is_discrete else 0.0

    @property
    def upper(self) -> float:
        """Exclusive upper bound of the coordinate range (m+1 or 1.0)."""
        return self.m + 1 if self.is_discrete else 1.0

    def full_rect(self) -> "Rect":
        return Rect((self.lower,) * self.dim, (self.upper,) * self.dim)

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of ``pts`` that lie inside the domain."""
        pts = np.atleast_2d(pts)
        if self.is_discrete:
            ok = (pts >= 1) & (pts <= self.m)
        else:
            ok = (pts >= 0.0) & (pts <= 1.0)
        return ok.all(axis=1)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned product of half-open intervals ``[lo_a, hi_a)``."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"rect has lo > hi: {self}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def intersect(self, other: "Rect") -> "Rect":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(l, min(a, b)) for l, a, b in zip(lo, self.hi, other.hi))
        return Rect(lo, hi)

    def contains_points(self, pts: np.ndarray, domain: Domain) -> np.ndarray:
        """Half-open membership; the domain's top face counts as closed."""
        pts = np.atleast_2d(pts)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        ok = (pts >= lo) & (pts < hi)
        if not domain.is_discrete:
            top = np.asarray([h == domain.upper for h in self.hi])
            ok |= top & (pts == hi)
        return ok.all(axis=1)


def _check_dim(rect: Rect, domain: Domain) -> None:
    """Raise DomainViolationError unless ``rect`` has the domain's dimension."""
    if rect.dim != domain.dim:
        raise DomainViolationError(f"rect dim {rect.dim} != domain dim {domain.dim}")


def _check_inside(rect: Rect, domain: Domain) -> None:
    """Raise DomainViolationError unless ``rect`` has the domain's dimension and lies in it."""
    _check_dim(rect, domain)
    if any(l < domain.lower or h > domain.upper for l, h in zip(rect.lo, rect.hi)):
        raise DomainViolationError(f"rect {rect} outside domain bounds")


def volume(rect: Rect, domain: Domain) -> float:
    """Measure of ``rect``: lattice-point count (discrete) or Lebesgue volume."""
    _check_inside(rect, domain)
    v = 1.0
    for l, h in zip(rect.lo, rect.hi):
        v *= max(0.0, float(h) - float(l))
    return v


# ---------------------------------------------------------------------------
# Dyadic rectangles and grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class DyadicRect:
    """Rectangle of a dyadic decomposition, identified by (level, index).

    At level ``l`` the rectangle spans cells ``[index_a * 2^l, (index_a+1) * 2^l)``
    on every axis.  Level ``L = log2(M)`` is the root; level 0 is a single cell.
    The dataclass ordering (level, then index) fixes the order of a learned
    hypothesis's pieces and of a trace's leaves, so both are deterministic.
    """

    level: int
    index: tuple

    @property
    def dim(self) -> int:
        return len(self.index)

    def cell_span(self, axis: int) -> tuple:
        return (self.index[axis] << self.level, (self.index[axis] + 1) << self.level)

    def children(self) -> list:
        """The 2^d children at level-1, in lexicographic index order."""
        if self.level == 0:
            raise StructureError("level-0 rectangle has no children")
        d = self.dim
        out = []
        for bits in range(1 << d):
            idx = tuple(2 * self.index[a] + ((bits >> (d - 1 - a)) & 1) for a in range(d))
            out.append(DyadicRect(self.level - 1, idx))
        return out

    def contains(self, other: "DyadicRect") -> bool:
        if other.level > self.level:
            return False
        shift = self.level - other.level
        return all((o >> shift) == s for o, s in zip(other.index, self.index))

    def disjoint_from(self, other: "DyadicRect") -> bool:
        return not self.contains(other) and not other.contains(self)


def _check_cells(cells: int) -> None:
    if cells < 1 or cells & (cells - 1):
        raise StructureError(f"cell count per axis must be a power of 2, got {cells}")


@dataclass(frozen=True, eq=False)
class GridSpec:
    """An ``M^d`` cell grid given by per-axis boundary arrays of length M+1.

    M is identical across axes and a power of two; ``levels = log2(M)`` is
    the depth of the induced dyadic decomposition.  Boundaries may repeat
    (zero-width cells); the first/last boundary equal the domain bounds.
    """

    domain: Domain
    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=np.float64) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) != self.domain.dim:
            raise StructureError("one boundary array per dimension required")
        sizes = {len(a) for a in axes}
        if len(sizes) != 1:
            raise StructureError("all axes must have the same boundary count")
        _check_cells(sizes.pop() - 1)
        for a in axes:
            if np.any(np.diff(a) < 0):
                raise StructureError("axis boundaries must be non-decreasing")
            if a[0] != self.domain.lower or a[-1] != self.domain.upper:
                raise StructureError("axis boundaries must start/end at the domain bounds")

    @staticmethod
    def uniform(domain: Domain, cells: int) -> "GridSpec":
        """Evenly spaced grid with ``cells`` cells per axis.

        On the unit cube ``cells`` must be a power of 2.  On {1..m}^d it must
        be m, one cell per value, and zero-width cells at the top pad each
        axis to the next power of 2.
        """
        if domain.is_discrete:
            if cells != domain.m:
                raise StructureError("uniform discrete grid must have m cells per axis")
            ax = np.minimum(np.arange(1, next_pow2(cells) + 2), cells + 1).astype(np.float64)
        else:
            _check_cells(cells)
            ax = np.linspace(0.0, 1.0, cells + 1)
        return GridSpec(domain, tuple(ax.copy() for _ in range(domain.dim)))

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def M(self) -> int:
        return len(self.axes[0]) - 1

    @property
    def levels(self) -> int:
        return self.M.bit_length() - 1

    def root(self) -> DyadicRect:
        return DyadicRect(self.levels, (0,) * self.dim)

    def same_as(self, other: "GridSpec") -> bool:
        return (
            self.domain == other.domain
            and len(self.axes) == len(other.axes)
            and all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
        )

    def cell_index(self, pts: np.ndarray) -> np.ndarray:
        """Rank-space cell index of each point, per axis (shape (n, d))."""
        pts = np.atleast_2d(pts)
        out = np.empty(pts.shape, dtype=np.int64)
        for a in range(self.dim):
            j = np.searchsorted(self.axes[a], pts[:, a], side="right") - 1
            out[:, a] = np.clip(j, 0, self.M - 1)
        return out

    def rect_of(self, dr: DyadicRect) -> Rect:
        lo, hi = [], []
        for a in range(self.dim):
            s, e = dr.cell_span(a)
            lo.append(self.coord(a, s))
            hi.append(self.coord(a, e))
        return Rect(tuple(lo), tuple(hi))

    def coord(self, axis: int, rank: int):
        v = self.axes[axis][rank]
        return int(v) if self.domain.is_discrete else float(v)

    def dyadic_volume(self, level: int, index: np.ndarray) -> np.ndarray:
        """Volumes of the dyadic rectangles with the given level-``level`` indices.

        ``index`` has shape (n, d); the result has shape (n,).
        """
        index = np.atleast_2d(np.asarray(index, dtype=np.int64))
        v = np.ones(len(index))
        for b, i in zip(self.axes, index.T):
            if self.M >> level <= 4 * len(i):  # many rectangles: take every width of the level once
                v *= np.diff(b[:: 1 << level]).take(i)
            else:
                lo = i << level
                v *= b[lo + (1 << level)] - b[lo]
        return v

    def volume_of(self, dr: DyadicRect) -> float:
        return float(self.dyadic_volume(dr.level, np.asarray([dr.index]))[0])

    def dyadic_rect_count(self) -> int:
        return sum((self.M >> l) ** self.dim for l in range(self.levels + 1))

    def padded_cell_count(self) -> int:
        """Number of zero-width cells summed over the axes."""
        return int(sum(np.count_nonzero(np.diff(a) == 0) for a in self.axes))


# ---------------------------------------------------------------------------
# Empirical distributions
# ---------------------------------------------------------------------------

# Rows ``_count_lattice`` checks and ranks per block.
_COUNT_ROWS = 1 << 16


@dataclass(frozen=True, eq=False)
class EmpiricalDist:
    """Weighted multiset of sample points with total mass 1.

    ``points`` holds the distinct coordinates (shape (p, d)), ``counts`` the
    multiplicities; ``n = counts.sum()`` and each point carries mass count/n.
    It holds at least one point, so ``n`` is positive.
    """

    domain: Domain
    points: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points))
        if self.domain.is_discrete:
            if pts.dtype.kind == "f" and not (pts == np.floor(pts)).all():
                raise DomainViolationError("non-integral coordinate on a discrete domain")
            pts = pts.astype(np.int64)
        else:
            pts = pts.astype(np.float64)
        cnt = np.asarray(self.counts, dtype=np.int64)
        if not cnt.size:
            raise ValueError("empty sample set")
        if pts.shape[0] != cnt.shape[0]:
            raise ValueError("points and counts must have equal length")
        if pts.shape[1] != self.domain.dim:
            raise DomainViolationError(
                f"points have dim {pts.shape[1]}, domain has dim {self.domain.dim}"
            )
        if np.any(cnt <= 0):
            raise ValueError("counts must be positive")
        if not self.domain.contains_points(pts).all():
            raise DomainViolationError("sample point outside domain")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "counts", cnt)

    @staticmethod
    def from_samples(domain: Domain, samples: np.ndarray) -> "EmpiricalDist":
        """Aggregate raw samples (one row per draw) into a weighted multiset.

        Off the lattice the rows are sorted by one ``argsort`` of a key that
        orders them lexicographically: the first column itself at d = 1, else
        the dense ranks of the columns so far times the next column's count
        of distinct values, plus its ranks.  Ranking again after each column
        keeps the key below n^2.
        """
        samples = np.atleast_2d(np.asarray(samples))
        if samples.size == 0:
            raise ValueError("empty sample set")
        lattice = _count_lattice(domain, samples)
        if lattice is not None:
            return EmpiricalDist(domain, *lattice)
        key = samples[:, 0]
        for col in samples.T[1:]:
            key = _dense_ranks(key)[0]
            rank, distinct = _dense_ranks(col)
            key *= distinct
            key += rank
            del rank
        rows = samples.take(np.argsort(key), axis=0)
        del key
        if rows.dtype.kind == "f":
            rows += 0  # -0.0 -> 0.0: the row kept for equal rows is then unique
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        if first.all():
            return EmpiricalDist(domain, rows, np.ones(len(rows), dtype=np.int64))
        starts = np.flatnonzero(first)
        return EmpiricalDist(domain, rows[starts], np.diff(starts, append=len(rows)))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def support_size(self) -> int:
        return len(self.points)

    def mass_in(self, rect: Rect) -> float:
        _check_dim(rect, self.domain)
        mask = rect.contains_points(self.points, self.domain)
        return float(self.counts[mask].sum()) / self.n


def _dense_ranks(x: np.ndarray) -> tuple:
    """Rank of each entry among the distinct values of ``x`` (int64), and their count.

    Equal values share a rank, so 0.0 and -0.0 do; every NaN gets its own.
    """
    order = np.argsort(x)
    step = x[order]
    rank = np.empty(len(x), dtype=np.int64)
    rank[0] = 0
    np.cumsum(step[1:] != step[:-1], out=rank[1:])
    del step
    out = np.empty_like(rank)
    out[order] = rank
    return out, int(rank[-1]) + 1


def _count_lattice(domain: Domain, samples: np.ndarray):
    """Distinct points and counts of samples on the discrete cube, or None.

    Each row is keyed by its C-order rank in {1..m}^d, so the keys sort the
    rows lexicographically, as ``from_samples``' general path does.  The
    rows are checked and ranked in blocks of ``_COUNT_ROWS`` rows, so the
    temporaries stay bounded.  When there are no more cells than twice the
    samples, each block's keys are counted by a ``bincount`` added into one
    count array (the blocks then hold at least as many rows as there are
    cells, so a block's count costs no more than its rows); else the keys are
    gathered and counted with ``unique``.  None when the domain is not
    discrete, a key would not fit in 63 bits, or some row is not a lattice
    point of the domain (the general path then keeps the error).
    """
    m, d = domain.m, domain.dim
    if m is None or samples.shape[1] != d or m**d >= 1 << 63 or samples.dtype.kind not in "iuf":
        return None
    n, cells, shape = len(samples), m**d, (m,) * d
    dense = cells <= 2 * n
    if dense:
        counts, step = np.zeros(cells, dtype=np.int64), max(_COUNT_ROWS, cells)
    else:
        keys, step = np.empty(n, dtype=np.int64), _COUNT_ROWS
    for start in range(0, n, step):
        block = samples[start : start + step]
        if not ((block >= 1) & (block <= m)).all():
            return None
        if block.dtype.kind == "f" and not (block == np.floor(block)).all():
            return None
        key = np.ravel_multi_index(tuple((block.astype(np.int64) - 1).T), shape)
        if dense:
            counts += np.bincount(key, minlength=cells)
        else:
            keys[start : start + step] = key
    if dense:
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    else:
        keys, counts = np.unique(keys, return_counts=True)
    return np.stack(np.unravel_index(keys, shape), axis=1) + 1, counts


# ---------------------------------------------------------------------------
# Histogram hypotheses
# ---------------------------------------------------------------------------

class HistKind(Enum):
    ARBITRARY = "arbitrary"
    HIERARCHICAL = "hierarchical"
    PARTIAL = "partial"


@dataclass(frozen=True)
class Piece:
    rect: Rect
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"piece value must be finite and nonnegative, got {self.value}")


@dataclass(frozen=True, eq=False)
class HistHypothesis:
    """Piecewise-constant density given by disjoint rectangles with values.

    Every piece has the domain's dimension and lies inside it, and no two
    overlap.  ARBITRARY and HIERARCHICAL pieces cover the full domain (a gap
    is a StructureError naming a point of it); PARTIAL leaves the uncovered
    region at value 0.  Hierarchical hypotheses carry the grid and
    the dyadic identity of every piece.
    """

    domain: Domain
    pieces: tuple
    kind: HistKind
    grid: GridSpec | None = None
    dyadic: tuple | None = None

    def __post_init__(self):
        if self.kind is HistKind.HIERARCHICAL:
            if self.grid is None or self.dyadic is None:
                raise StructureError("hierarchical hypothesis needs grid and dyadic ids")
        if self.dyadic is not None and len(self.dyadic) != len(self.pieces):
            raise StructureError("dyadic ids must align with pieces")
        for p in self.pieces:
            _check_inside(p.rect, self.domain)
        axes, counts = piece_coverage(self.domain, self.pieces)
        if (counts > 1).any():
            raise StructureError("pieces overlap")
        if self.kind is not HistKind.PARTIAL and not counts.all():
            gap = np.argwhere(counts == 0)[0]
            x = [float((axes[a][c] + axes[a][c + 1]) / 2) for a, c in enumerate(gap)]
            raise StructureError(f"kind={self.kind.value} pieces leave the point {x} uncovered")

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def total_mass(self) -> float:
        return float(sum(p.value * volume(p.rect, self.domain) for p in self.pieces))

    def value_at(self, x):
        """Density at a point ``(d,)`` (a float) or at points ``(n, d)`` (an array).

        Each point is looked up in the cell of h's own overlay that owns it,
        so the domain's top face lands in the last cell.  The value is 0 on
        the uncovered part of a partial hypothesis.
        """
        pts = np.asarray(x, dtype=np.float64)
        single = pts.ndim == 1
        pts = pts.reshape(1, -1) if single else pts
        if pts.ndim != 2 or pts.shape[1] != self.domain.dim:
            raise DomainViolationError("point dimension mismatch")
        inside = self.domain.contains_points(pts)
        if not inside.all():
            raise DomainViolationError(f"point {pts[~inside][0]} outside domain")
        axes = _overlay_axes(self.domain, self.pieces)
        cell = tuple(
            np.clip(np.searchsorted(ax, pts[:, a], side="right") - 1, 0, len(ax) - 2)
            for a, ax in enumerate(axes)
        )
        vals = _rasterize(self, axes)[cell]
        return float(vals[0]) if single else vals

    def mass_in(self, rect: Rect) -> float:
        _check_dim(rect, self.domain)
        total = 0.0
        for p in self.pieces:
            total += p.value * volume(p.rect.intersect(rect), self.domain)
        return total


def mass(g, rect: Rect) -> float:
    """Mass of an EmpiricalDist or HistHypothesis on ``rect``."""
    _check_inside(rect, g.domain)
    return g.mass_in(rect)


def flatten(g, rect: Rect) -> float:
    """Average density of ``g`` on ``rect`` (mass / volume)."""
    v = volume(rect, g.domain)
    if v <= 0:
        raise DegenerateRegionError(f"flattening over zero-volume rect {rect}")
    return mass(g, rect) / v


# ---------------------------------------------------------------------------
# Exact distances via coordinate-compressed overlays
# ---------------------------------------------------------------------------

def _overlay_axes(domain: Domain, *piece_sets) -> list:
    """Per-axis sorted unique boundary coordinates of all pieces + domain bounds."""
    out = []
    for a in range(domain.dim):
        vals = [domain.lower, domain.upper]
        for pieces in piece_sets:
            for p in pieces:
                vals.append(p.rect.lo[a])
                vals.append(p.rect.hi[a])
        out.append(np.unique(np.asarray(vals, dtype=np.float64)))
    return out


def _piece_slices(pieces, axes: list):
    """Per piece, the block of overlay cells it covers, as a tuple of slices.

    One ``searchsorted`` per axis finds every piece's ``lo`` and ``hi``.
    """
    bounds = np.array([(p.rect.lo, p.rect.hi) for p in pieces], dtype=np.float64).reshape(-1, 2, len(axes))
    ends = [np.searchsorted(ax, bounds[:, :, a]).tolist() for a, ax in enumerate(axes)]
    return [tuple(slice(*e[i]) for e in ends) for i in range(len(bounds))]


def _rasterize(h: HistHypothesis, axes: list) -> np.ndarray:
    """Value of ``h`` on each overlay cell (uncovered cells stay 0)."""
    grid = np.zeros(tuple(len(a) - 1 for a in axes))
    for sl, p in zip(_piece_slices(h.pieces, axes), h.pieces):
        grid[sl] = p.value
    return grid


def piece_coverage(domain: Domain, pieces):
    """``(axes, counts)``: the pieces' own overlay and how many cover each cell.

    Overlay cells have positive width, so a count above 1 is an overlap of
    positive volume and a count of 0 is a gap; zero-width pieces cover none.
    """
    axes = _overlay_axes(domain, pieces)
    counts = np.zeros(tuple(len(a) - 1 for a in axes), dtype=np.int32)
    for sl in _piece_slices(pieces, axes):
        counts[sl] += 1
    return axes, counts


def _cell_volumes(axes: list) -> np.ndarray:
    widths = [np.diff(a) for a in axes]
    return reduce(np.multiply.outer, widths)


def l1_dist(h1: HistHypothesis, h2: HistHypothesis) -> float:
    """Exact L1 distance between two piecewise-constant hypotheses."""
    if h1.domain != h2.domain:
        raise ConfigurationError("l1_dist requires hypotheses on the same domain")
    axes = _overlay_axes(h1.domain, h1.pieces, h2.pieces)
    v1 = _rasterize(h1, axes)
    v2 = _rasterize(h2, axes)
    return float(np.sum(np.abs(v1 - v2) * _cell_volumes(axes)))


def l2_sq_dist(g1, g2) -> float:
    """Sum over lattice points of (g1(x) - g2(x))^2, discrete domains only.

    Works on any mix of EmpiricalDist and HistHypothesis without enumerating
    the domain: support points are handled explicitly and the empty remainder
    of each overlay cell contributes in closed form.
    """
    if g1.domain != g2.domain:
        raise ConfigurationError("l2_sq_dist requires the same domain")
    if not g1.domain.is_discrete:
        raise UnsupportedDomainError("l2 distance is defined on the discrete cube only")

    def emp(g):
        return isinstance(g, EmpiricalDist)

    if emp(g1) and emp(g2):
        # per distinct point, 0.0 + g1(x) + (-g2(x)) == g1(x) - g2(x) exactly
        _, where = np.unique(np.vstack([g1.points, g2.points]), axis=0, return_inverse=True)
        signed = np.concatenate([g1.counts / g1.n, -(g2.counts / g2.n)])
        diff = np.bincount(where.ravel(), weights=signed)  # numpy 2.0.0 returns it 2-D
        return float(np.sum(diff**2))
    if emp(g1) != emp(g2):
        e, h = (g1, g2) if emp(g1) else (g2, g1)
        gx = e.counts / e.n
        hx = h.value_at(e.points)
        # sum_x h(x)^2 over the whole lattice, then swap in the support terms
        total_h_sq = sum(p.value**2 * volume(p.rect, h.domain) for p in h.pieces)
        return float(np.sum((gx - hx) ** 2) - np.sum(hx**2) + total_h_sq)
    axes = _overlay_axes(g1.domain, g1.pieces, g2.pieces)
    v1 = _rasterize(g1, axes)
    v2 = _rasterize(g2, axes)
    return float(np.sum((v1 - v2) ** 2 * _cell_volumes(axes)))


def next_pow2(x: int) -> int:
    """Least power of 2 >= x (x >= 1)."""
    return 1 << max(0, int(x - 1).bit_length())


# ---------------------------------------------------------------------------
# Synthetic ground truth and sampling
# ---------------------------------------------------------------------------

# Rows ``sample_from`` draws per block.
_DRAW_ROWS = 1 << 16


def gen_truth(k: int, domain: Domain, seed: int) -> HistHypothesis:
    """Random k-piece axis-aligned partition with values normalized to mass 1.

    Built by k-1 random guillotine cuts: pick a splittable piece, an axis
    with room, and a cut in the middle 60% of its extent (interior lattice
    boundary on discrete domains).  Deterministic under the seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    rects = [domain.full_rect()]
    disc = domain.is_discrete

    def split_axes(r: Rect) -> list:
        if disc:
            return [a for a in range(domain.dim) if r.hi[a] - r.lo[a] >= 2]
        return [a for a in range(domain.dim) if r.hi[a] > r.lo[a]]

    for _ in range(k - 1):
        options = [i for i, r in enumerate(rects) if split_axes(r)]
        if not options:
            raise ValueError(f"cannot construct {k} pieces on this domain")
        ri = options[int(rng.integers(len(options)))]
        r = rects.pop(ri)
        axes = split_axes(r)
        a = axes[int(rng.integers(len(axes)))]
        lo, hi = r.lo[a], r.hi[a]
        if disc:
            cut = int(rng.integers(lo + 1, hi))
        else:
            cut = lo + (hi - lo) * rng.uniform(0.2, 0.8)
        lo1, hi1 = list(r.lo), list(r.hi)
        lo2, hi2 = list(r.lo), list(r.hi)
        hi1[a] = cut
        lo2[a] = cut
        rects.append(Rect(tuple(lo1), tuple(hi1)))
        rects.append(Rect(tuple(lo2), tuple(hi2)))

    rects.sort(key=lambda r: (r.lo, r.hi))
    raw = rng.uniform(0.2, 1.0, size=len(rects))
    masses = raw / raw.sum()
    pieces = []
    for r, ms in zip(rects, masses):
        pieces.append(Piece(r, ms / volume(r, domain)))
    return HistHypothesis(domain=domain, pieces=tuple(pieces), kind=HistKind.ARBITRARY)


def sample_from(h: HistHypothesis, n: int, seed: int) -> EmpiricalDist:
    """Inverse-CDF sampling: pick a piece by mass, then uniform within it.

    All n piece choices are drawn before any offset.  Both are drawn in
    blocks of ``_DRAW_ROWS`` rows, and the offsets are written into one
    (n, d) array, so the temporaries stay bounded.  Split ``random`` calls
    continue one PCG64 stream, so the blocks give bit for bit the points of
    drawing all n choices and then all n x d offsets in one call each.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    total = h.total_mass()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"hypothesis must be normalized to mass 1, has {total}")
    rng = np.random.Generator(np.random.PCG64(seed))
    disc = h.domain.is_discrete
    masses = np.array([p.value * volume(p.rect, h.domain) for p in h.pieces])
    cum = np.cumsum(masses)
    last = len(h.pieces) - 1
    piece = np.empty(n, dtype=np.min_scalar_type(len(h.pieces)))
    for start in range(0, n, _DRAW_ROWS):
        u = rng.random(min(_DRAW_ROWS, n - start)) * cum[-1]
        piece[start : start + _DRAW_ROWS] = np.minimum(np.searchsorted(cum, u, side="right"), last)
    lo = np.array([p.rect.lo for p in h.pieces], dtype=np.float64)
    hi = np.array([p.rect.hi for p in h.pieces], dtype=np.float64)
    width, top = hi - lo, hi.astype(np.int64) - 1
    pts = np.empty((n, h.domain.dim), dtype=np.int64 if disc else np.float64)
    for start in range(0, n, _DRAW_ROWS):
        idx = piece[start : start + _DRAW_ROWS]
        off = rng.random((len(idx), h.domain.dim)) * width[idx]
        if disc:
            np.floor(off, out=off)
        off += lo[idx]
        block = pts[start : start + _DRAW_ROWS]
        block[...] = off
        if disc:
            np.minimum(block, top[idx], out=block)
    return EmpiricalDist.from_samples(h.domain, pts)


__all__ = [
    "Domain",
    "Rect",
    "DyadicRect",
    "GridSpec",
    "EmpiricalDist",
    "HistKind",
    "Piece",
    "HistHypothesis",
    "volume",
    "mass",
    "flatten",
    "l1_dist",
    "l2_sq_dist",
    "piece_coverage",
    "next_pow2",
    "gen_truth",
    "sample_from",
]
