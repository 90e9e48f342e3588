"""Reference computations the benchmark checks dyadhist's outputs against.

Nothing here imports dyadhist.  A histogram is a triple of numpy arrays
``(lo, hi, val)``: piece ``i`` is the product of half-open intervals
``[lo[i, a], hi[i, a])`` with density ``val[i]``.  A domain is a pair
``(dim, m)``: ``m`` is the side of the integer cube ``{1..m}^dim``, or None
for the unit cube ``[0,1]^dim``, whose top face counts as closed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def bounds(domain) -> tuple:
    dim, m = domain
    return (0.0, 1.0) if m is None else (1.0, float(m + 1))


def domain_volume(domain) -> float:
    dim, _ = domain
    lower, upper = bounds(domain)
    return (upper - lower) ** dim


# ---------------------------------------------------------------------------
# File parsing (the formats of README.md, read with numpy)
# ---------------------------------------------------------------------------

def parse_header(line: str):
    """``# dim=2 domain=discrete 16 kind=...`` -> (dim, m or None)."""
    require(line.startswith("#"), f"header line {line!r} does not start with '#'")
    fields = line[1:].split()
    dim = m = None
    unit = False
    for i, f in enumerate(fields):
        if f.startswith("dim="):
            dim = int(f[4:])
        elif f == "domain=unit":
            unit = True
        elif f == "domain=discrete":
            m = int(fields[i + 1])
    require(dim is not None and (unit or m is not None), f"header {line!r} lacks dim/domain")
    return (dim, m)


def _read(path, width):
    """Header domain and the numeric rows; ``width(dim)`` is the number of fields per row."""
    with open(path, encoding="utf-8") as fh:
        domain = parse_header(fh.readline())
        rows = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2, dtype=np.float64)
    require(rows.shape[1] == width(domain[0]), f"{path}: rows have {rows.shape[1]} fields")
    return domain, rows


def parse_samples(path):
    """Sample file -> (domain, points of shape (n, d)), one row per line."""
    return _read(path, lambda dim: dim)


def parse_hypothesis(path):
    """Hypothesis file -> (domain, (lo, hi, val))."""
    domain, rows = _read(path, lambda dim: 2 * dim + 1)
    dim = domain[0]
    return domain, (rows[:, 0 : 2 * dim : 2], rows[:, 1 : 2 * dim : 2], rows[:, -1])


def data_line_count(path) -> int:
    """Lines after the header that are neither blank nor comments."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")[1:]
    return sum(1 for ln in lines if ln.strip() and not ln.startswith(b"#"))


# ---------------------------------------------------------------------------
# Structure of a histogram
# ---------------------------------------------------------------------------

def volumes(hist) -> np.ndarray:
    lo, hi, _ = hist
    return np.prod(hi - lo, axis=1)


def total_mass(hist) -> float:
    return float(np.sum(volumes(hist) * hist[2]))


def check_tiling(domain, hist, what: str) -> None:
    """Pieces lie in the domain, are pairwise disjoint and fill its volume."""
    lo, hi, val = hist
    lower, upper = bounds(domain)
    require(len(val) > 0, f"{what}: no pieces")
    require(np.all(np.isfinite(val)) and np.all(val >= 0), f"{what}: bad piece values")
    require(np.all(lo >= lower) and np.all(hi <= upper) and np.all(lo <= hi),
            f"{what}: a piece leaves the domain or is inverted")
    # two pieces overlap in volume iff their open interiors meet on every axis
    meet = np.ones((len(val), len(val)), dtype=bool)
    for a in range(lo.shape[1]):
        meet &= np.maximum(lo[:, None, a], lo[None, :, a]) < np.minimum(hi[:, None, a], hi[None, :, a])
    np.fill_diagonal(meet, False)
    require(not meet.any(), f"{what}: {int(meet.sum()) // 2} pairs of pieces overlap")
    vol = float(volumes(hist).sum())
    require(math.isclose(vol, domain_volume(domain), rel_tol=1e-9),
            f"{what}: piece volumes sum to {vol}, domain has {domain_volume(domain)}")


def piece_bound(k: int, xi: float, dim: int, levels: int) -> int:
    return math.ceil(1 + xi) * 2**dim * k * levels


def adaptive_levels(points: np.ndarray) -> int:
    """Depth of the adaptive grid: log2 of the least power of 2 > distinct count."""
    distinct = max(len(np.unique(points[:, a])) for a in range(points.shape[1]))
    return int(distinct).bit_length()


# ---------------------------------------------------------------------------
# Point lookup, flattening, distances
# ---------------------------------------------------------------------------

def _inside(domain, lo, hi, pts) -> np.ndarray:
    """Half-open membership of each point in one piece; closed top face on [0,1]^d."""
    upper = bounds(domain)[1]
    ok = (pts >= lo) & ((pts < hi) | ((hi == upper) & (pts == upper) & (domain[1] is None)))
    return ok.all(axis=1)


def lookup(domain, hist, pts) -> np.ndarray:
    """Density at each point; every point must lie in exactly one piece of positive volume."""
    lo, hi, val = hist
    pts = np.asarray(pts, dtype=np.float64)
    out = np.zeros(len(pts))
    hits = np.zeros(len(pts), dtype=np.int64)
    for i in np.flatnonzero(volumes(hist) > 0):
        mask = _inside(domain, lo[i], hi[i], pts)
        out[mask] = val[i]
        hits += mask
    require(np.all(hits == 1), f"{int(np.sum(hits != 1))} points are not covered exactly once")
    return out


def flatten_samples(domain, points, counts, hist) -> np.ndarray:
    """Per piece: the sample mass inside it divided by its volume."""
    lo, hi, _ = hist
    n = float(np.sum(counts))
    vol = volumes(hist)
    out = np.zeros(len(vol))
    for i in range(len(vol)):
        inside = float(np.sum(counts[_inside(domain, lo[i], hi[i], points)]))
        out[i] = inside / n / vol[i] if vol[i] > 0 else 0.0
    return out


def _overlay(domain, *hists):
    """Per-axis cut points of every piece, and each histogram painted on the cells."""
    dim = domain[0]
    lower, upper = bounds(domain)
    cuts = [np.unique(np.concatenate([[lower, upper]] + [np.concatenate([h[0][:, a], h[1][:, a]]) for h in hists]))
            for a in range(dim)]
    shape = tuple(len(c) - 1 for c in cuts)
    painted = []
    for lo, hi, val in hists:
        dense = np.zeros(shape)
        for i in range(len(val)):
            box = tuple(slice(np.searchsorted(cuts[a], lo[i, a]), np.searchsorted(cuts[a], hi[i, a]))
                        for a in range(dim))
            dense[box] = val[i]
        painted.append(dense)
    cell = np.ones(shape)
    for a in range(dim):
        widths = np.diff(cuts[a]).reshape((-1,) + (1,) * (dim - 1 - a))
        cell = cell * widths
    return painted, cell


def l1_distance(domain, h1, h2) -> float:
    """Integral of |h1 - h2| over the domain (Lebesgue or lattice-point count)."""
    (v1, v2), cell = _overlay(domain, h1, h2)
    return float(np.sum(np.abs(v1 - v2) * cell))


def uniform(domain):
    """The one-piece histogram of mass 1."""
    dim = domain[0]
    lower, upper = bounds(domain)
    return (np.full((1, dim), lower), np.full((1, dim), upper), np.array([1.0 / domain_volume(domain)]))


def _lattice(domain, hist) -> np.ndarray:
    """A histogram on {1..m}^d as a dense array over the lattice points."""
    dim, m = domain
    require(m is not None and m**dim <= 1 << 24, "dense lattice needs a small discrete domain")
    lo, hi, val = hist
    dense = np.zeros((m,) * dim)
    for i in range(len(val)):
        dense[tuple(slice(int(lo[i, a]) - 1, int(hi[i, a]) - 1) for a in range(dim))] = val[i]
    return dense


def l2_sq_hist(domain, h1, h2) -> float:
    """Sum over lattice points of (h1 - h2)^2."""
    return float(np.sum((_lattice(domain, h1) - _lattice(domain, h2)) ** 2))


def l2_sq_samples(domain, points, counts, hist) -> float:
    """Sum over lattice points of (empirical mass - hist)^2."""
    dim, m = domain
    emp = np.zeros((m,) * dim)
    np.add.at(emp, tuple(points.astype(np.int64).T - 1), counts / float(np.sum(counts)))
    return float(np.sum((emp - _lattice(domain, hist)) ** 2))
