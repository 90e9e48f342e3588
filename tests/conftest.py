"""Shared instance generators for the test suite.

Everything is seeded through numpy Generators so failures reproduce exactly.
The helpers here deliberately avoid the production code paths they are used
to check (e.g. cell_values rasterizes hypotheses directly from piece ids).
"""

from __future__ import annotations

import numpy as np
import pytest

from dyadhist.core import (
    Domain,
    DyadicRect,
    EmpiricalDist,
    GridSpec,
    HistHypothesis,
    HistKind,
    Piece,
    volume,
)
from dyadhist.oracle import all_dyadic_rects


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_domain(rng, dim: int, discrete_m: int | None):
    if discrete_m is not None:
        return Domain.discrete(discrete_m, dim)
    return Domain.unit(dim)


def random_points(rng, domain: Domain, count: int) -> np.ndarray:
    if domain.is_discrete:
        return rng.integers(1, domain.m + 1, size=(count, domain.dim))
    return rng.random((count, domain.dim))


def random_empirical(rng, domain: Domain, count: int) -> EmpiricalDist:
    pts = random_points(rng, domain, count)
    return EmpiricalDist.from_samples(domain, pts)


def random_grid(rng, domain: Domain, cells: int, warp: bool = False) -> GridSpec:
    """Uniform grid, or (warp=True) a grid with random non-uniform boundaries."""
    if not warp:
        if domain.is_discrete and domain.m == cells:
            return GridSpec.uniform(domain, cells)
        if not domain.is_discrete:
            return GridSpec.uniform(domain, cells)
    axes = []
    for _ in range(domain.dim):
        if domain.is_discrete:
            interior = np.sort(rng.integers(1, domain.m + 2, size=cells - 1))
            ax = np.concatenate([[1], interior, [domain.m + 1]]).astype(np.float64)
        else:
            interior = np.sort(rng.random(cells - 1))
            ax = np.concatenate([[0.0], interior, [1.0]])
        axes.append(ax)
    return GridSpec(domain, tuple(axes))


def random_split_tree(rng, grid: GridSpec, max_leaves: int):
    """Sorted leaves of a random full split tree with at most ``max_leaves`` leaves.

    Splitting a leaf replaces it by 2^d children, so the achievable leaf
    counts are 1 mod (2^d - 1).
    """
    leaves = [grid.root()]
    step = (1 << grid.dim) - 1
    while len(leaves) + step <= max_leaves:
        splittable = [i for i, r in enumerate(leaves) if r.level > 0]
        if not splittable or rng.random() < 0.25:
            break
        i = splittable[int(rng.integers(len(splittable)))]
        rect = leaves.pop(i)
        leaves.extend(rect.children())
    return sorted(leaves)


def random_hier_hist(rng, grid: GridSpec, max_leaves: int, normalize: bool = True):
    """Random hierarchical histogram; normalized to total mass 1 by default."""
    leaves = random_split_tree(rng, grid, max_leaves)
    values = rng.uniform(0.1, 1.0, size=len(leaves))
    vols = np.array([grid.volume_of(r) for r in leaves])
    if normalize:
        total = float(np.dot(values, vols))
        values = values / total
    pieces = tuple(Piece(grid.rect_of(r), float(v)) for r, v in zip(leaves, values))
    return HistHypothesis(
        domain=grid.domain,
        pieces=pieces,
        kind=HistKind.HIERARCHICAL,
        grid=grid,
        dyadic=tuple(leaves),
    )


def random_partial_hist(rng, grid: GridSpec, k: int, normalize: bool = True):
    """Random partial hierarchical histogram on <= k disjoint dyadic rects."""
    rects = all_dyadic_rects(grid)
    chosen: list = []
    order = rng.permutation(len(rects))
    for i in order:
        cand = rects[i]
        if len(chosen) >= k:
            break
        if all(cand.disjoint_from(c) for c in chosen):
            if grid.volume_of(cand) > 0:
                chosen.append(cand)
    chosen = sorted(chosen)
    values = rng.uniform(0.1, 1.0, size=len(chosen))
    if normalize:
        vols = np.array([grid.volume_of(r) for r in chosen])
        values = values / float(np.dot(values, vols))
    pieces = tuple(Piece(grid.rect_of(r), float(v)) for r, v in zip(chosen, values))
    return HistHypothesis(
        domain=grid.domain,
        pieces=pieces,
        kind=HistKind.PARTIAL,
        grid=grid,
        dyadic=tuple(chosen),
    )


def cell_values(h: HistHypothesis, grid: GridSpec) -> np.ndarray:
    """Value of a grid-aligned hypothesis on each level-0 cell (test-side)."""
    out = np.zeros((grid.M,) * grid.dim)
    assert h.dyadic is not None
    for dr, piece in zip(h.dyadic, h.pieces):
        sl = tuple(slice(dr.index[a] << dr.level, (dr.index[a] + 1) << dr.level)
                   for a in range(grid.dim))
        out[sl] = piece.value
    return out


def coverage_twin(domain: Domain, pieces) -> tuple:
    """``(axes, counts)`` as ``core.piece_coverage`` gives them, one piece at a time.

    The axes are the sorted distinct piece bounds and domain bounds, and
    each piece adds 1 to every overlay cell of its block.
    """
    axes = [np.unique(np.array([domain.lower, domain.upper] + [x for p in pieces for x in (p.rect.lo[a], p.rect.hi[a])],
                               dtype=np.float64)) for a in range(domain.dim)]
    counts = np.zeros(tuple(len(ax) - 1 for ax in axes), dtype=np.int32)
    for p in pieces:
        counts[tuple(slice(int(np.searchsorted(ax, lo)), int(np.searchsorted(ax, hi)))
                     for ax, lo, hi in zip(axes, p.rect.lo, p.rect.hi))] += 1
    return axes, counts


def twin_volume(grid: GridSpec, r: DyadicRect) -> float:
    """Volume of a dyadic rectangle, in plain Python."""
    v = 1.0
    for b, i in zip(grid.axes, r.index):
        v *= float(b[(i + 1) << r.level]) - float(b[i << r.level])
    return v


def top_vol(tree) -> np.ndarray:
    """The volume at the top of each node's chain of a tree: ``chain_top`` at ``chain_at``, else the node's own."""
    top = tree.node_vol.copy()
    top[tree.chain_at] = tree.chain_top
    return top


def node_empty(tree) -> np.ndarray:
    """The largest missing-child volume on each node's chain of a tree (-1 if none), from its two sparse tables.

    A chain's value, taken over the node's own missing children too, overrides the node's own.
    """
    empty = np.full(tree.node_count, -1.0)
    empty[tree.own_at] = tree.own_empty
    empty[tree.chain_at] = tree.chain_empty
    return empty


def index_bytes(index) -> int:
    """The bytes of every array an index keeps, each array that others are views of counted once."""
    owners = {}
    for value in vars(index).values():
        for a in value if isinstance(value, list) else [value]:
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                owners[id(a)] = a.nbytes
    return sum(owners.values())


def morton_twin(cols: list, levels: int) -> list:
    """Morton key words built one bit of every axis per level, in plain shifts.

    ``cols`` holds one int, or one int64 array, per axis.  Digit b (bit b of
    every axis, axis 0 first) runs from b = levels-1 in the first word down
    to b = 0 in the last, 63 // d digits to a full word.
    """
    per_word = 63 // len(cols)
    words = []
    for top in range(levels, 0, -per_word):
        w = cols[0] * 0
        for b in range(top - 1, max(0, top - per_word) - 1, -1):
            for x in cols:
                w = (w << 1) | ((x >> b) & 1)
        words.append(w)
    return words or [cols[0] * 0]


def reference_tree(emp, grid, root):
    """Plain-Python twin of the uncompressed tree below ``root``.

    Returns ``(nodes, empty)``: ``{(level, index): mass}`` of the rectangles
    holding mass, one per level of every chain, and ``{(level, index): vol}``
    giving, for each of them, the largest volume of a missing child in its
    subtree (-1 when there is none).
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
    empty = {}
    for lev, idx in sorted(nodes):  # children before parents
        kids = DyadicRect(lev, idx).children() if lev > 0 else []
        empty[(lev, idx)] = max(
            (empty[(ch.level, ch.index)] if (ch.level, ch.index) in nodes else twin_volume(grid, ch) for ch in kids),
            default=-1.0,
        )
    return nodes, empty


def reference_lines(grid, rect, twin):
    """The fit's lines below ``rect`` from the twin: masses, volumes and the empty volume.

    ``twin`` is ``reference_tree`` over a root that contains ``rect``.
    Every node of every chain gives its own line, so the compressed tree
    is not read.  The empty volume is -1 when no rectangle below ``rect``
    is empty.
    """
    nodes, empty = twin
    below = [
        (DyadicRect(lev, idx), m)
        for (lev, idx), m in nodes.items()
        if lev <= rect.level and tuple(i >> (rect.level - lev) for i in idx) == rect.index
    ]
    return (
        np.array([m for _, m in below]),
        np.array([twin_volume(grid, r) for r, _ in below]),
        empty.get((rect.level, rect.index), twin_volume(grid, rect)),
    )


def exact_fit_minimum(m, v, ev) -> float:
    """True minimum over a >= 0 of the fit objective on these lines, from its breakpoints.

    ``m`` and ``v`` are the masses and volumes of every node below the
    rectangle, and ``ev`` its largest empty volume (-1: none), as
    ``reference_lines`` gives them.  The objective max(|m_i - a v_i|,
    a*ev) is piecewise linear.  Its minimizer over a >= 0 sits at 0 or at
    a crossing of a decreasing line (m_i - a v_i) with an increasing one,
    i.e. a = (m_i + m_j) / (v_i + v_j) (node densities when i == j, for the
    flat-envelope corner cases) or a = m_i / (v_i + ev).  Every candidate
    is evaluated by a dense scan over all nodes, with the rounding of
    ``compute_d1``.
    """
    if not len(m):
        return 0.0
    mm, vv = m[v > 0], v[v > 0]
    cand = [np.zeros(1), ((mm[:, None] + mm) / (vv[:, None] + vv)).ravel()]
    if ev > 0:
        cand.append(mm / (vv + ev))
    return float(fit_objective(m, v, ev, np.unique(np.concatenate(cand))).min())


def fit_objective(m, v, ev, a) -> np.ndarray:
    """The fit objective max(|m_i - a v_i|, a*ev) at each constant in ``a``.

    ``m``, ``v`` and ``ev`` are as ``reference_lines`` gives them (ev < 0:
    no empty term).  The rounding is that of ``compute_d1``.  The constants
    are taken in chunks, so the temporaries stay near 2^20 floats.
    """
    out = np.empty(len(a))
    step = max(1, (1 << 20) // max(1, len(m)))
    for lo in range(0, len(a), step):
        chunk = a[lo : lo + step]
        f = np.abs(m - np.multiply.outer(chunk, v)).max(axis=1, initial=0.0)
        out[lo : lo + step] = np.maximum(f, chunk * ev) if ev >= 0 else f
    return out


def lattice_points(rect, domain: Domain) -> int:
    """Count lattice points in a discrete rect by direct enumeration."""
    assert domain.is_discrete
    total = 0
    import itertools

    ranges = [range(int(l), int(h)) for l, h in zip(rect.lo, rect.hi)]
    for _ in itertools.product(*ranges):
        total += 1
    return total


def one_shot_sample_from(h: HistHypothesis, n: int, seed: int) -> EmpiricalDist:
    """``core.sample_from`` drawing all n piece choices, then all n x d offsets, in one call each."""
    rng = np.random.Generator(np.random.PCG64(seed))
    masses = np.array([p.value * volume(p.rect, h.domain) for p in h.pieces])
    cum = np.cumsum(masses)
    u = rng.random(n) * cum[-1]
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(h.pieces) - 1)
    lo = np.array([p.rect.lo for p in h.pieces], dtype=np.float64)[idx]
    hi = np.array([p.rect.hi for p in h.pieces], dtype=np.float64)[idx]
    frac = rng.random((n, h.domain.dim))
    if h.domain.is_discrete:
        pts = (lo + np.floor(frac * (hi - lo))).astype(np.int64)
        pts = np.minimum(pts, hi.astype(np.int64) - 1)
    else:
        pts = lo + frac * (hi - lo)
    return EmpiricalDist.from_samples(h.domain, pts)


@pytest.fixture
def rng():
    return make_rng(20240817)
