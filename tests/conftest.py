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


def exact_fit_minimum(tree) -> float:
    """True minimum over a >= 0 of a tree's fit objective, from its breakpoints.

    The objective max(|m_i - a v_i|, a*V_empty) is piecewise linear.  Its
    minimizer over a >= 0 sits at 0 or at a crossing of a decreasing line
    (m_i - a v_i) with an increasing one, i.e. a = (m_i + m_j) / (v_i + v_j)
    (node densities when i == j, for the flat-envelope corner cases) or
    a = m_i / (v_i + V_empty).  Every candidate is evaluated by a dense
    scan over all nodes, with the rounding of ``compute_d1``.
    """
    m, v, ev = tree.node_mass, tree.node_vol, tree.max_empty_vol  # ev < 0: no empty term
    mm, vv = m[v > 0], v[v > 0]
    cand = [np.zeros(1), ((mm[:, None] + mm) / (vv[:, None] + vv)).ravel()]
    if ev > 0:
        cand.append(mm / (vv + ev))
    cand = np.unique(np.concatenate(cand))
    best = np.inf
    for chunk in np.array_split(cand, 1 + len(cand) * len(m) // (1 << 20)):
        f = np.abs(m - np.multiply.outer(chunk, v)).max(axis=1, initial=0.0)
        if ev >= 0:
            f = np.maximum(f, chunk * ev)
        best = min(best, float(f.min()))
    return best


def lattice_points(rect, domain: Domain) -> int:
    """Count lattice points in a discrete rect by direct enumeration."""
    assert domain.is_discrete
    total = 0
    import itertools

    ranges = [range(int(l), int(h)) for l, h in zip(rect.lo, rect.hi)]
    for _ in itertools.product(*ranges):
        total += 1
    return total


@pytest.fixture
def rng():
    return make_rng(20240817)
