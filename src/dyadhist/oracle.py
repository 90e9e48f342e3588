"""Exact brute-force baselines at desk scale.

Everything here is deterministic, pure, and guarded: enumerations abort with
OracleGuardError instead of grinding.  These routines exist to certify the
learners' guarantees on small instances, so they favor straight-line clarity
and independence from the production code paths they check.

The search space exploits the laminar structure of dyadic rectangles: two of
them are disjoint iff neither contains the other, and any disjoint family is
an antichain of the split tree, so maxima over "unions of at most k disjoint
rectangles" reduce to a small tree knapsack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    DyadicRect,
    EmpiricalDist,
    GridSpec,
    HistHypothesis,
    HistKind,
    Piece,
)
from .ddist import check_dyadic
from .errors import OracleGuardError


@dataclass(frozen=True)
class OracleGuard:
    max_dyadic_rects: int = 10_000
    max_partitions: int = 1_000_000


DEFAULT_GUARD = OracleGuard()


# ---------------------------------------------------------------------------
# Shared enumeration helpers
# ---------------------------------------------------------------------------

def all_dyadic_rects(grid: GridSpec, guard: OracleGuard = DEFAULT_GUARD) -> list:
    total = grid.dyadic_rect_count()
    if total > guard.max_dyadic_rects:
        raise OracleGuardError(f"{total} dyadic rectangles exceeds guard")
    out = []
    for lev in range(grid.levels + 1):
        side = grid.M >> lev
        for idx in itertools.product(range(side), repeat=grid.dim):
            out.append(DyadicRect(lev, idx))
    return out


def _cell_counts(fhat: EmpiricalDist, grid: GridSpec, rect: DyadicRect) -> np.ndarray:
    """Sample count of every level-0 cell of ``rect``, shape (2^level,)*d."""
    counts = np.zeros((1 << rect.level,) * grid.dim, dtype=np.int64)
    if fhat.support_size:
        cells = grid.cell_index(fhat.points)
        inside = ((cells >> rect.level) == np.asarray(rect.index)).all(axis=1)
        rel = cells[inside] - (np.asarray(rect.index, dtype=np.int64) << rect.level)
        np.add.at(counts, tuple(rel.T), fhat.counts[inside])
    return counts


def cell_masses(g, grid: GridSpec) -> np.ndarray:
    """Mass of ``g`` on every level-0 cell, shape (M,)*d."""
    if isinstance(g, EmpiricalDist):
        return _cell_counts(g, grid, grid.root()) / (g.n if g.support_size else 1)
    out = np.zeros((grid.M,) * grid.dim)
    for p in g.pieces:
        factors = []
        for a in range(grid.dim):
            b = grid.axes[a]
            lo = np.maximum(b[:-1], float(p.rect.lo[a]))
            hi = np.minimum(b[1:], float(p.rect.hi[a]))
            factors.append(np.maximum(0.0, hi - lo))
        ov = factors[0]
        for f in factors[1:]:
            ov = np.multiply.outer(ov, f)
        out += p.value * ov
    return out


def _level_sums(cells: np.ndarray, levels: int) -> dict:
    """Aggregate the cell array to every dyadic level (level -> array)."""
    out = {0: cells}
    cur = cells
    d = cells.ndim
    for lev in range(1, levels + 1):
        for ax in range(d):
            s = cur.shape[ax] // 2
            cur = cur.reshape(cur.shape[:ax] + (s, 2) + cur.shape[ax + 1 :]).sum(axis=ax + 1)
        out[lev] = cur
    return out


# ---------------------------------------------------------------------------
# D_k distance by tree knapsack
# ---------------------------------------------------------------------------

def dk_distance(u_cells: np.ndarray, grid: GridSpec, k: int,
                guard: OracleGuard = DEFAULT_GUARD) -> float:
    """Max |u(U)| over unions U of at most k disjoint dyadic rectangles.

    ``u_cells`` holds the signed mass of the overlay on every level-0 cell.
    A disjoint family of dyadic rectangles is an antichain of the split tree,
    so the maximum is a knapsack over the tree: at each node either take the
    node itself (spending one rectangle) or distribute the budget among the
    children.  Both signs are searched; the empty union contributes 0.
    """
    if grid.dyadic_rect_count() > guard.max_dyadic_rects:
        raise OracleGuardError("grid too large for dk_distance")
    if k < 1:
        raise ValueError("k must be >= 1")
    u_cells = np.asarray(u_cells, dtype=np.float64).reshape((grid.M,) * grid.dim)
    sums = _level_sums(u_cells, grid.levels)
    d = grid.dim

    def best(masses: dict, level: int, idx: tuple) -> np.ndarray:
        own = float(masses[level][idx])
        if level == 0:
            res = np.zeros(k + 1)
            res[1:] = max(own, 0.0)
            return res
        dp = np.zeros(k + 1)
        for bits in range(1 << d):
            child = tuple(2 * idx[a] + ((bits >> (d - 1 - a)) & 1) for a in range(d))
            ch = best(masses, level - 1, child)
            ndp = dp.copy()
            for j in range(k + 1):
                ndp[j] = max(dp[j - t] + ch[t] for t in range(j + 1))
            dp = ndp
        dp[1:] = np.maximum(dp[1:], own)
        return np.maximum.accumulate(dp)

    plus = best(sums, grid.levels, (0,) * d)[k]
    minus = best({l: -m for l, m in sums.items()}, grid.levels, (0,) * d)[k]
    return float(max(plus, minus, 0.0))


def dk_distance_between(g1, g2, grid: GridSpec, k: int,
                        guard: OracleGuard = DEFAULT_GUARD) -> float:
    """D_k distance between two empiricals/hypotheses via their cell overlay."""
    return dk_distance(cell_masses(g1, grid) - cell_masses(g2, grid), grid, k, guard)


# ---------------------------------------------------------------------------
# Optimal hierarchical fits
# ---------------------------------------------------------------------------

def _tree_partitions(grid: GridSpec, k: int, guard: OracleGuard):
    """All partitions of the root into <= k dyadic leaves (full split trees)."""
    d = grid.dim
    counter = [0]

    def parts(rect: DyadicRect, budget: int):
        if budget < 1:
            return
        counter[0] += 1
        if counter[0] > guard.max_partitions:
            raise OracleGuardError("partition enumeration exceeds guard")
        yield (rect,)
        if rect.level > 0 and budget >= (1 << d):
            children = rect.children()

            def combine(i: int, remaining: int):
                if i == len(children):
                    yield ()
                    return
                reserve = len(children) - 1 - i
                for head in parts(children[i], remaining - reserve):
                    for tail in combine(i + 1, remaining - len(head)):
                        yield head + tail

            yield from combine(0, budget)

    yield from parts(grid.root(), k)


def _flat_l2_err(g: EmpiricalDist, grid: GridSpec, rect: DyadicRect,
                 cells: np.ndarray) -> tuple:
    """(flattening value, exact squared error) of ``g`` on a dyadic rect."""
    mask = np.ones(len(cells), dtype=bool)
    for a in range(grid.dim):
        mask &= (cells[:, a] >> rect.level) == rect.index[a]
    masses = g.counts[mask] / (g.n if g.support_size else 1)
    vol = grid.volume_of(rect)
    if vol <= 0:
        return 0.0, 0.0
    a_val = float(masses.sum()) / vol
    err = float(np.sum((masses - a_val) ** 2)) + (vol - len(masses)) * a_val * a_val
    return a_val, max(0.0, err)


def opt_hier_l2(g: EmpiricalDist, grid: GridSpec, k: int,
                guard: OracleGuard = DEFAULT_GUARD):
    """Exact best squared error over hierarchical partitions with <= k leaves.

    Returns ``(value, argmin hypothesis)``; every leaf takes the flattening,
    which is the optimal constant.
    """
    if grid.dyadic_rect_count() > guard.max_dyadic_rects:
        raise OracleGuardError("grid too large for opt_hier_l2")
    cells = (
        grid.cell_index(g.points)
        if g.support_size
        else np.zeros((0, grid.dim), dtype=np.int64)
    )
    cache: dict = {}

    def leaf_stats(rect):
        if rect not in cache:
            cache[rect] = _flat_l2_err(g, grid, rect, cells)
        return cache[rect]

    best_val = np.inf
    best_leaves = None
    seen = 0
    for part in _tree_partitions(grid, k, guard):
        seen += 1
        if seen > guard.max_partitions:
            raise OracleGuardError("partition enumeration exceeds guard")
        val = sum(leaf_stats(r)[1] for r in part)
        if best_leaves is None or val < best_val:
            best_val = val
            best_leaves = part
    leaves = sorted(best_leaves)
    hyp = HistHypothesis(
        domain=grid.domain,
        pieces=tuple(Piece(grid.rect_of(r), leaf_stats(r)[0]) for r in leaves),
        kind=HistKind.HIERARCHICAL,
        grid=grid,
        dyadic=tuple(leaves),
    )
    return float(best_val), hyp


def opt_hier_l2_dp_1d(g: EmpiricalDist, grid: GridSpec, k: int) -> float:
    """Independent 1-d check of opt_hier_l2: interval dynamic program."""
    if grid.dim != 1:
        raise ValueError("the DP cross-check is one-dimensional")
    cells = (
        grid.cell_index(g.points)
        if g.support_size
        else np.zeros((0, 1), dtype=np.int64)
    )
    memo: dict = {}

    def rec(level: int, idx: int, budget: int) -> float:
        key = (level, idx, budget)
        if key in memo:
            return memo[key]
        best = _flat_l2_err(g, grid, DyadicRect(level, (idx,)), cells)[1]
        if level > 0 and budget >= 2:
            for j1 in range(1, budget):
                best = min(best, rec(level - 1, 2 * idx, j1) + rec(level - 1, 2 * idx + 1, budget - j1))
        memo[key] = best
        return best

    return rec(grid.levels, 0, k)


# ---------------------------------------------------------------------------
# Optimal partial hierarchical fit in D_k distance
# ---------------------------------------------------------------------------

def _disjoint_unions(rects: list, k: int, guard: OracleGuard) -> list:
    """All tuples of <= k mutually disjoint rect indices (ascending)."""
    n = len(rects)
    unions = [()]
    frontier = [(i,) for i in range(n)]
    unions.extend(frontier)
    for _ in range(1, k):
        nxt = []
        for combo in frontier:
            for j in range(combo[-1] + 1, n):
                if all(rects[i].disjoint_from(rects[j]) for i in combo):
                    nxt.append(combo + (j,))
                    if len(unions) + len(nxt) > guard.max_partitions:
                        raise OracleGuardError("union enumeration exceeds guard")
        unions.extend(nxt)
        frontier = nxt
    return unions


def opt_partial_hier_dk(fhat: EmpiricalDist, grid: GridSpec, k: int,
                        guard: OracleGuard = DEFAULT_GUARD,
                        _order: str = "forward") -> float:
    """Exact min over partial hierarchical k-histograms of the D_k distance.

    Support sets range over every family of <= k pairwise-disjoint dyadic
    rectangles (value 0 elsewhere).  For a fixed support the objective
    ``max over unions U of |fhat(U) - h(U)|`` is piecewise-linear convex in
    the constants, so each support is solved exactly as a tiny linear
    program; supports are pruned with cheap lower/upper bounds first.
    """
    from scipy.optimize import linprog  # imported here: it costs half a second to import

    if k < 1:
        raise ValueError("k must be >= 1")
    rects = all_dyadic_rects(grid, guard)
    sums = _level_sums(_cell_counts(fhat, grid, grid.root()), grid.levels)
    n = fhat.n if fhat.support_size else 1

    rect_count = np.array([int(sums[r.level][r.index]) for r in rects], dtype=np.int64)
    rect_mass = rect_count / n
    rect_vol = np.array([grid.volume_of(r) for r in rects])

    unions = _disjoint_unions(rects, k, guard)
    pad = len(rects)
    comp = np.full((len(unions), k), pad, dtype=np.int64)
    for i, u in enumerate(unions):
        comp[i, : len(u)] = u
    f_union = np.concatenate([rect_mass, [0.0]])[comp].sum(axis=1)
    abs_f = np.abs(f_union)

    def overlap_with(s: int) -> np.ndarray:
        """vol(r ∩ rects[s]) for every rect r (laminar: min of the volumes)."""
        out = np.zeros(len(rects))
        rs = rects[s]
        for i, r in enumerate(rects):
            if rs.contains(r):
                out[i] = rect_vol[i]
            elif r.contains(rs):
                out[i] = rect_vol[s]
        return out

    col_cache: dict = {}

    def union_weights(s: int) -> np.ndarray:
        """vol(U ∩ rects[s]) for every union U, computed once per rect."""
        if s not in col_cache:
            col_cache[s] = np.concatenate([overlap_with(s), [0.0]])[comp].sum(axis=1)
        return col_cache[s]

    def weights(support: tuple) -> tuple:
        W = np.column_stack([union_weights(s) for s in support])
        return W, W.sum(axis=1) > 0

    # supports are the nonempty unions; the empty support means h == 0.  Only
    # the bounds are kept per support: its weight matrix is rebuilt from the
    # cached columns when it reaches the LP, so memory grows as rects x unions,
    # not as unions^2 x k
    best = float(abs_f.max())
    candidates = []
    for support in unions[1:]:
        W, covered = weights(support)
        lb = float(abs_f[~covered].max()) if (~covered).any() else 0.0
        a_flat = np.array(
            [rect_mass[s] / rect_vol[s] if rect_vol[s] > 0 else 0.0 for s in support]
        )
        ub = float(np.abs(f_union - W @ a_flat).max())
        candidates.append((ub, lb, support))
        if ub < best:
            best = ub

    # processing order only affects pruning, never the exact minimum;
    # _order="reversed" exists so tests can cross-check enumeration orders
    candidates.sort(key=lambda c: c[0], reverse=(_order == "reversed"))
    for ub, lb, support in candidates:
        if lb >= best - 1e-12:
            continue
        W, covered = weights(support)
        if not covered.any():
            best = min(best, lb)
            continue
        j = len(support)
        rows_w = W[covered]
        rows_f = f_union[covered]
        A = np.vstack(
            [
                np.hstack([-rows_w, -np.ones((len(rows_w), 1))]),
                np.hstack([rows_w, -np.ones((len(rows_w), 1))]),
            ]
        )
        b = np.concatenate([-rows_f, rows_f])
        c = np.zeros(j + 1)
        c[-1] = 1.0
        res = linprog(
            c,
            A_ub=A,
            b_ub=b,
            bounds=[(0, None)] * j + [(lb, None)],
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"support LP failed: {res.message}")
        best = min(best, float(res.fun))
    return best


# ---------------------------------------------------------------------------
# Max dyadic discrepancy against a constant
# ---------------------------------------------------------------------------

_BRUTE_GUARD = 10**6  # dyadic rectangles brute_d1 may enumerate


def brute_d1(fhat: EmpiricalDist, grid: GridSpec, rect: DyadicRect, a: float):
    """Exhaustive twin of ``ddist.compute_d1``: scan every dyadic sub-rectangle of ``rect``.

    Returns ``(err, witness)``, the witness being the least (level, index)
    rectangle at the maximum.  The integer counts are aggregated per level
    and divided by n once, so ``err`` matches ``compute_d1`` bit for bit on
    any instance within the guard, ``_BRUTE_GUARD`` rectangles.  The witness
    may differ: ``compute_d1`` takes the least among tree nodes and their
    missing children, and zero-width halves let an empty rectangle of the
    largest volume nest inside a larger empty one.
    """
    check_dyadic(grid, rect)
    d, depth = grid.dim, rect.level
    total = sum((1 << (depth - lev)) ** d for lev in range(depth + 1))
    if total > _BRUTE_GUARD:
        raise OracleGuardError(f"{total} dyadic rectangles exceeds guard {_BRUTE_GUARD}")
    n = fhat.n if fhat.support_size else 1
    best = (-1.0, None)
    for lev, level_counts in _level_sums(_cell_counts(fhat, grid, rect), depth).items():
        offset = [(i << (depth - lev)) + np.arange(1 << (depth - lev), dtype=np.int64) for i in rect.index]
        widths = [b[(i + 1) << lev] - b[i << lev] for b, i in zip(grid.axes, offset)]
        vols = reduce(np.multiply.outer, widths)
        disc = np.abs(level_counts / n - a * vols)
        i = int(np.argmax(disc))  # C-order ravel = lexicographic index order
        if disc.flat[i] > best[0]:
            index = tuple(int(o[j]) for o, j in zip(offset, np.unravel_index(i, disc.shape)))
            best = (float(disc.flat[i]), DyadicRect(lev, index))
    return best


__all__ = [
    "OracleGuard",
    "DEFAULT_GUARD",
    "all_dyadic_rects",
    "brute_d1",
    "cell_masses",
    "dk_distance",
    "dk_distance_between",
    "opt_hier_l2",
    "opt_hier_l2_dp_1d",
    "opt_partial_hier_dk",
]
