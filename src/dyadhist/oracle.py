"""Exact baselines at desk scale: brute-force enumerations and two tree knapsacks.

Everything here is deterministic, pure, and guarded: one set of module
limits is checked before any work, and enumerations and knapsacks abort with
OracleGuardError instead of grinding.  A sample set or hypothesis on another
domain than the grid's raises ValueError, by a check of this module's own.
These routines exist to certify the learners' guarantees on small
instances, so they favor straight-line clarity and independence from the
production code paths they check.

The search space exploits the laminar structure of dyadic rectangles: two of
them are disjoint iff neither contains the other, and any disjoint family is
an antichain of the split tree, so maxima over "unions of at most k disjoint
rectangles" (``dk_distance``) and minima over hierarchical partitions with at
most k leaves (``opt_hier_l2``) reduce to small knapsacks over the split tree.
The tests check each knapsack against a plain enumeration of its definition.
"""

from __future__ import annotations

import itertools
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
from .errors import OracleGuardError, UnsupportedDomainError

_MAX_RECTS = 10_000  # dyadic rectangles of a grid the oracles take
_MAX_PARTITIONS = 1_000_000  # knapsack merge steps or unions an oracle may visit


# ---------------------------------------------------------------------------
# Shared enumeration helpers
# ---------------------------------------------------------------------------

def _check_rects(grid: GridSpec) -> None:
    """Refuse a grid with more than ``_MAX_RECTS`` dyadic rectangles, before any allocation."""
    total = grid.dyadic_rect_count()
    if total > _MAX_RECTS:
        raise OracleGuardError(f"{total} dyadic rectangles exceeds guard {_MAX_RECTS}")


def _check_domain(g, grid: GridSpec) -> None:
    """Refuse a sample set or hypothesis on another domain than ``grid``'s, whose cells would take wrong mass."""
    if g.domain != grid.domain:
        raise ValueError(f"{type(g).__name__} on {g.domain} and grid on {grid.domain} disagree on the domain")


def all_dyadic_rects(grid: GridSpec) -> list:
    _check_rects(grid)
    out = []
    for lev in range(grid.levels + 1):
        side = grid.M >> lev
        for idx in itertools.product(range(side), repeat=grid.dim):
            out.append(DyadicRect(lev, idx))
    return out


def _cell_counts(fhat: EmpiricalDist, grid: GridSpec, rect: DyadicRect) -> np.ndarray:
    """Sample count of every level-0 cell of ``rect``, shape (2^level,)*d."""
    counts = np.zeros((1 << rect.level,) * grid.dim, dtype=np.int64)
    cells = grid.cell_index(fhat.points)
    inside = ((cells >> rect.level) == np.asarray(rect.index)).all(axis=1)
    rel = cells[inside] - (np.asarray(rect.index, dtype=np.int64) << rect.level)
    np.add.at(counts, tuple(rel.T), fhat.counts[inside])
    return counts


def cell_masses(g, grid: GridSpec) -> np.ndarray:
    """Mass of ``g`` on every level-0 cell, shape (M,)*d; ``g`` on another domain raises ``ValueError``."""
    _check_rects(grid)
    _check_domain(g, grid)
    if isinstance(g, EmpiricalDist):
        return _cell_counts(g, grid, grid.root()) / g.n
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

def dk_distance(u_cells: np.ndarray, grid: GridSpec, k: int) -> float:
    """Max |u(U)| over unions U of at most k disjoint dyadic rectangles.

    ``u_cells`` holds the signed mass of the overlay on every level-0 cell.
    A disjoint family of dyadic rectangles is an antichain of the split tree,
    so the maximum is a knapsack over the tree: at each node either take the
    node itself (spending one rectangle) or distribute the budget among the
    children.  Both signs are searched; the empty union contributes 0.  A
    subtree of c cells holds at most c disjoint rectangles, so its table
    stops at a budget of min(k, c): past it the values saturate, and the
    root's last entry is the value at k, exactly.  The knapsack runs a level
    at a time, over all its nodes at once, so its cost grows with the grid,
    not with k.
    """
    _check_rects(grid)
    if k < 1:
        raise ValueError("k must be >= 1")
    u_cells = np.asarray(u_cells, dtype=np.float64).reshape((grid.M,) * grid.dim)
    sums = _level_sums(u_cells, grid.levels)
    d = grid.dim

    def best(masses: dict) -> float:
        """The root's last entry; entry j of a node's table is the most that j disjoint rectangles in it hold."""
        own = masses[0]
        dp = np.zeros(own.shape + (2,))
        dp[..., 1] = np.where(0.0 > own, 0.0, own)  # max(own, 0.0)
        for level in range(1, grid.levels + 1):
            budget = min(k, 1 << (level * d))
            acc = np.zeros(masses[level].shape + (budget + 1,))
            for bits in range(1 << d):  # merging a child: acc[j] = max over t <= j of acc[j - t] + ch[t]
                ch = dp[tuple(slice((bits >> (d - 1 - a)) & 1, None, 2) for a in range(d))]
                merged = acc + ch[..., :1]
                for t in range(1, ch.shape[-1]):
                    np.maximum(merged[..., t:], acc[..., : budget + 1 - t] + ch[..., t : t + 1], out=merged[..., t:])
                acc = merged
            acc[..., 1:] = np.maximum(acc[..., 1:], masses[level][..., None])
            dp = np.maximum.accumulate(acc, axis=-1)
        return dp.reshape(-1)[-1]

    plus = best(sums)
    minus = best({l: -m for l, m in sums.items()})
    return float(max(plus, minus, 0.0))


def dk_distance_between(g1, g2, grid: GridSpec, k: int) -> float:
    """D_k distance between two empiricals/hypotheses via their cell overlay."""
    return dk_distance(cell_masses(g1, grid) - cell_masses(g2, grid), grid, k)


# ---------------------------------------------------------------------------
# Optimal hierarchical fits
# ---------------------------------------------------------------------------

def _flat_l2_err(g: EmpiricalDist, grid: GridSpec, rect: DyadicRect,
                 cells: np.ndarray) -> tuple:
    """(flattening value, exact squared error) of ``g`` on a dyadic rect."""
    mask = np.ones(len(cells), dtype=bool)
    for a in range(grid.dim):
        mask &= (cells[:, a] >> rect.level) == rect.index[a]
    masses = g.counts[mask] / g.n
    vol = grid.volume_of(rect)
    if vol <= 0:
        return 0.0, 0.0
    a_val = float(masses.sum()) / vol
    err = float(np.sum((masses - a_val) ** 2)) + (vol - len(masses)) * a_val * a_val
    return a_val, max(0.0, err)


def opt_hier_l2(g: EmpiricalDist, grid: GridSpec, k: int):
    """Exact best squared error over hierarchical partitions with <= k leaves.

    A knapsack over the split tree, as in ``dk_distance``: with at most j
    leaves a rectangle either takes its own flattening or, when j >= 2^d,
    splits j among its 2^d children, each taking at least one leaf.  Each
    entry carries its argmin leaves, the fewer of two at equal error.
    Returns ``(value, argmin hypothesis)``; every leaf takes the flattening,
    which is the optimal constant.
    """
    _check_rects(grid)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not g.domain.is_discrete:  # _flat_l2_err counts a rect's lattice points by its volume
        raise UnsupportedDomainError("the squared-error oracle needs a discrete cube")
    _check_domain(g, grid)
    cells = grid.cell_index(g.points)
    fan = 1 << grid.dim
    steps = 0

    def merge(acc: list, ch: list) -> list:
        """Min-plus merge: entry t takes t + 1 more leaves than ``acc``'s entry 0."""
        nonlocal steps
        steps += len(acc) * len(ch)
        if steps > _MAX_PARTITIONS:
            raise OracleGuardError("knapsack merge steps exceed guard")
        out = []
        for t in range(min(len(acc) + len(ch) - 1, k - fan + 1)):  # a leaf left for each later child
            e, n, i = min((acc[i][0] + ch[t - i][0], acc[i][1] + ch[t - i][1], i)
                          for i in range(max(0, t + 1 - len(ch)), min(t + 1, len(acc))))
            out.append((e, n, acc[i][2] + ch[t - i][2]))
        return out

    def best(rect: DyadicRect) -> list:
        """Entry j: (error, leaf count, leaves) of the best split tree of ``rect`` with <= j + 1 leaves."""
        own = (_flat_l2_err(g, grid, rect, cells)[1], 1, (rect,))
        if rect.level == 0 or k < fan:
            return [own]
        kids = [best(c) for c in rect.children()]
        return list(itertools.accumulate([own] * (fan - 1) + reduce(merge, kids[1:], kids[0]), min))

    val, _, leaves = best(grid.root())[-1]
    leaves = sorted(leaves)
    hyp = HistHypothesis(
        domain=grid.domain,
        pieces=tuple(Piece(grid.rect_of(r), _flat_l2_err(g, grid, r, cells)[0]) for r in leaves),
        kind=HistKind.HIERARCHICAL,
        grid=grid,
        dyadic=tuple(leaves),
    )
    return float(val), hyp


# ---------------------------------------------------------------------------
# Optimal partial hierarchical fit in D_k distance
# ---------------------------------------------------------------------------

# opt_partial_hier_dk's cached rects x unions floats (about 0.5 GB), and the
# supports x unions column reads of its pruning pass
_COLUMN_GUARD = 1 << 26


def _disjoint_unions(rects: list, k: int) -> list:
    """All tuples of <= k mutually disjoint rect indices (ascending).

    Stops when no union grows, so a k past the largest disjoint family
    costs no more than that family's size.  Raises as soon as the unions
    pass ``_MAX_PARTITIONS``, or rects x unions, the floats of
    ``opt_partial_hier_dk``'s cached union-weight columns, passes
    ``_COLUMN_GUARD``.
    """
    n = len(rects)
    unions, frontier = [()], [()]
    for _ in range(k):
        nxt = []
        for combo in frontier:
            for j in range(combo[-1] + 1 if combo else 0, n):
                if all(rects[i].disjoint_from(rects[j]) for i in combo):
                    nxt.append(combo + (j,))
                    total = len(unions) + len(nxt)
                    if total > _MAX_PARTITIONS:
                        raise OracleGuardError("union enumeration exceeds guard")
                    if n * total > _COLUMN_GUARD:
                        raise OracleGuardError(f"{n} rectangles x {total} unions exceeds guard {_COLUMN_GUARD}")
        if not nxt:
            break
        unions.extend(nxt)
        frontier = nxt
    return unions


def opt_partial_hier_dk(fhat: EmpiricalDist, grid: GridSpec, k: int) -> float:
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
    _check_domain(fhat, grid)
    rects = all_dyadic_rects(grid)
    sums = _level_sums(_cell_counts(fhat, grid, grid.root()), grid.levels)
    rect_count = np.array([int(sums[r.level][r.index]) for r in rects], dtype=np.int64)
    rect_mass = rect_count / fhat.n
    rect_vol = np.array([grid.volume_of(r) for r in rects])

    unions = _disjoint_unions(rects, k)
    # the pruning pass reads every support's columns over every union
    if (len(unions) - 1) * len(unions) > _COLUMN_GUARD:
        raise OracleGuardError(
            f"{len(unions) - 1} supports x {len(unions)} unions exceeds guard {_COLUMN_GUARD}"
        )
    pad = len(rects)
    comp = np.full((len(unions), len(unions[-1])), pad, dtype=np.int64)  # the last union is a longest
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
    # cached columns when it reaches the LP, so memory grows as rects x unions
    # (bounded by _COLUMN_GUARD), not as unions^2 x k
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

    # processing order only affects pruning, never the exact minimum
    candidates.sort(key=lambda c: c[0])
    for ub, lb, support in candidates:
        if lb >= best - 1e-12:
            continue
        # a support that covers no union has lb = max |f_union| >= best: skipped above
        W, covered = weights(support)
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


def brute_d1(fhat: EmpiricalDist, grid: GridSpec, rect: DyadicRect, a: float) -> float:
    """Exhaustive twin of ``ddist.compute_d1``: scan every dyadic sub-rectangle of ``rect``.

    Returns the largest discrepancy |mass - a*vol|.  The integer counts are
    aggregated per level and divided by n once, so it matches
    ``compute_d1`` bit for bit on any instance within the guard,
    ``_BRUTE_GUARD`` rectangles.
    """
    if not a >= 0:  # nan fails too
        raise ValueError(f"constant a must be nonnegative, got {a}")
    _check_domain(fhat, grid)
    check_dyadic(grid, rect)
    d, depth = grid.dim, rect.level
    total = sum((1 << (depth - lev)) ** d for lev in range(depth + 1))
    if total > _BRUTE_GUARD:
        raise OracleGuardError(f"{total} dyadic rectangles exceeds guard {_BRUTE_GUARD}")
    best = -1.0
    for lev, level_counts in _level_sums(_cell_counts(fhat, grid, rect), depth).items():
        offset = [(i << (depth - lev)) + np.arange(1 << (depth - lev), dtype=np.int64) for i in rect.index]
        widths = [b[(i + 1) << lev] - b[i << lev] for b, i in zip(grid.axes, offset)]
        vols = reduce(np.multiply.outer, widths)
        best = max(best, float(np.abs(level_counts / fhat.n - a * vols).max()))
    return best


__all__ = [
    "all_dyadic_rects",
    "brute_d1",
    "cell_masses",
    "dk_distance",
    "dk_distance_between",
    "opt_hier_l2",
    "opt_partial_hier_dk",
]
