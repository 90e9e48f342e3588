"""Greedy dyadic splitting learners.

Three variants share one loop: starting from the root of a grid's dyadic
decomposition, repeat ``levels`` times: rank the leaves by score, pick the
``ceil((1+xi)*k)`` worst ones, and split each chosen leaf that still can be
split and has positive score into its 2^d children.

* ``greedy_split``      scores a leaf by the best-constant max dyadic
                        discrepancy (``fit_d1``) and outputs the best
                        constants.
* ``greedy_split_l2``   scores by the exact squared error of the flattening
                        (discrete domains) and outputs flattenings.
* ``adaptive_greedy_split`` first builds the data-dependent grid whose axis
                        boundaries are the distinct sample coordinates,
                        removing any dependence on the ambient domain size.

Each leaf is scored once, when made: the root before the first round and
each child when its parent splits.  An unsplit leaf's score cannot change,
so results are identical to rescoring every round.  The trace keeps each
score once, in ``SplitTrace.scores``, and per round only the chosen and
split leaves.  Everything is deterministic: ties in "largest e_R" break by
(e desc, level desc, index asc).

The loop keeps the leaves in arrays: one lexsort a round picks them, and a
child's run of support points in the learner's ``MortonIndex`` is found
inside its parent's.  The adaptive grid's builder gives the index the
support's cells, read off the same pass that sorts each axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    DyadicRect,
    EmpiricalDist,
    GridSpec,
    HistHypothesis,
    HistKind,
    Piece,
    Rect,
    next_pow2,
)
from .ddist import MortonIndex, build_tree, fit_d1
from .errors import DegenerateRegionError, UnsupportedDomainError


@dataclass(frozen=True)
class SplitParams:
    """Knobs of the greedy splitters.

    ``xi`` is the overshoot factor: each round splits up to ceil((1+xi)*k)
    leaves.  The number of rounds is the grid depth.
    """

    k: int
    xi: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.xi < math.inf:
            raise ValueError(f"xi must be positive and finite, got {self.xi}")


def piece_bound(k: int, xi: float, dim: int, levels: int) -> int:
    """Hard cap on the leaf count: ceil(1+xi) * 2^d * k * levels (>= 1)."""
    return max(1, math.ceil(1.0 + xi) * (1 << dim) * k * levels)


@dataclass
class IterationRecord:
    iteration: int
    chosen: list
    split: list


def _name(r) -> str:
    return f"{r.level}:{','.join(map(str, r.index))}"


@dataclass
class SplitTrace:
    """The scored tree and each round's choices.

    ``scores`` holds each scored rect's ``(a, err)``: the root first, then
    each split's children in order.
    """

    scores: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)

    def to_text(self) -> str:
        """Canonical serialization, replayed from the root; byte-equal traces mean identical runs."""
        leaves = {next(iter(self.scores))} if self.scores else set()
        out = []
        for rec in self.iterations:
            out.append(f"iteration {rec.iteration}")
            for r in sorted(leaves):
                a, e = self.scores[r]
                out.append(f"  leaf {_name(r)} a={a!r} e={e!r}")
            out.append("  chosen " + " ".join(map(_name, rec.chosen)))
            out.append("  split " + " ".join(map(_name, rec.split)))
            for r in rec.split:
                leaves.remove(r)
                leaves.update(r.children())
        return "\n".join(out) + "\n"


def _run_split_loop(grid, params, index, score):
    """Shared loop; ``score(rect, run) -> (a, err)`` is called once per leaf, when it is made.

    Every leaf made so far is kept in arrays (level, index per axis, err,
    and the ends of its run of points in ``index``) beside its rect and its
    ``(a, err)``; ``live`` marks the current leaves.  A round picks its
    leaves by one lexsort on (-err, -level, index), makes the children of
    the leaves it splits by bit arithmetic and finds their runs inside
    their parents'.  Returns the current leaves' rects, levels, indices and
    constants, and the trace.
    """
    d, n_split = grid.dim, math.ceil((1.0 + params.xi) * params.k)
    bits = (np.arange(1 << d)[:, None] >> np.arange(d)[::-1]) & 1  # child -> its bit on each axis
    root = grid.root()
    run = index.run(root)
    rects, fits = [root], [score(root, run)]
    trace = SplitTrace({root: fits[0]})
    level, cell = np.array([root.level], dtype=np.int8), np.zeros((1, d), dtype=np.int64)
    err, ends, live = np.array([fits[0][1]]), np.array([run[:2]]), np.ones(1, dtype=bool)

    for it in range(1, grid.levels + 1):
        at = np.flatnonzero(live)
        chosen = at[np.lexsort((*cell[at].T[::-1], -level[at], -err[at]))[:n_split]]
        to_split = chosen[(level[chosen] > 0) & (err[chosen] > 0.0)]
        trace.iterations.append(IterationRecord(it, [rects[i] for i in chosen], [rects[i] for i in to_split]))
        if not len(to_split):
            continue
        live[to_split] = False
        kid_level = np.repeat(level[to_split] - 1, 1 << d)
        kid_cell = ((cell[to_split] << 1)[:, None, :] | bits).reshape(-1, d)
        made = [DyadicRect(lev, tuple(ix)) for lev, ix in zip(kid_level.tolist(), kid_cell.tolist())]
        runs = [r for i, (lo, hi) in zip(to_split.tolist(), ends[to_split].tolist())
                for r in index.child_runs(rects[i], lo, hi)]
        made_fits = [score(rect, run) for rect, run in zip(made, runs)]
        trace.scores.update(zip(made, made_fits))
        rects += made
        fits += made_fits
        level, cell = np.concatenate([level, kid_level]), np.concatenate([cell, kid_cell])
        err = np.concatenate([err, [e for _, e in made_fits]])
        ends = np.concatenate([ends, [run[:2] for run in runs]])
        live = np.concatenate([live, np.ones(len(made), dtype=bool)])

    at = np.flatnonzero(live)
    bound = piece_bound(params.k, params.xi, grid.dim, grid.levels)
    if len(at) > bound:  # an explicit raise, so that ``python -O`` keeps the check
        raise AssertionError(f"{len(at)} leaves exceed bound {bound}")
    return [rects[i] for i in at], level[at], cell[at], [fits[i][0] for i in at], trace


def _build_hypothesis(grid, rects, level, cell, values):
    """The leaves as pieces, in (level, index) order, their bounds gathered from the grid's axes."""
    order = np.lexsort((*cell.T[::-1], level))
    ends = np.stack([cell[order], cell[order] + 1], axis=1) << level[order][:, None, None]  # (pieces, lo/hi, axis)
    bounds = np.empty(ends.shape, dtype=np.int64 if grid.domain.is_discrete else np.float64)
    for a, ax in enumerate(grid.axes):
        bounds[:, :, a] = ax[ends[:, :, a]]
    pieces = tuple(Piece(Rect(tuple(lo), tuple(hi)), values[i]) for i, (lo, hi) in zip(order, bounds.tolist()))
    del ends, bounds  # freed before the coverage check, which sets the assembly's memory peak
    return HistHypothesis(grid.domain, pieces, HistKind.HIERARCHICAL, grid, tuple(rects[i] for i in order))


def greedy_split(fhat: EmpiricalDist, grid: GridSpec, params: SplitParams, *, cells=None):
    """Learn a hierarchical histogram minimizing max dyadic discrepancy.

    Returns ``(hypothesis, trace)``.  Leaf count obeys
    ``piece_bound(k, xi, d, log2 M)`` (hard assertion); the achieved
    discrepancy against ``fhat`` is within a constant factor (3 + 6/xi^2)
    of the best partial hierarchical k-histogram; every leaf's constant is
    its exact best fit, so no fit slack is added.  ``cells`` are the
    support points' cells, as ``build_adaptive_grid`` returns them with
    ``grid``; the index takes the array over and reorders it.  Without
    them the index looks them up.
    """
    if fhat.domain != grid.domain:
        raise ValueError("empirical distribution and grid disagree on the domain")

    index = MortonIndex(fhat, grid, cells)

    def score(rect, run):
        fit = fit_d1(build_tree(fhat, grid, rect, index=index, run=run))
        return fit.a, fit.err

    *leaves, trace = _run_split_loop(grid, params, index, score)
    return _build_hypothesis(grid, *leaves), trace


def greedy_split_l2(g: EmpiricalDist, grid: GridSpec, params: SplitParams):
    """Learn a hierarchical histogram minimizing squared error, discrete only.

    The per-leaf constant is the exact flattening and the score is the exact
    squared error, computed over support points plus one closed-form term
    for the empty remainder: sum_supp (g(x)-a)^2 + (vol - s) * a^2.
    """
    if not g.domain.is_discrete:
        raise UnsupportedDomainError("the squared-error learner needs a discrete cube")
    if g.domain != grid.domain:
        raise ValueError("empirical distribution and grid disagree on the domain")
    n = g.n
    index = MortonIndex(g, grid)

    def score(rect, run):
        vol = grid.volume_of(rect)
        masses = g.counts[np.sort(index.rows[run.lo : run.hi])] / n  # support order fixes the sums' rounding
        total = float(masses.sum())
        if vol <= 0:
            return 0.0, 0.0
        a = total / vol
        err = float(np.sum((masses - a) ** 2)) + (vol - len(masses)) * a * a
        return a, max(0.0, err)

    *leaves, trace = _run_split_loop(grid, params, index, score)
    return _build_hypothesis(grid, *leaves), trace


def build_adaptive_grid(samples: EmpiricalDist) -> tuple:
    """Grid whose interior boundaries are the distinct sample coordinates, and each support point's cell.

    Per axis the sorted distinct coordinates below the domain's upper bound
    become interior boundaries, padded by repeating the largest of them (the
    lower bound when there is none) until every axis has M cells, where M is
    the least power of 2 >= (largest distinct count + 1); domain bounds are
    then prepended/appended.  Padded cells have zero width and zero sample
    mass.  A coordinate equal to the upper bound (1.0 on the unit cube) is
    no boundary, so it lands in the last cell, which has positive width.

    The cells, shape (p, d), are those ``GridSpec.cell_index`` gives, read
    off the pass that finds the distinct coordinates.  On an axis with L
    distinct coordinates below the upper bound, a point of rank r among
    them owns cell r + 1; the largest (r = L - 1) owns the last cell, M - 1,
    above the padding that repeats it, and so does a point at the upper
    bound.  An axis already in order, as ``from_samples`` leaves the first
    one, is not sorted again.
    """
    domain, points = samples.domain, samples.points
    cells = np.empty(points.shape, dtype=np.int64)
    uniques = []
    for a, col in enumerate(points.T):
        # from_samples leaves the first axis in order, which needs no sort
        order = slice(None) if (col[1:] >= col[:-1]).all() else np.argsort(col)
        step = col[order]
        new = np.empty(len(col), dtype=bool)
        new[0] = True
        np.not_equal(step[1:], step[:-1], out=new[1:])
        u = step[new]
        cells[order, a] = np.cumsum(new)  # rank + 1
        del order, step, new
        uniques.append(u[: np.count_nonzero(u < domain.upper)])  # a prefix, as u is sorted
    m_cells = max(next_pow2(len(u) + 1) for u in uniques)
    axes = []
    for a, u in enumerate(uniques):
        axis = np.full(m_cells + 1, u[-1] if len(u) else domain.lower, dtype=np.float64)
        axis[0], axis[1 : len(u) + 1], axis[-1] = domain.lower, u, domain.upper
        axes.append(axis)
        col = cells[:, a]
        col[col >= len(u)] = m_cells - 1
    return GridSpec(domain, tuple(axes)), cells


def adaptive_greedy_split(samples: EmpiricalDist, params: SplitParams):
    """Data-adaptive variant: grid over the sample coordinates, then split.

    Works on discrete and unit-cube domains alike; the grid side is at most
    2n, so runtime has no dependence on the ambient domain size.
    """
    grid, cells = build_adaptive_grid(samples)
    return greedy_split(samples, grid, params, cells=cells)


def renormalize(h: HistHypothesis) -> HistHypothesis:
    """Scale all values so the hypothesis integrates to 1."""
    total = h.total_mass()
    if total <= 0:
        raise DegenerateRegionError("cannot renormalize a zero-mass hypothesis")
    scale = 1.0 / total
    return replace(h, pieces=tuple(Piece(p.rect, p.value * scale) for p in h.pieces))


__all__ = [
    "SplitParams",
    "SplitTrace",
    "IterationRecord",
    "piece_bound",
    "greedy_split",
    "greedy_split_l2",
    "build_adaptive_grid",
    "adaptive_greedy_split",
    "renormalize",
]
