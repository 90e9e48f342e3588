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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    EmpiricalDist,
    GridSpec,
    HistHypothesis,
    HistKind,
    Piece,
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


def _run_split_loop(grid, params, score):
    """Shared loop; ``score(rect) -> (a, err)`` is called once per leaf, when it is made."""
    n_split = math.ceil((1.0 + params.xi) * params.k)

    root = grid.root()
    trace = SplitTrace({root: score(root)})
    leaves = dict(trace.scores)  # the current leaves: rect -> (a, err)

    for it in range(1, grid.levels + 1):
        chosen = sorted(leaves, key=lambda r: (-leaves[r][1], -r.level, r.index))[:n_split]
        to_split = [r for r in chosen if r.level > 0 and leaves[r][1] > 0.0]
        trace.iterations.append(IterationRecord(it, chosen, to_split))
        for rect in to_split:
            del leaves[rect]
            for ch in rect.children():
                leaves[ch] = trace.scores[ch] = score(ch)

    bound = piece_bound(params.k, params.xi, grid.dim, grid.levels)
    assert len(leaves) <= bound, f"{len(leaves)} leaves exceed bound {bound}"
    return leaves, trace


def _build_hypothesis(grid, leaves):
    order = sorted(leaves)
    pieces = tuple(Piece(grid.rect_of(r), leaves[r][0]) for r in order)
    return HistHypothesis(
        domain=grid.domain,
        pieces=pieces,
        kind=HistKind.HIERARCHICAL,
        grid=grid,
        dyadic=tuple(order),
    )


def greedy_split(fhat: EmpiricalDist, grid: GridSpec, params: SplitParams):
    """Learn a hierarchical histogram minimizing max dyadic discrepancy.

    Returns ``(hypothesis, trace)``.  Leaf count obeys
    ``piece_bound(k, xi, d, log2 M)`` (hard assertion); the achieved
    discrepancy against ``fhat`` is within a constant factor (3 + 6/xi^2)
    of the best partial hierarchical k-histogram; every leaf's constant is
    its exact best fit, so no fit slack is added.
    """
    if fhat.domain != grid.domain:
        raise ValueError("empirical distribution and grid disagree on the domain")

    index = MortonIndex(fhat, grid)

    def score(rect):
        fit = fit_d1(build_tree(fhat, grid, rect, index=index))
        return fit.a, fit.err

    leaves, trace = _run_split_loop(grid, params, score)
    return _build_hypothesis(grid, leaves), trace


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
    n = g.n if g.support_size else 1
    index = MortonIndex(g, grid)

    def score(rect):
        vol = grid.volume_of(rect)
        lo, hi = index.run(rect)
        masses = g.counts[np.sort(index.rows[lo:hi])] / n  # support order fixes the sums' rounding
        total = float(masses.sum())
        if vol <= 0:
            return 0.0, 0.0
        a = total / vol
        err = float(np.sum((masses - a) ** 2)) + (vol - len(masses)) * a * a
        return a, max(0.0, err)

    leaves, trace = _run_split_loop(grid, params, score)
    return _build_hypothesis(grid, leaves), trace


def build_adaptive_grid(samples: EmpiricalDist) -> GridSpec:
    """Grid whose interior boundaries are the distinct sample coordinates.

    Per axis the sorted distinct coordinates below the domain's upper bound
    become interior boundaries, padded by repeating the largest of them (the
    lower bound when there is none) until every axis has M cells, where M is
    the least power of 2 >= (largest distinct count + 1); domain bounds are
    then prepended/appended.  Padded cells have zero width and zero sample
    mass.  A coordinate equal to the upper bound (1.0 on the unit cube) is
    no boundary, so it lands in the last cell, which has positive width.
    """
    if samples.support_size == 0:
        raise ValueError("cannot build an adaptive grid from an empty sample set")
    domain = samples.domain
    uniques = []
    for a in range(domain.dim):
        u = np.unique(samples.points[:, a])
        uniques.append(u[u < domain.upper])
    m_cells = max(next_pow2(len(u) + 1) for u in uniques)
    axes = []
    for u in uniques:
        pad = u[-1] if len(u) else domain.lower
        interior = np.concatenate([u, np.full(m_cells - 1 - len(u), pad)])
        axes.append(
            np.concatenate([[domain.lower], interior, [domain.upper]]).astype(np.float64)
        )
    return GridSpec(domain, tuple(axes))


def adaptive_greedy_split(samples: EmpiricalDist, params: SplitParams):
    """Data-adaptive variant: grid over the sample coordinates, then split.

    Works on discrete and unit-cube domains alike; the grid side is at most
    2n, so runtime has no dependence on the ambient domain size.
    """
    grid = build_adaptive_grid(samples)
    return greedy_split(samples, grid, params)


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
