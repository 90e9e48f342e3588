"""Sample-size planning formulas and structural histogram conversions.

The budgets turn the learners' statistical guarantees into concrete sample
counts (the existential constants are taken as 1, so these are planning
aids, not certificates).  Grid logs are base 2; the confidence term uses
ln(1/delta).
"""

from __future__ import annotations

import itertools
import math
from enum import Enum

import numpy as np

from .core import (
    DyadicRect,
    GridSpec,
    HistHypothesis,
    HistKind,
    Piece,
    Rect,
)
from .errors import ConfigurationError, StructureError


class BudgetFormula(Enum):
    FIXED_GRID_L1 = "fixed_grid_l1"
    ADAPTIVE_L1 = "adaptive_l1"
    L2 = "l2"


def sample_budget(
    formula: BudgetFormula,
    k: int,
    d: int,
    eps: float,
    delta: float,
    xi: float = 1.0,
    m: int | None = None,
) -> int:
    """Sample count for the requested guarantee.

    * FIXED_GRID_L1: ceil(((1+xi) 2^d k log2(m)^(d+1) + ln(1/delta)) / eps^2)
    * ADAPTIVE_L1:   ceil(((1+xi) d 2^d k log2(k/eps)^(d+2) + ln(1/delta)) / eps^2)
    * L2:            ceil(ln(1/delta) / eps)
    """
    if not (0 < eps < 1):
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    if not (0 < xi < math.inf):
        raise ValueError("xi must be positive and finite")
    log_conf = math.log(1.0 / delta)
    try:
        if formula is BudgetFormula.FIXED_GRID_L1:
            if m is None or m < 2:
                raise ValueError("fixed-grid budget needs discrete side m >= 2")
            main = (1.0 + xi) * (1 << d) * k * math.log2(m) ** (d + 1)
            n = math.ceil((main + log_conf) / eps**2)
        elif formula is BudgetFormula.ADAPTIVE_L1:
            main = (1.0 + xi) * d * (1 << d) * k * math.log2(k / eps) ** (d + 2)
            n = math.ceil((main + log_conf) / eps**2)
        elif formula is BudgetFormula.L2:
            n = math.ceil(log_conf / eps)
        else:
            raise ValueError(f"unknown formula {formula}")
    except (OverflowError, ZeroDivisionError):  # eps**2 underflows to 0, or the count is not finite
        raise ValueError(f"the sample count for eps={eps}, delta={delta} overflows a float") from None
    return max(1, n)


def dyadic_intervals(lo: int, hi: int) -> list:
    """Canonical decomposition of rank interval [lo, hi) into maximal dyadic blocks.

    Each returned (start, length-exponent) block [s, s + 2^t) has s divisible
    by 2^t; the greedy choice takes the largest aligned block at every step,
    which yields at most 2*log2(span) blocks.
    """
    out = []
    while lo < hi:
        t = (lo & -lo).bit_length() - 1 if lo else (hi - lo).bit_length() - 1
        t = min(t, (hi - lo).bit_length() - 1)
        out.append((lo, t))
        lo += 1 << t
    return out


def to_hierarchical(h: HistHypothesis, grid: GridSpec) -> HistHypothesis:
    """Refine a histogram with on-grid vertices into per-axis dyadic products.

    Every piece interval is decomposed into maximal dyadic rank intervals and
    replaced by the cross product, so the output is value-identical to the
    input (zero L1 distance) with at most (2*log2 M)^d sub-pieces per piece.
    The sub-pieces are products of per-axis dyadic intervals of possibly
    different levels, so the result is returned as an ARBITRARY hypothesis
    carrying the grid, not as a single-level dyadic partition.
    """
    if h.domain != grid.domain:
        raise ConfigurationError("histogram and grid disagree on the domain")
    pieces = []
    for p in h.pieces:
        blocks = []
        for a, axis in enumerate(grid.axes):
            ends = (p.rect.lo[a], p.rect.hi[a])
            ranks = [int(r) for r in np.searchsorted(axis, ends, side="left")]
            for r, x in zip(ranks, ends):
                if r >= len(axis) or axis[r] != x:
                    raise StructureError(f"piece vertex {x} not on grid axis {a}")
            blocks.append(
                [(grid.coord(a, s), grid.coord(a, s + (1 << t))) for s, t in dyadic_intervals(*ranks)]
            )
        for combo in itertools.product(*blocks):
            lo, hi = zip(*combo)
            pieces.append(Piece(Rect(lo, hi), p.value))
    kind = HistKind.PARTIAL if h.kind is HistKind.PARTIAL else HistKind.ARBITRARY
    return HistHypothesis(domain=h.domain, pieces=tuple(pieces), kind=kind, grid=grid)


def strictly_greater_region(h: HistHypothesis, g: HistHypothesis) -> list:
    """The set {x : h(x) > g(x)} as disjoint dyadic rectangles.

    ``h`` is a partial (or total) hierarchical histogram, ``g`` a total
    hierarchical histogram on the same grid; values are nonnegative, so the
    region lies inside h's support and consists of at most
    (pieces of h) + (pieces of g) rectangles.
    """
    if h.grid is None or g.grid is None or h.dyadic is None or g.dyadic is None:
        raise ConfigurationError("both histograms must carry grid and dyadic ids")
    if not h.grid.same_as(g.grid):
        raise ConfigurationError("histograms live on different grids")
    if g.kind is not HistKind.HIERARCHICAL:
        raise ConfigurationError("g must be a total hierarchical histogram")
    region = []
    for hr, hp in zip(h.dyadic, h.pieces):
        container = None
        for gr, gp in zip(g.dyadic, g.pieces):
            if gr.contains(hr):
                container = gp
                break
        if container is not None:
            if hp.value > container.value:
                region.append(hr)
            continue
        for gr, gp in zip(g.dyadic, g.pieces):
            if hr.contains(gr) and hp.value > gp.value:
                region.append(gr)
    return sorted(region)


__all__ = [
    "BudgetFormula",
    "sample_budget",
    "dyadic_intervals",
    "to_hierarchical",
    "strictly_greater_region",
]
