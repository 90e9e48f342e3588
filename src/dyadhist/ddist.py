"""Max dyadic-rectangle discrepancy against a constant, and the best constant fit.

The workhorse is a sparse tree over exactly the dyadic rectangles (below a
query rectangle R) that contain support points.  The discrepancy
``max over dyadic R' <= R of |mass(R') - a * vol(R')|`` splits into

* a scan over tree nodes (rectangles holding mass), and
* ``a * V`` where V is the largest volume of a dyadic rectangle below R that
  holds no mass; every such rectangle is R itself (empty tree) or a missing
  child of some tree node.

Layout.  ``MortonIndex`` sorts the support points inside one root rectangle
once, by the Morton (Z-order) key of their level-0 cell, so the points of
every dyadic rectangle form one contiguous run.  Nodes are stored in
post-order: children before their parent and siblings in Morton order, so
the subtree of any node is one contiguous slice that ends at the node.  Each
node keeps the largest volume of its own missing children, so V for a view
is the maximum over its slice.  A ``SparseDyadicTree`` is a view of one such
slice, found by a binary search.  Keys are split into words of at most 63
bits, so no key overflows whatever the product of the dimension and the grid
depth.

Fit.  ``fit_d1`` finds the constant a >= 0 with the least discrepancy
exactly, not to a tolerance: the objective is the upper envelope of one
decreasing and one increasing convex piecewise-linear function, and its
minimum is the crossing of two of their lines, which cutting planes reach
in a few passes over the tree (at most 5 on the benchmark's leaves, 64 at
worst, after which the best pass is kept).  The best pass gives the error
too, so the fit reads no witness.

Ties.  Wherever a witness is chosen among equal discrepancies or equal empty
volumes, the least (level, lexicographic index) wins, as in ``brute_d1``.
Morton order is not lexicographic order within a level, so the node order
of a tree is not that order and ties are resolved explicitly, when
``compute_d1`` or ``empty_witness`` asks for a witness.

All node masses are integer counts divided by n exactly once, so results are
bit-identical to a dense enumeration that aggregates the same integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import DyadicRect, EmpiricalDist, GridSpec
from .errors import OracleGuardError, StructureError


def check_dyadic(grid: GridSpec, rect: DyadicRect) -> None:
    if rect.dim != grid.dim:
        raise StructureError(f"rect dim {rect.dim} != grid dim {grid.dim}")
    if not (0 <= rect.level <= grid.levels):
        raise StructureError(f"level {rect.level} outside [0, {grid.levels}]")
    side = grid.M >> rect.level
    if any(not (0 <= j < side) for j in rect.index):
        raise StructureError(f"index {rect.index} outside grid at level {rect.level}")


def _morton_words(cols: list, levels: int) -> list:
    """Morton keys of cells whose per-axis indices are below 2^levels.

    ``cols`` holds one int, or one int64 array, per axis.  Digit b (bit b of
    every axis, axis 0 first) runs from b = levels-1 in the first word down
    to b = 0 in the last, at most 63 bits per word, so comparing the words
    in turn compares the keys.
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


def _search(words: list, key: list, side: str) -> int:
    """First row whose words are >= ``key`` ("left") or > ``key`` ("right")."""
    lo, hi = 0, len(words[0])
    for col, k in zip(words, key):
        a = lo + int(np.searchsorted(col[lo:hi], k, side="left"))
        b = lo + int(np.searchsorted(col[lo:hi], k, side="right"))
        if a == b:
            return a
        lo, hi = a, b
    return lo if side == "left" else hi


class MortonIndex:
    """Sparse dyadic tree of the support inside ``root``, in Morton post-order.

    The learner builds one per run and takes a ``view`` per leaf.  Per node
    it stores the level, the mass, the volume, and ``own``: the largest
    volume of the node's own missing children (-1 when it has none) with
    ``own_child``, the first such child in lexicographic order.  Nothing is
    carried up the tree.  The first ``view`` builds these arrays, so a
    caller that needs only ``run`` never pays for them, and that view's
    ``node_visits`` includes the index's.  Dyadic indices are decoded from
    the points on demand.  ``node_visits`` counts the points placed, the
    nodes made and the candidate empty children examined.
    """

    def __init__(self, fhat: EmpiricalDist, grid: GridSpec, root: DyadicRect):
        check_dyadic(grid, root)
        d, top = grid.dim, root.level
        self.fhat, self.grid, self.root = fhat, grid, root
        cells = grid.cell_index(fhat.points) if fhat.support_size else np.zeros((0, d), np.int64)
        inside = np.ones(len(cells), dtype=bool)
        for a in range(d):
            inside &= (cells[:, a] >> top) == root.index[a]
        rows = np.flatnonzero(inside)
        self.offset = tuple(int(i) << top for i in root.index)
        rel = cells[rows] - np.asarray(self.offset, dtype=np.int64)
        words = _morton_words([rel[:, a] for a in range(d)], top)
        order = np.lexsort(words[::-1])
        self.rows = rows[order]  # support rows, in Morton order of their cells
        self.cells = cells[self.rows]
        self.words = [w[order] for w in words]
        self._bits = (np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1)) & 1  # child -> bits
        self.first = None  # the node arrays are built by the first view

    def _build_nodes(self) -> None:
        grid, d, top = self.grid, self.grid.dim, self.root.level
        s = len(self.rows)
        n = self.fhat.n if self.fhat.support_size else 1
        # nodes ending at point i are its levels below shared[i], the level
        # from which points i and i+1 share their nodes (the bit length of
        # the xor of their cells; frexp is exact below 2^53); the last point
        # ends every level
        diff = np.zeros(s, dtype=np.int64)
        for a in range(d):
            diff[:-1] |= self.cells[1:, a] ^ self.cells[:-1, a]
        shared = np.frexp(diff.astype(np.float64))[1].astype(np.int8)
        del diff
        shared[-1:] = top + 1
        self.first = np.zeros(s + 1, dtype=np.int64)  # node at level l ending at point i: first[i] + l
        np.cumsum(shared, out=self.first[1:])
        total = int(self.first[-1])
        self.level = np.empty(total, dtype=np.int8)
        self.mass = np.empty(total)
        self.vol = np.empty(total)
        self.own = np.full(total, -1.0)  # largest volume of the node's own missing children; -1: none
        self.own_child = np.zeros(total, dtype=np.min_scalar_type((1 << d) - 1))  # which child that is
        self.node_visits = s
        if not s:
            return
        weight = 1 << np.arange(d - 1, -1, -1)
        cum = np.zeros(s + 1, dtype=np.int64)
        np.cumsum(self.fhat.counts[self.rows], out=cum[1:])
        ends = np.flatnonzero(shared > 0)  # the last point of each node, level by level
        for lev in range(top + 1):
            if lev:
                k_ends, ends = ends, ends[shared[ends] > lev]
            post = self.first[ends] + lev
            self.level[post] = lev
            self.mass[post] = np.diff(cum[ends + 1], prepend=0) / n
            self.vol[post] = grid.dyadic_volume(lev, self.cells[ends] >> lev)
            self.node_visits += len(post)
            if lev == 0:
                continue
            # the node's own missing children, which sit one level higher
            parent = np.searchsorted(ends, k_ends)  # a child ends at or before its parent's end
            need = np.flatnonzero(np.bincount(parent, minlength=len(post)) < (1 << d))
            if not len(need):
                continue
            row = np.full(len(post), -1)
            row[need] = np.arange(len(need))
            hit = row[parent] >= 0
            digit = ((self.cells[k_ends[hit]] >> (lev - 1)) & 1) @ weight
            pidx = self.cells[ends[need]] >> lev
            cvol = np.ones((len(need), 1 << d))
            for a in range(d):
                b = grid.axes[a]
                edge = [(2 * pidx[:, a] + j) << (lev - 1) for j in range(3)]
                width = np.stack([b[edge[1]] - b[edge[0]], b[edge[2]] - b[edge[1]]], axis=1)
                cvol *= width[:, self._bits[:, a]]
            cvol[row[parent[hit]], digit] = -1.0
            own = np.argmax(cvol, axis=1)  # first max: the lexicographically least child
            self.own[post[need]] = cvol[np.arange(len(need)), own]
            self.own_child[post[need]] = own
            self.node_visits += cvol.size

    def decode(self, nodes: np.ndarray) -> np.ndarray:
        """Dyadic indices (one row each) of the nodes at these positions."""
        point = np.searchsorted(self.first, nodes, side="right") - 1
        return self.cells[point] >> self.level[nodes][:, None].astype(np.int64)

    def missing_child(self, nodes: np.ndarray) -> np.ndarray:
        """Indices (one row each) of the largest own missing child of each node."""
        return 2 * self.decode(nodes) + self._bits[self.own_child[nodes]]

    def run(self, rect: DyadicRect) -> tuple:
        """Positions ``[lo, hi)`` of the points inside ``rect``, in Morton order."""
        check_dyadic(self.grid, rect)
        if not self.root.contains(rect):
            raise StructureError(f"{rect} lies outside the index root {self.root}")
        rel = [(i << rect.level) - o for i, o in zip(rect.index, self.offset)]
        low = _morton_words(rel, self.root.level)
        high = _morton_words([r | ((1 << rect.level) - 1) for r in rel], self.root.level)
        return _search(self.words, low, "left"), _search(self.words, high, "right")

    def view(self, rect: DyadicRect) -> "SparseDyadicTree":
        """The tree of mass-carrying dyadic rectangles below ``rect``."""
        visits = 2 * len(self.words) * len(self.rows).bit_length() + 1
        if self.first is None:
            self._build_nodes()
            visits += self.node_visits
        lo, hi = self.run(rect)
        if lo == hi:
            none = slice(0, 0)
            return SparseDyadicTree(rect, self, 0, self.level[none], self.mass[none],
                                    self.vol[none], self.grid.volume_of(rect), visits)
        nodes = slice(int(self.first[lo]), int(self.first[hi - 1]) + rect.level + 1)
        return SparseDyadicTree(rect, self, nodes.start, self.level[nodes], self.mass[nodes],
                                self.vol[nodes], float(self.own[nodes].max()), visits)


@dataclass(eq=False)
class SparseDyadicTree:
    """Sparse dyadic tree restricted below ``rect``: a view of a MortonIndex.

    The node arrays are slices of the index's arrays, in post-order:
    children before their parent, siblings in Morton order, and ``rect``
    itself last.  That is not (level, lexicographic index) order, so
    witnesses are chosen among ties by ``least_node``.  ``max_empty_vol`` is
    the largest volume of an empty rectangle below ``rect`` (-1 if there is
    none), the maximum of the slice's own missing-child volumes;
    ``empty_witness`` and ``node_index`` are decoded on demand.
    ``node_visits`` counts the entries read to find the view, plus the
    index's own count when this view built the index's nodes.
    """

    rect: DyadicRect
    index: MortonIndex
    start: int  # position of the first node in the index
    node_level: np.ndarray
    node_mass: np.ndarray
    node_vol: np.ndarray
    max_empty_vol: float
    node_visits: int

    @property
    def node_count(self) -> int:
        return len(self.node_mass)

    @property
    def node_index(self) -> np.ndarray:
        return self.index.decode(np.arange(self.start, self.start + self.node_count))

    @property
    def empty_witness(self) -> DyadicRect | None:
        """The empty rectangle of volume ``max_empty_vol`` with least (level, index).

        It is ``rect`` itself when the tree has no nodes, and None when no
        rectangle below ``rect`` is empty.  Otherwise it is a missing child
        of a node whose own largest one has that volume: of the nodes of
        least level, the one whose child's index is least.
        """
        if self.node_count == 0:
            return self.rect
        if self.max_empty_vol < 0:
            return None
        own = self.index.own[self.start : self.start + self.node_count]
        nodes = np.flatnonzero(own == self.max_empty_vol)
        lev = self.node_level[nodes]
        idx = self.index.missing_child(self.start + nodes[lev == lev.min()])
        least = idx[np.lexsort(idx.T[::-1])[0]]
        return DyadicRect(int(lev.min()) - 1, tuple(int(i) for i in least))

    def node_at(self, i: int) -> DyadicRect:
        lev = int(self.node_level[i])
        point = int(self.index.first.searchsorted(self.start + i, side="right")) - 1
        return DyadicRect(lev, tuple(c >> lev for c in self.index.cells[point].tolist()))

    def least_node(self, nodes: np.ndarray) -> int:
        """The node with least (level, lexicographic index) among ``nodes``."""
        lev = self.node_level[nodes]
        nodes = nodes[lev == lev.min()]
        if len(nodes) > 1:
            idx = self.index.decode(self.start + nodes)
            nodes = nodes[np.lexsort(idx.T[::-1])]
        return int(nodes[0])


def build_tree(
    fhat: EmpiricalDist,
    grid: GridSpec,
    rect: DyadicRect,
    *,
    index: MortonIndex | None = None,
) -> SparseDyadicTree:
    """Build the sparse tree of mass-carrying dyadic rectangles below ``rect``.

    ``index`` is a MortonIndex over ``fhat`` and ``grid`` whose root contains
    ``rect``; the greedy splitter builds one per run, up front.  Without it
    an index rooted at ``rect`` is built.  Either way the view that builds
    the index's nodes counts that work in its ``node_visits``.
    """
    if index is None:
        index = MortonIndex(fhat, grid, rect)
    elif index.fhat is not fhat or index.grid is not grid:
        raise ValueError("the index was built over another sample set or grid")
    return index.view(rect)


def compute_d1(tree: SparseDyadicTree, a: float):
    """Max discrepancy |mass - a*vol| over dyadic sub-rectangles of ``tree.rect``.

    Returns ``(err, witness)`` where the witness attains the maximum; ties
    are broken by least (level, index).  Reads only ``tree``: one pass over
    its nodes.
    """
    if a < 0:
        raise ValueError(f"constant a must be nonnegative, got {a}")
    b2 = a * tree.max_empty_vol if tree.max_empty_vol >= 0 else -1.0  # the empty term
    if tree.node_count == 0:
        return b2, tree.empty_witness
    disc = tree.node_vol * a
    np.subtract(tree.node_mass, disc, out=disc)
    np.abs(disc, out=disc)
    i = int(disc.argmax())
    b1 = float(disc[i])
    if i + 1 < len(disc) and disc[i + 1 :].max() == b1:
        i = tree.least_node(np.flatnonzero(disc == b1))
    if b2 > b1 or (b2 == b1 and tree.empty_witness < tree.node_at(i)):
        return b2, tree.empty_witness
    return b1, tree.node_at(i)


@dataclass(frozen=True)
class DFitResult:
    """Best constant fit on a rectangle: the constant and its discrepancy.

    ``err`` equals ``compute_d1`` at ``a`` bit for bit.  ``probes`` counts
    the passes over the rectangle's tree nodes: the Kelley probes, or the
    one pass that takes the largest mass when every node has volume 0.
    """

    a: float
    err: float
    probes: int


_MAX_PROBES = 64


def fit_d1(tree: SparseDyadicTree) -> DFitResult:
    """The constant a >= 0 minimizing the max dyadic discrepancy on ``tree.rect``, exactly.

    The objective is F(a) = max(D(a), I(a)) over the tree's nodes (mass m_i,
    volume v_i): D(a) = max_i (m_i - a v_i) is convex and decreasing, and
    I(a) = max(max_i (a v_i - m_i), a V) is convex and increasing, where V is
    the largest empty volume.  The search keeps a bracket [lo, hi] with
    D >= I at lo and I >= D at hi, the line active in D at lo and the line
    active in I at hi (a node's, or the empty term a V).  Both lines lie
    below their envelopes, so their crossing c lies in the bracket and its
    height is a lower bound on min F.  One pass at c gives D(c) and I(c).  If
    they are equal, or the line active on the larger side is the one kept,
    c attains the bound and is optimal; otherwise that side's end moves to
    c and keeps the new active line.  This is Kelley's cutting-plane method
    on a one-dimensional LP; every step activates a new line, so it ends,
    in at most five probes on the benchmark's leaves.

    At a = 0 and at every a beyond the largest node density, the root's own
    lines are active (the part of ``tree.rect`` outside any node is a union
    of nodes and empty rectangles, so it is no denser), so the first
    crossing is the flattening mass/vol(rect) and constant data stops there
    with err == 0.  Where the two lines are both flat, or rounding puts the
    crossing outside the bracket, the step bisects the bracket instead, and
    after 64 probes the best one is kept.  The error returned is that
    probe's max(D(c), I(c)), which is ``compute_d1`` at c; no witness is
    chosen.  The fit reads only ``tree``.
    """
    m, v, ev = tree.node_mass, tree.node_vol, tree.max_empty_vol  # ev < 0: no empty term
    if tree.node_count == 0:
        return DFitResult(0.0, 0.0, 0)  # F(a) is a*vol(rect): a = 0 is optimal
    if v[-1] <= 0:
        return DFitResult(0.0, float(m.max()), 1)  # every volume is 0, so F is constant
    lo, hi = 0.0, math.inf
    p = q = tree.node_count - 1  # the root's lines (post-order puts ``rect`` last); q = -1 is the empty term
    best_err, best_a, probes = math.inf, 0.0, 0
    while probes < _MAX_PROBES:
        vq, mq = (ev, 0.0) if q < 0 else (v[q], m[q])
        c = float((m[p] + mq) / (v[p] + vq)) if v[p] + vq > 0 else math.nan
        crossing = lo <= c <= hi
        if not crossing:
            if math.isinf(hi):
                pos = v > 0
                hi = float((m[pos] / v[pos]).max())  # the largest node density
            c = 0.5 * (lo + hi)
        r = v * c
        np.subtract(m, r, out=r)
        i, j = int(r.argmax()), int(r.argmin())
        down, up = float(r[i]), -float(r[j])
        if ev >= 0 and c * ev > up:
            up, j = c * ev, -1
        probes += 1
        if max(down, up) < best_err:
            best_err, best_a = max(down, up), c
        if down == up:
            break  # D(c) == I(c), which includes err == 0
        if down > up:
            if crossing and r[p] == down:
                break
            lo, p = c, i
        else:
            if crossing and (c * ev if q < 0 else -r[q]) == up:
                break
            hi, q = c, j
    return DFitResult(best_a, best_err, probes)


_BRUTE_GUARD = 10**6  # dyadic rectangles brute_d1 may enumerate


def brute_d1(
    fhat: EmpiricalDist,
    grid: GridSpec,
    rect: DyadicRect,
    a: float,
):
    """Oracle twin of compute_d1: exhaustively scan every dyadic sub-rectangle.

    Dense per-level aggregation of integer counts (divided by n once), so the
    result matches compute_d1 bit-for-bit on any instance within the guard,
    ``_BRUTE_GUARD`` rectangles.
    """
    check_dyadic(grid, rect)
    d = grid.dim
    depth = rect.level
    total = sum((1 << (depth - lev)) ** d for lev in range(depth + 1))
    if total > _BRUTE_GUARD:
        raise OracleGuardError(f"{total} dyadic rectangles exceeds guard {_BRUTE_GUARD}")

    side0 = 1 << depth
    counts = np.zeros((side0,) * d, dtype=np.int64)
    if fhat.support_size:
        cells = grid.cell_index(fhat.points)
        inside = np.ones(len(cells), dtype=bool)
        for ax in range(d):
            inside &= (cells[:, ax] >> depth) == rect.index[ax]
        rel = cells[inside] - (np.asarray(rect.index, dtype=np.int64) << depth)
        np.add.at(counts, tuple(rel.T), fhat.counts[inside])
    n = fhat.n if fhat.support_size else 1

    best = (-1.0, None)
    level_counts = counts
    for lev in range(0, depth + 1):
        if lev > 0:
            shrink = level_counts
            for ax in range(d):
                s = shrink.shape[ax] // 2
                shrink = shrink.reshape(
                    shrink.shape[:ax] + (s, 2) + shrink.shape[ax + 1 :]
                ).sum(axis=ax + 1)
            level_counts = shrink
        side = 1 << (depth - lev)
        widths = []
        for ax in range(d):
            abs_idx = (rect.index[ax] << (depth - lev)) + np.arange(side, dtype=np.int64)
            b = grid.axes[ax]
            widths.append(b[(abs_idx + 1) << lev] - b[abs_idx << lev])
        vols = reduce(np.multiply.outer, widths) if d > 1 else widths[0]
        disc = np.abs(level_counts / n - a * vols)
        i = int(np.argmax(disc))  # C-order ravel = lexicographic index order
        if disc.flat[i] > best[0]:
            rel_idx = np.unravel_index(i, disc.shape)
            abs_idx = tuple(
                int((rect.index[ax] << (depth - lev)) + rel_idx[ax]) for ax in range(d)
            )
            best = (float(disc.flat[i]), DyadicRect(lev, abs_idx))
    return best[0], best[1]


__all__ = [
    "MortonIndex",
    "SparseDyadicTree",
    "DFitResult",
    "build_tree",
    "compute_d1",
    "fit_d1",
    "brute_d1",
    "check_dyadic",
]
