"""Max dyadic-rectangle discrepancy against a constant, and the best constant fit.

The workhorse is a sparse tree over exactly the dyadic rectangles (below a
query rectangle R) that contain support points.  The discrepancy
``max over dyadic R' <= R of |mass(R') - a * vol(R')|`` splits into

* a scan over tree nodes (rectangles holding mass), and
* ``a * V`` where V is the largest volume of a dyadic rectangle below R that
  holds no mass; every such rectangle is R itself (empty tree) or a missing
  child of some tree node.

Layout.  ``MortonIndex`` lexsorts the support points once by the Morton
(Z-order) key of their level-0 cell, so the points of every dyadic
rectangle of the grid form one contiguous run.  The tree is stored
path-compressed: only the level-0 cells and the branching nodes (two or
more children holding mass), at most 2s - 1 for s cells whatever the grid
depth, as in the compressed quadtree (Har-Peled, Geometric Approximation
Algorithms, 2011, ch. 2).  Each stored node stands for its chain: itself
and the one-child nodes above it, up to below the next stored node.  Along
a chain the mass is fixed and the volume only shrinks downward, so a node
keeps its mass, its own (bottom) volume, the chain's top volume and the
largest missing-child volume over the chain, which is found top-down when
the index is built.  Nodes are stored in post-order: children before their
parent and siblings in Morton order, so the subtree of any node is one
contiguous slice that ends at the node, and V for a view is the maximum
over its slice.  Those volumes are kept sparsely, in two tables sorted by
position: a chain's largest beside its top volume, for the nodes with a
chain above them alone, and a node's own largest, for the nodes that miss
a child of their own alone (a handful at d = 1).  A ``SparseDyadicTree``
is a view of one such slice, and of its part of each table, found from
its rectangle's run of points; when its rectangle sits inside a chain,
the view clips that one chain at it.  A run is found by binary searches
over all points (``run``), or, for the children of a rectangle whose run
is known, by one search inside that run (``child_runs``).  Keys
interleave 8 bits of every axis at a time by a table lookup, in words of
at most 63 bits, so none overflows at any depth; at d = 1 the key is the
cell itself.  The index keeps positions of points and nodes as int32, and
searches them with int32 needles, so that no search copies the array it
searches; a view's positions are intp, which index without a cast.

Fit.  ``fit_d1`` finds the constant a >= 0 with the least discrepancy
exactly, not to a tolerance: the objective is the upper envelope of one
decreasing and one increasing convex piecewise-linear function, and its
minimum is the crossing of two of their lines, which cutting planes reach
in a few passes over the tree (at most 5 on the benchmark's leaves).  Of a
chain's lines the decreasing envelope needs only the bottom's and the
increasing one only the top's.  The best pass gives the error too.

All node masses are integer counts divided by n exactly once, so results are
bit-identical to a dense enumeration that aggregates the same integers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from .core import DyadicRect, EmpiricalDist, GridSpec
from .errors import StructureError


def check_dyadic(grid: GridSpec, rect: DyadicRect) -> None:
    if rect.dim != grid.dim:
        raise StructureError(f"rect dim {rect.dim} != grid dim {grid.dim}")
    if not (0 <= rect.level <= grid.levels):
        raise StructureError(f"level {rect.level} outside [0, {grid.levels}]")
    side = grid.M >> rect.level
    if any(not (0 <= j < side) for j in rect.index):
        raise StructureError(f"index {rect.index} outside grid at level {rect.level}")


@cache
def _spread(d: int, bits: int) -> tuple:
    """Each v < 2^bits with its bit i moved to bit d*i, as an int64 array and as a tuple of ints."""
    table = tuple(sum(((v >> i) & 1) << (d * i) for i in range(bits)) for v in range(1 << bits))
    return np.array(table, dtype=np.int64), table


def _morton_words(cols: list, levels: int) -> list:
    """Morton keys of cells whose per-axis indices are below 2^levels.

    ``cols`` holds one int, or one int64 array, per axis.  Digit b (bit b of
    every axis, axis 0 first) runs from b = levels-1 in the first word down
    to b = 0 in the last, at most 63 bits per word, so comparing the words
    in turn compares the keys.  A word is built from 8 bits of every axis at
    a time, spread d apart by a table; at d = 1 it is the axis's own bits.
    """
    d, per_word = len(cols), 63 // len(cols)
    step = min(8, per_word)
    table = _spread(d, step)[0 if isinstance(cols[0], np.ndarray) else 1]
    words = []
    for top in range(levels, 0, -per_word):
        low = max(0, top - per_word)
        digits = [(x >> low) & ((1 << (top - low)) - 1) for x in cols]  # the word's bits of each axis
        w = digits[0] if d == 1 else 0  # at d = 1 the table is the identity, so the word is the axis's bits
        for s in range(0, top - low if d > 1 else 0, step):
            for a, x in enumerate(digits):
                w = w | (table[(x >> s) & ((1 << step) - 1)] << (d * s + d - 1 - a))
        words.append(w)
    return words or [cols[0] * 0]


def _ones_below(words: list, level: int, levels: int, d: int) -> list:
    """``_morton_words`` words with every digit below ``level`` set to all ones."""
    per_word, out = 63 // d, []
    for k, w in enumerate(words):
        top = levels - per_word * k  # the word holds digits max(0, top - per_word) .. top - 1
        ones = max(0, min(level, top) - max(0, top - per_word))
        out.append(w | ((1 << d * ones) - 1))
    return out


def _search(words: list, key: list, side: str) -> int:
    """First row whose words are >= ``key`` ("left") or > ``key`` ("right")."""
    lo, hi = 0, len(words[0])
    for col, k in zip(words[:-1], key[:-1]):  # narrow to the rows equal to key on the leading words
        a = lo + int(np.searchsorted(col[lo:hi], k, side="left"))
        b = lo + int(np.searchsorted(col[lo:hi], k, side="right"))
        if a == b:
            return a
        lo, hi = a, b
    return lo + int(np.searchsorted(words[-1][lo:hi], key[-1], side=side))


class Run(NamedTuple):
    """Positions ``[lo, hi)`` of a dyadic rectangle's points in Morton order, and the entries read to find them."""

    lo: int
    hi: int
    searched: int


_BLOCK = 1 << 10  # the fewest nodes the build works on at once
_MAX_POINTS = 1 << 30  # below this, the at most 2s - 1 stored nodes have int32 positions


class MortonIndex:
    """Compressed sparse dyadic tree of the support over the grid, in Morton post-order.

    The learner builds one per run and takes a ``view`` per leaf.  The
    stored nodes are the level-0 cells holding mass and the branching
    nodes.  Node i stands for its chain: levels ``level[i]`` to
    ``top_level[i]``, of mass ``mass[i]``, with volumes from ``vol[i]`` up to
    the chain's top.  The nodes with one-child nodes above them are
    ``chain_at``, in order, ``chain_top`` their chains' top volumes and
    ``chain_empty`` the largest volumes of missing children on their
    chains, their own included; most nodes have none at d = 1 and on dense
    grids, so these are kept for them alone.  The nodes that miss children
    of their own are ``own_at``, in order, and ``own_empty`` the largest
    volumes of those children (a handful at d = 1), which a view clipping
    a chain walks on from.  ``first[p]`` counts the nodes that end before
    point p.  ``rows``, ``first``, ``chain_at`` and ``own_at`` are int32,
    which is why a support of 2^30 points or more is refused with
    ``MemoryError``.  The first ``view`` builds the node arrays, so a
    caller that needs only runs never pays for them, and that view's
    ``node_visits`` includes the index's.  ``cells`` holds each support
    point's cell, as ``grid.cell_index`` gives it; ``build_adaptive_grid``
    makes them with the grid, and otherwise they are looked up here.  The
    index keeps that array as its own ``cells``, its rows put in Morton
    order in place, so no second copy lives on; at d = 1 the one Morton
    word is a view of it.  Dyadic indices are decoded from the points on
    demand.
    ``node_visits`` counts the points placed, the nodes stored, the
    candidate empty children of branching nodes examined and the levels of
    one-child chains walked.
    """

    def __init__(self, fhat: EmpiricalDist, grid: GridSpec, cells: np.ndarray | None = None):
        self.fhat, self.grid = fhat, grid
        if cells is None:
            cells = grid.cell_index(fhat.points)
        elif cells.shape != fhat.points.shape or cells.dtype != np.int64:
            raise ValueError(f"cells must be int64 of shape {fhat.points.shape}, got {cells.dtype} {cells.shape}")
        if len(cells) >= _MAX_POINTS:
            raise MemoryError(f"cannot index a support of {len(cells)} points: "
                              f"the index holds fewer than {_MAX_POINTS}")
        d = grid.dim
        words = _morton_words(list(cells.T), grid.levels) if d > 1 else [cells[:, 0]]  # at d = 1 the key is the cell
        order = np.lexsort(words[::-1])  # support rows, in Morton order of their cells
        cells[...] = cells.take(order, axis=0)
        self.words = [w[order] for w in words] if d > 1 else [cells[:, 0]]
        self.rows = order.astype(np.int32)
        del words, order
        self.cells = cells
        self._bits = (np.arange(1 << grid.dim)[:, None] >> np.arange(grid.dim)[::-1]) & 1  # child -> bits
        self.first = None  # the node arrays are built by the first view

    def _build_nodes(self) -> None:
        grid, d, top = self.grid, self.grid.dim, self.grid.levels
        s, n = len(self.rows), self.fhat.n
        # point i and i+1 share their nodes from level shared[i] up (the bit
        # length of the xor of their cells; frexp is exact below 2^53), so a
        # node of level l ends at a point whose shared level exceeds l, and
        # the points with shared level l split the nodes of level l into
        # their children.  The last point ends every level, and shared[-1]
        # also stands before the first.
        diff = np.zeros(s, dtype=np.int64)
        for a in range(d):
            diff[:-1] |= self.cells[1:, a] ^ self.cells[:-1, a]
        shared = np.frexp(diff.astype(np.float64))[1].astype(np.int8)
        del diff
        shared[-1:] = top + 1
        cum = np.zeros(s + 1, dtype=np.int64)  # cum[i]: the counts of points 0..i; cum[-1] = 0
        np.cumsum(self.fhat.counts[self.rows], out=cum[:-1])
        self.node_visits = s
        first = np.zeros(s + 2, dtype=np.int32)
        count = first[1:]  # the stored nodes ending at each point, summed below
        count[:-1] = shared > 0  # every cell is stored
        block = max(_BLOCK, s >> 3)  # nodes worked on at once, which bounds the temporaries
        stored = []  # per level, its nodes' end points (None: the cells; then positions) and fields
        ends = np.flatnonzero(shared > 0)  # where the nodes of the level end
        for lev in range(top + 1):
            if lev:
                sh = shared[ends]
                up, split = sh > lev, sh == lev
                node = np.cumsum(up)[split]  # the node each split point splits
                pairs = ends[split] if d > 1 else None
                ends = ends[up]
                if not len(node):
                    continue
                whose = None  # at d = 1 a branching node of a binary tree has both children
                if d > 1:
                    new = np.ones(len(node), dtype=bool)
                    new[1:] = node[1:] != node[:-1]
                    node, whose = node[new], np.cumsum(new) - 1
                end = ends[node]
                count[end] += 1
            else:
                end = ends
            mass, tops, own = np.empty(len(end)), np.empty(len(end), dtype=np.int8), []
            for i in range(0, len(end), block):
                e = end[i : i + block]
                if lev:  # the end of the node before, or -1
                    prev = np.where(node[i : i + block] > 0, ends[node[i : i + block] - 1], -1)
                else:
                    prev = end[i - 1 : i - 1 + len(e)] if i else np.r_[-1, e[:-1]]
                mass[i : i + block] = (cum[e] - cum[prev]) / n
                # the chain runs up to below the node that first takes in a neighbouring point
                tops[i : i + block] = np.minimum(shared[prev], shared[e]) - 1
                if lev and whose is not None:
                    lo, hi = np.searchsorted(whose, [i, i + block])
                    need, vols = self._own_values(lev, e, prev + 1, whose[lo:hi] - i, pairs[lo:hi] + 1)
                    own.append((need + i, vols))
            stored.append({"level": lev, "at": end if lev else None, "mass": mass, "top_level": tops,
                           "own": own})
        del cum
        # place the nodes in post-order: at each point the highest takes the last place
        np.cumsum(first[:-1], out=first[:-1])
        total = int(first[s])
        self.vol = np.empty(total)
        for rec in reversed(stored):
            end = np.flatnonzero(shared > 0) if rec["at"] is None else rec["at"]
            count[end] -= 1
            rec["at"] = pos = count[end]
            for i in range(0, len(end), block):
                index = self.cells.take(end[i : i + block], axis=0)
                index >>= rec["level"]
                self.vol[pos[i : i + block]] = grid.dyadic_volume(rec["level"], index)
            del end, pos
        del shared, ends
        first[s + 1] = total
        self.first = first[1:]  # stored nodes ending before each point

        def place(field, out):  # each field's lists are freed as it is placed
            for rec in stored:
                if rec[field] is not None:
                    out[rec["at"]] = rec.pop(field)
            return out

        self.level = np.empty(total, dtype=np.int8)
        for rec in stored:
            self.level[rec["at"]] = rec["level"]
        self.mass = place("mass", np.empty(total))
        self.top_level = place("top_level", np.empty(total, dtype=np.int8))
        own = [(rec["at"][need], vols) for rec in stored for need, vols in rec.pop("own")]
        del stored
        own_at = np.concatenate([np.empty(0, dtype=np.int32)] + [at for at, _ in own])
        order = np.argsort(own_at, kind="stable")  # a merge of the levels, each in order already
        self.own_at = own_at[order]
        self.own_empty = np.concatenate([np.empty(0)] + [vols for _, vols in own])[order]
        del own, own_at, order
        self.node_visits += total
        self.chain_at = np.flatnonzero(self.top_level > self.level).astype(np.int32)
        self.chain_top = np.empty(len(self.chain_at))
        self.chain_empty = np.full(len(self.chain_at), -1.0)  # a chain's walk starts from its node's own value
        on = self.top_level[self.own_at] > self.level[self.own_at]
        self.chain_empty[self.chain_at.searchsorted(self.own_at[on])] = self.own_empty[on]
        del on
        tops = self.top_level[self.chain_at]
        for lev in range(1, top + 1):  # the chains, by their top level
            group = np.flatnonzero(tops == lev)
            for i in range(0, len(group), block >> 1):  # a chain's walk takes twice a node's temporaries
                part = group[i : i + (block >> 1)]
                self.chain_empty[part], self.chain_top[part], seen = self._walk(self.chain_at[part], lev,
                                                                                self.chain_empty[part])
                self.node_visits += seen

    def _own_values(self, lev, end, start, whose, split) -> tuple:
        """The nodes that miss some of their own children, and the largest volume of those missing.

        The level-``lev`` nodes hold points ``start..end``; the points
        ``split`` start their other children, of the nodes ``whose``.
        Returns the nodes' places in ``end`` and the volumes.
        """
        need = np.flatnonzero(np.bincount(whose, minlength=len(end)) < (1 << self.grid.dim) - 1)
        if not len(need):
            return need, np.empty(0)
        row = np.full(len(end), -1)
        row[need] = np.arange(len(need))
        hit = row[whose] >= 0
        cvol = self._child_volumes(lev, self.cells.take(end[need], axis=0) >> lev)
        firsts = self.cells.take(np.concatenate([start[need], split[hit]]), axis=0)
        digit = _morton_words(list((firsts >> (lev - 1)).T), 1)[0]  # which child holds each first point
        cvol[np.r_[np.arange(len(need)), row[whose[hit]]], digit] = -1.0
        self.node_visits += cvol.size
        return need, cvol.max(axis=1)

    def _child_volumes(self, lev: int, parent: np.ndarray) -> np.ndarray:
        """Volumes (one row each, children in lexicographic order) of the children of
        the level-``lev`` rectangles with these indices."""
        child = (2 * parent[:, None, :] + self._bits).reshape(-1, self.grid.dim)
        return self.grid.dyadic_volume(lev - 1, child).reshape(len(parent), -1)

    def _missing_max(self, lev: int, child: np.ndarray) -> tuple:
        """The largest volume of a missing child of each one-child node at ``lev``, and its child's.

        ``child`` holds the level-``lev - 1`` index of the child on the
        chain.  The wider half on every axis gives the largest child; when
        that is the chain's own child, strictly wider on every axis, the
        largest other child is narrower on exactly one axis.  The products
        run over the axes in order, as for every volume, and float products
        of non-negative numbers are monotone, so this is exactly the largest
        of the other 2^d - 1 children's volumes.
        """
        half = 1 << (lev - 1)
        wide, narrow, ours = [], [], []
        alone = np.ones(len(child), dtype=bool)  # the chain's child is the largest, and the only one
        for b, c in zip(self.grid.axes, child.T):
            lo = (c >> 1) << lev
            mid = b[lo + half]
            w0, w1 = mid - b[lo], b[lo + 2 * half] - mid
            odd = (c & 1).astype(bool)
            mine, other = np.where(odd, w1, w0), np.where(odd, w0, w1)
            alone &= mine > other
            wide.append(np.maximum(w0, w1))
            narrow.append(np.minimum(w0, w1))
            ours.append(mine)
        most = reduce(np.multiply, wide)
        if alone.any():
            second = reduce(np.maximum, [reduce(np.multiply, wide[:a] + [narrow[a]] + wide[a + 1 :])
                                         for a in range(len(wide))])
            most = np.where(alone, second, most)
        return most, reduce(np.multiply, ours)

    def _walk(self, nodes: np.ndarray, high: int, best: np.ndarray) -> tuple:
        """Largest missing-child volume on the chains of ``nodes``, top-down.

        Each chain is walked from level ``high`` down to just above its
        stored node, starting from ``best``, that node's own value.  A
        node's missing children are no larger than the node, and float
        subtraction and products of non-negative numbers are monotone, so a
        chain is dropped, exactly, once its node has volume <= its best so
        far.  Returns the largest volumes, the chains' volumes at ``high``
        and the number of chain levels walked.
        """
        points, low = self.point_of(nodes), self.level[nodes]
        live, seen = np.arange(len(nodes)), 0
        vol = topv = self.grid.dyadic_volume(high, self.cells.take(points, axis=0) >> high)
        for lev in range(high, int(low.min()), -1):
            live = live[vol > best[live]]
            most, vol = self._missing_max(lev, self.cells.take(points[live], axis=0) >> (lev - 1))
            best[live] = np.maximum(best[live], most)
            seen += len(live)
            deeper = low[live] < lev - 1
            live, vol = live[deeper], vol[deeper]
            if not len(live):
                break
        return best, topv, seen

    def point_of(self, nodes: np.ndarray) -> np.ndarray:
        """The point at which each of these stored nodes ends (int32 ``nodes``, as ``first``, are not copied)."""
        return np.searchsorted(self.first, nodes, side="right") - 1

    def run(self, rect: DyadicRect) -> Run:
        """The run of the points inside ``rect``, found by two searches of every word over all points."""
        check_dyadic(self.grid, rect)
        levels = self.grid.levels
        low = _morton_words([i << rect.level for i in rect.index], levels)
        high = _ones_below(low, rect.level, levels, rect.dim)  # the key of rect's last cell
        searched = 2 * len(self.words) * len(self.rows).bit_length()
        return Run(_search(self.words, low, "left"), _search(self.words, high, "right"), searched)

    def child_runs(self, rect: DyadicRect, lo: int, hi: int) -> list:
        """The runs of ``rect``'s 2^d children, in lexicographic (= Morton) order, inside ``rect``'s ``[lo, hi)``.

        The points of the run share every digit from ``rect.level`` up, so
        the word holding digit ``rect.level - 1`` is sorted over the run,
        and one search of the 2^d - 1 children's first keys in it splits the
        run.  Each search reads ``bit_length(hi - lo)`` entries; the child
        whose start it finds counts them, and the first child, which starts
        where ``rect`` does, counts none.
        """
        d = rect.dim
        if lo == hi:
            return [Run(lo, lo, 0)] * (1 << d)
        per_word = 63 // d
        k = (self.grid.levels - rect.level) // per_word  # the word holding digit rect.level - 1
        shift = d * (rect.level - 1 - max(0, self.grid.levels - per_word * (k + 1)))
        word = self.words[k]
        above = int(word[lo]) >> (shift + d) << (shift + d)  # the digits of rect's own cell in this word
        keys = [above | (c << shift) for c in range(1, 1 << d)]
        bounds = [lo, *(lo + np.searchsorted(word[lo:hi], keys)).tolist(), hi]
        cost = (hi - lo).bit_length()
        return [Run(bounds[c], bounds[c + 1], cost if c else 0) for c in range(1 << d)]

    def view(self, rect: DyadicRect, run: Run | None = None) -> "SparseDyadicTree":
        """The tree of mass-carrying dyadic rectangles below ``rect``, whose points are ``run`` if given."""
        lo, hi, searched = self.run(rect) if run is None else run
        visits = searched + 1
        if self.first is None:
            self._build_nodes()
            visits += self.node_visits
        if lo == hi:
            none = slice(0, 0)
            return SparseDyadicTree(rect, self, 0, self.level[none], self.mass[none], self.vol[none],
                                    self.chain_at[none], self.chain_top[none], self.chain_empty[none],
                                    self.own_at[none], self.own_empty[none], self.grid.volume_of(rect), visits)
        # the stored nodes below rect end at points lo..hi-1, and at hi-1 only up to rect's level
        last = int(self.first[hi - 1])
        stop = last + bisect.bisect_right(self.level[last : self.first[hi]].tolist(), rect.level)
        nodes = slice(int(self.first[lo]), stop)
        span = np.array((nodes.start, stop), dtype=np.int32)  # int32, as the arrays searched: neither is cast
        a, b = self.chain_at.searchsorted(span).tolist()
        e, f = self.own_at.searchsorted(span).tolist()
        # the view's positions are intp, which index without a cast
        chain_at = np.subtract(self.chain_at[a:b], nodes.start, dtype=np.intp)
        own_at = np.subtract(self.own_at[e:f], nodes.start, dtype=np.intp)
        chain_top, chain_empty, own_empty = self.chain_top[a:b], self.chain_empty[a:b], self.own_empty[e:f]
        if self.top_level[stop - 1] > rect.level:  # rect sits inside the last node's chain, last in chain_at
            chain_top, chain_empty = chain_top.copy(), chain_empty.copy()
            chain_top[-1] = self.grid.volume_of(rect)
            own = own_empty[-1] if f > e and self.own_at[f - 1] == stop - 1 else -1.0  # the walk starts from it
            best, _, seen = self._walk(span[1:] - 1, rect.level, np.array([own]))
            chain_empty[-1] = best[0]
            visits += seen
        empty = max(chain_empty.max(initial=-1.0), own_empty.max(initial=-1.0))
        return SparseDyadicTree(rect, self, nodes.start, self.level[nodes], self.mass[nodes], self.vol[nodes],
                                chain_at, chain_top, chain_empty, own_at, own_empty, float(empty), visits)


@dataclass(eq=False)
class SparseDyadicTree:
    """Sparse dyadic tree restricted below ``rect``: a view of a MortonIndex.

    The node arrays are slices of the index's stored nodes, in post-order:
    children before their parent, siblings in Morton order.  The last node
    is ``rect`` or the bottom of the chain ``rect`` sits in; its chain is
    clipped at ``rect``.  Node i stands for its chain: from level
    ``node_level[i]`` up to the index's ``top_level`` (clipped at ``rect``),
    mass ``node_mass[i]`` and volumes from ``node_vol[i]`` up to the chain's
    top.  Only the nodes ``chain_at`` have one-child nodes above them;
    ``chain_top`` holds their top volumes, the last of them the volume of
    ``rect`` when ``rect`` sits inside a chain, and every other chain tops
    at its own node.  ``chain_empty`` holds the largest missing-child
    volumes on those chains, the clipped chain's taken below ``rect`` (-1
    when it then has none).  Only the nodes ``own_at`` miss children of
    their own; ``own_empty`` holds the largest volumes of those, never
    above their chains'.  ``max_empty_vol`` is the largest volume of an
    empty rectangle below ``rect`` (-1 if there is none), the maximum of
    ``chain_empty`` and ``own_empty``.  ``node_visits`` counts the entries
    read to find the
    view's run (its ``Run.searched``: two searches of every Morton word over
    all points when the view finds the run itself, one search inside the
    parent's run when ``child_runs`` found it), plus one, plus the entries
    read to clip a chain, plus the index's own count when this view built
    the index's nodes.
    """

    rect: DyadicRect
    index: MortonIndex
    start: int  # position of the first node in the index
    node_level: np.ndarray
    node_mass: np.ndarray
    node_vol: np.ndarray
    chain_at: np.ndarray  # the nodes with one-child nodes above them
    chain_top: np.ndarray  # the volumes at the tops of their chains
    chain_empty: np.ndarray  # the largest missing-child volumes on their chains
    own_at: np.ndarray  # the nodes with missing children of their own
    own_empty: np.ndarray  # the largest volumes of those children
    max_empty_vol: float
    node_visits: int

    @property
    def node_count(self) -> int:
        return len(self.node_mass)


def build_tree(
    fhat: EmpiricalDist,
    grid: GridSpec,
    rect: DyadicRect,
    *,
    index: MortonIndex | None = None,
    run: Run | None = None,
) -> SparseDyadicTree:
    """Build the sparse tree of mass-carrying dyadic rectangles below ``rect``.

    ``index`` is a MortonIndex over ``fhat`` and ``grid``; the greedy
    splitter builds one per run, up front.  Without it one is built here.
    Either way the view that builds the index's nodes counts that work in
    its ``node_visits``.  ``run`` is ``rect``'s run in ``index``, as
    ``index.run`` or ``index.child_runs`` gives it; without it the view
    finds it.
    """
    if index is None:
        index = MortonIndex(fhat, grid)
    elif index.fhat is not fhat or index.grid is not grid:
        raise ValueError("the index was built over another sample set or grid")
    return index.view(rect, run)


def compute_d1(tree: SparseDyadicTree, a: float) -> float:
    """Max discrepancy |mass - a*vol| over dyadic sub-rectangles of ``tree.rect``.

    The larger of the empty term ``a * max_empty_vol`` and the largest
    discrepancy over the tree's chains.  Along a chain |mass - a*vol| is
    largest at an end, so a chain's discrepancy is the larger of its
    bottom's and its top's.  Reads only ``tree``.
    """
    if not a >= 0:  # nan fails too
        raise ValueError(f"constant a must be nonnegative, got {a}")
    b2 = a * tree.max_empty_vol if tree.max_empty_vol >= 0 else -1.0  # the empty term
    if tree.node_count == 0:
        return float(b2)
    m, ch = tree.node_mass, tree.chain_at
    disc = np.abs(m - tree.node_vol * a)
    disc[ch] = np.maximum(disc[ch], np.abs(m[ch] - tree.chain_top * a))
    return float(max(disc.max(), b2))


@dataclass(frozen=True)
class DFitResult:
    """Best constant fit on a rectangle: the constant and its discrepancy.

    ``err`` equals ``compute_d1(tree, a)`` bit for bit.  ``probes`` counts
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
    the largest empty volume.  Along a chain the mass is fixed, so D needs
    only each chain's bottom volume and I only its top volume.  The search
    keeps a bracket [lo, hi] with D >= I at lo and I >= D at hi, the line
    active in D at lo and the line active in I at hi (a node's, or the empty
    term a V).  Both lines lie below their envelopes, so their crossing c
    lies in the bracket and its height is a lower bound on min F.  One pass
    at c gives D(c) and I(c).  If they are equal, or the line active on the
    larger side is the one kept, c attains the bound and is optimal;
    otherwise that side's end moves to c and keeps the new active line.
    This is Kelley's cutting-plane method on a one-dimensional LP; every
    step activates a new line, so it ends, in at most five probes on the
    benchmark's leaves.

    At a = 0 and at every a beyond the largest node density, the root's own
    lines are active (the part of ``tree.rect`` outside any node is a union
    of nodes and empty rectangles, so it is no denser), so the first
    crossing is the flattening mass/vol(rect) and constant data stops there
    with err == 0.  Where the two lines are both flat, or rounding puts the
    crossing outside the bracket, a probed end of the bracket is already
    optimal, to a few ulps in the rounding case, since the crossing's height
    bounds min F from below; the fit then stops.  It returns its best probe,
    whose error max(D(c), I(c)) is ``compute_d1`` at c.  The fit reads only
    ``tree``, and each probe refills one node-sized scratch array.
    """
    m, v, ev = tree.node_mass, tree.node_vol, tree.max_empty_vol  # ev < 0: no empty term
    if tree.node_count == 0:
        return DFitResult(0.0, 0.0, 0)  # F(a) is a*vol(rect): a = 0 is optimal
    ch, tc = tree.chain_at, tree.chain_top
    mc = m[ch]
    vr = tc[-1] if len(ch) and ch[-1] == len(m) - 1 else v[-1]  # ``rect`` tops the last chain
    if vr <= 0:
        return DFitResult(0.0, float(m.max()), 1)  # every volume is 0, so F is constant
    lo, hi = 0.0, math.inf
    mp, vp = mq, vq = m[-1], vr  # the root's lines
    empty = False  # whether the line kept at hi is the empty term
    best_err, best_a, probes = math.inf, 0.0, 0
    r = np.empty_like(v)  # each probe's lines, refilled in place
    while probes < _MAX_PROBES:
        mh, vh = (0.0, ev) if empty else (mq, vq)
        c = float((mp + mh) / (vp + vh)) if vp + vh > 0 else math.nan
        if not lo <= c <= hi:
            break
        np.multiply(v, c, out=r)
        np.subtract(m, r, out=r)
        i = int(r.argmax())
        down = float(r[i])
        if len(ch):  # now r = m - top volume * c
            r[ch] = mc - tc * c
        j = int(r.argmin())
        up = -float(r[j])
        top_empty = ev >= 0 and c * ev > up
        if top_empty:
            up = c * ev
        probes += 1
        if max(down, up) < best_err:
            best_err, best_a = max(down, up), c
        if down == up:
            break  # D(c) == I(c), which includes err == 0
        if down > up:
            if mp - vp * c == down:
                break
            lo, mp, vp = c, m[i], v[i]
        else:
            if (c * ev if empty else -(mq - vq * c)) == up:
                break
            k = int(np.searchsorted(ch, j))
            hi, empty, mq, vq = c, top_empty, m[j], tc[k] if k < len(ch) and ch[k] == j else v[j]
    return DFitResult(best_a, best_err, probes)


__all__ = [
    "MortonIndex",
    "Run",
    "SparseDyadicTree",
    "DFitResult",
    "build_tree",
    "compute_d1",
    "fit_d1",
    "check_dyadic",
]
