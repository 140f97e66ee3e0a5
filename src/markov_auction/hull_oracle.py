"""Range argmax of a non-negative linear objective over (cont, ecpm) points.

The incremental slate solver repeatedly asks: among the candidates sitting
between two already-chosen ads (a contiguous index range of the canonically
sorted order), which one maximizes ``coeff_e * ecpm + coeff_q * cont``?

This module answers such queries in O(log^2 n) after an O(n log n) build:
indices are tiled by dyadic blocks (every range splits into O(log n) whole
blocks), each block stores the upper-right convex hull of its points, and a
binary search over a hull finds the best vertex for the query direction.
All arithmetic is plain float64; a query returns exactly the same value a
direct scan with the same expression would.  On exact ties it need not
return the scan's (lowest) index; ``HullIndex.query_max`` says when.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

__all__ = ["EmptyInput", "EmptyRange", "LinearQuery", "HullIndex", "build"]


class EmptyInput(ValueError):
    """Raised when building an index over no points."""


class EmptyRange(ValueError):
    """Raised when a query's index range contains no candidates."""


@dataclass(frozen=True)
class LinearQuery:
    """Maximize ``coeff_e * e + coeff_q * q`` over points lo..hi inclusive.

    Coefficients must lie in the closed upper-right cone with coeff_e
    strictly positive; the stored hulls only keep vertices that can win for
    such directions.  Callers exclude already-chosen ads by shrinking the
    range: chosen ads sit only at gap boundaries in sorted order.
    """

    coeff_e: float
    coeff_q: float
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.coeff_e > 0.0:
            raise ValueError(f"coeff_e must be > 0, got {self.coeff_e!r}")
        if not self.coeff_q >= 0.0:
            raise ValueError(f"coeff_q must be >= 0, got {self.coeff_q!r}")


# A hull vertex is (q, e, original index); blocks keep them sorted by
# strictly increasing q with e non-increasing.
_Vertex = tuple[float, float, int]


def _cross(o: _Vertex, a: _Vertex, b: _Vertex) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _arc(pts: list[_Vertex]) -> tuple[_Vertex, ...]:
    """Upper-right hull of points pre-sorted by q ascending.

    Keeps exactly the vertices that can maximize a linear objective with
    positive e-coefficient and non-negative q-coefficient: the convex-hull
    arc from the highest-e vertex to the highest-q vertex.  Points of equal
    q collapse to the highest e (identical points to their lowest original
    index); interior collinear points are dropped.
    """
    # Collapse equal q: only the highest e (lowest index on exact ties) can win.
    merged: list[_Vertex] = []
    for p in pts:
        if merged and merged[-1][0] == p[0]:
            top = merged[-1]
            if p[1] > top[1] or (p[1] == top[1] and p[2] < top[2]):
                merged[-1] = p
        else:
            merged.append(p)
    hull: list[_Vertex] = []
    for p in merged:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    # Vertices left of the highest-e one have both coordinates smaller and
    # can never win; cut the ascending prefix.
    peak = 0
    for t in range(1, len(hull)):
        if hull[t][1] > hull[peak][1]:
            peak = t
    return tuple(hull[peak:])


class HullIndex:
    """Dyadic tiling of point indices with one hull arc per block.

    ``_levels[beta][alpha]`` covers indices ``alpha * 2**beta`` up to
    ``(alpha+1) * 2**beta - 1`` (the trailing block of a level may be
    clipped by n), so every index is covered exactly once per level.
    """

    __slots__ = ("n", "_levels")

    def __init__(self, n: int, levels: list[list[tuple[_Vertex, ...]]]):
        self.n = n
        self._levels = levels

    # -- range decomposition ------------------------------------------------

    def dyadic_cover(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Maximal stored blocks tiling [lo, hi], as (level, block) pairs.

        At most 2 * ceil(log2 n) blocks, in increasing index order.
        """
        if not 0 <= lo <= hi < self.n:
            raise ValueError(f"range [{lo}, {hi}] out of bounds for {self.n} points")
        cover: list[tuple[int, int]] = []
        pos = lo
        while pos <= hi:
            span = (hi - pos + 1).bit_length() - 1
            if pos > 0:
                align = (pos & -pos).bit_length() - 1
                beta = min(span, align)
            else:
                beta = span
            cover.append((beta, pos >> beta))
            pos += 1 << beta
        return cover

    # -- queries --------------------------------------------------------------

    def query_max(self, query: LinearQuery) -> tuple[int, float]:
        """Best point index and objective value in the query's range.

        The value is exactly a direct scan's.  On an exact tie the index is
        one of the tied points, but not always the lowest: a block keeps
        one point per cont value, the one of highest ecpm (the lowest index
        only among identical points), and drops points inside a hull edge.
        So a lower index whose score only rounds to the maximum, such as
        ecpm 3.3949999999999996 against 3.395 at equal cont under
        ``coeff_e = 0.610569418009508``, or one inside a flat top edge,
        can lose to another maximiser.

        Raises:
            EmptyRange: if the range is empty.
            ValueError: if the range reaches outside the indexed points.
        """
        if query.lo > query.hi:
            raise EmptyRange(f"no candidates in [{query.lo}, {query.hi}]")
        ce, cq = query.coeff_e, query.coeff_q
        best_idx = -1
        best_val = -float("inf")
        for beta, alpha in self.dyadic_cover(query.lo, query.hi):
            idx, val = _arc_max(self._levels[beta][alpha], ce, cq)
            if val > best_val:
                best_idx, best_val = idx, val
        return best_idx, best_val


def _arc_max(arc: Sequence[_Vertex], ce: float, cq: float) -> tuple[int, float]:
    """Binary search for the best vertex of one hull arc.

    Along the arc the objective is unimodal: strictly rising, at most one
    flat edge, then strictly falling.  When the two vertices of a flat top
    edge tie exactly, the lower original index wins.
    """
    lo, hi = 0, len(arc) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        here = ce * arc[mid][1] + cq * arc[mid][0]
        nxt = ce * arc[mid + 1][1] + cq * arc[mid + 1][0]
        if nxt > here:
            lo = mid + 1
        else:
            hi = mid
    q, e, idx = arc[lo]
    val = ce * e + cq * q
    if lo + 1 < len(arc):
        q2, e2, idx2 = arc[lo + 1]
        if ce * e2 + cq * q2 == val and idx2 < idx:
            idx = idx2
    return idx, val


def build(points: Iterable[tuple[float, float]]) -> HullIndex:
    """Index (cont, ecpm) points, given in canonical sorted order.

    Leaf blocks are single points; each further level merges pairs of
    child hulls, so construction is O(n log n) overall.  A stable sort of
    the two arcs merges their ascending runs in linear time and keeps the
    left child's vertex first among equal conts.

    Raises:
        EmptyInput: if there are no points.
    """
    pts = [(float(q), float(e)) for q, e in points]
    if not pts:
        raise EmptyInput("cannot index zero points")
    level: list[tuple[_Vertex, ...]] = [((q, e, i),) for i, (q, e) in enumerate(pts)]
    levels = [level]
    while len(level) > 1:
        nxt = [
            _arc(sorted(level[a] + level[a + 1], key=itemgetter(0))) if a + 1 < len(level) else level[a]
            for a in range(0, len(level), 2)
        ]
        levels.append(nxt)
        level = nxt
    return HullIndex(len(pts), levels)
