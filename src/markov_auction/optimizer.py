"""Exact slate optimizers: exhaustive, dynamic-programming, and incremental.

All three maximize the expected revenue of a slate of at most ``j`` ads
drawn from an auction instance.  Because any chosen set extracts its best
value in canonical (adjusted-ecpm) order, search happens over sets:

* ``brute_force_optimal`` enumerates every subset (small instances only),
* ``dp_optimal`` runs a take/skip recursion down the canonical order,
* ``fast_optimal`` grows a chain of nested solutions, adding the single
  best ad per step with one vectorised scan of every gap of the slate.

``marginal_best_insert`` takes one such step with hull-index range queries
instead, and the tests grow the chain both ways.

Each solver starts from the instance's canonical ranking
(``AuctionInstance.ranking``: one numpy index sort, computed on the
instance's first solve and reused by every later one) and prunes it
(``_ranked``) to the k-skyband, the ads that fewer than ``k`` others beat
strictly on both ecpm and adjusted ecpm.
An ad beaten ``k`` times has a beater outside any slate of ``k`` ads, and
swapping it for that beater strictly raises the value whenever the ad can
be clicked, so no optimal slate holds it.  The result, the ranked form, is
the survivors' positions in the instance in canonical order with their
ecpms and conts.  Each solver body returns the ranks it picks from it and
``_slate`` turns them into the caller's ``Assignment``; VCG re-solves read
only the value of the picks, so they build no instance and no slate.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from heapq import heappushpop
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .hull_oracle import HullIndex, LinearQuery, build
from .model import Assignment, AuctionInstance, Bidder, canonical_order, evaluate

__all__ = [
    "SizeLimitExceeded",
    "NoCandidate",
    "OptChain",
    "brute_force_optimal",
    "dp_optimal",
    "fast_optimal",
    "marginal_best_insert",
    "solve",
    "effective_slots",
]

_BRUTE_MAX_BIDDERS = 22
_BRUTE_MAX_SLOTS = 20


class SizeLimitExceeded(ValueError):
    """Raised when an instance is too large for exhaustive search."""


class NoCandidate(ValueError):
    """Raised when a slate already contains every bidder."""


@dataclass(frozen=True)
class OptChain:
    """Nested optimal slates for 1, 2, ... slots.

    ``solutions[i]`` is optimal for ``i + 1`` slots and contains every ad of
    ``solutions[i - 1]``.  The chain stops early if no remaining ad adds
    value (only possible with zero-value candidates).
    """

    solutions: tuple[Assignment, ...]

    @property
    def final(self) -> Assignment:
        return self.solutions[-1] if self.solutions else Assignment((), 0.0, ())


def effective_slots(inst: AuctionInstance, slots: int | None = None) -> int:
    """Number of slots actually fillable: ``min(requested, n)``."""
    k = inst.slots if slots is None else slots
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"slots must be an integer >= 1, got {k!r}")
    return min(k, inst.n)


def _check_brute_size(inst: AuctionInstance, slots: int | None = None) -> None:
    """Raise ``SizeLimitExceeded`` if ``inst`` is too large for exhaustive search."""
    requested = inst.slots if slots is None else slots
    if inst.n > _BRUTE_MAX_BIDDERS or requested > _BRUTE_MAX_SLOTS:
        raise SizeLimitExceeded(
            f"exhaustive search capped at {_BRUTE_MAX_BIDDERS} bidders / "
            f"{_BRUTE_MAX_SLOTS} slots, got n={inst.n}, slots={requested}"
        )


# ---------------------------------------------------------------------------
# Ranking and k-skyband prune
# ---------------------------------------------------------------------------


def _skyband(ecpms: Sequence[float], conts: Sequence[float], m: int) -> list[int]:
    """Ranks of the ads that fewer than ``m`` others beat strictly on both
    ecpm and adjusted ecpm; the input is in canonical order, as lists or
    float64 arrays.

    Only ads of strictly higher adjusted ecpm can beat an ad, and those all
    come before it, in earlier groups of equal adjusted ecpm.  A min-heap,
    padded with ``-inf``, keeps the ``m`` largest ecpms seen so far; its
    least entry taken when a group starts (``floor``) is the m-th largest
    ecpm of the earlier groups, so an ad is beaten at least ``m`` times
    exactly when ``floor`` is above its ecpm.  A dropped ad's ecpm is below
    every heap entry, where pushing it would change nothing, so only
    survivors are pushed.

    Before that loop, a vectorised bound drops most of the losers.  At
    doubling checkpoints from ``4 * m``, the m-th largest ecpm before the
    checkpoint's group is a lower bound on the floor of every ad from the
    checkpoint to the next one, and those below it are dropped.  The loop
    would drop them too, and they never enter the heap, so the loop over
    the rest keeps exactly the same ranks.  Below ``4 * m`` ads there is no
    checkpoint and the loop sees every ad.
    """
    ecpms = np.asarray(ecpms, dtype=float)
    adjs = ecpms / (1.0 - np.asarray(conts, dtype=float))
    n = len(ecpms)
    candidate = np.empty(n, dtype=bool)
    candidate.fill(True)
    checkpoint = 4 * m
    while checkpoint < n:
        # The checkpoint's group starts after the ads of strictly higher
        # adjusted ecpm; the reversed view is in ascending order.
        start = n - int(np.searchsorted(adjs[::-1], adjs[checkpoint], side="right"))
        if start >= m:
            bound = np.partition(ecpms[:start], start - m)[start - m]
            block = slice(checkpoint, 2 * checkpoint)
            candidate[block] = ecpms[block] >= bound
        checkpoint *= 2
    ranks = candidate.nonzero()[0]
    heap = [-math.inf] * m
    keep: list[int] = []
    group_adj = None
    floor = -math.inf
    for t, e, adj in zip(ranks.tolist(), ecpms[ranks].tolist(), adjs[ranks].tolist()):
        if adj != group_adj:
            group_adj = adj
            floor = heap[0]
        if floor > e:
            continue
        keep.append(t)
        heappushpop(heap, e)
    return keep


def _ranked(inst: AuctionInstance, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranked form of an instance for ``m`` slots: its cached canonical
    ranking, pruned to the m-skyband unless every ad fits in the slots."""
    order, ecpms, conts = inst.ranking
    if len(order) > m:
        keep = _skyband(ecpms, conts, m)
        if len(keep) < len(order):
            order, ecpms, conts = order[keep], ecpms[keep], conts[keep]
    return order, ecpms, conts


def _slate(bidders: Sequence[Bidder], order: np.ndarray, ranks: Sequence[int]) -> Assignment:
    """The slate of the given ranks of a ranked form of ``bidders``."""
    return Assignment.from_bidders([bidders[i] for i in order[sorted(ranks)].tolist()])


# ---------------------------------------------------------------------------
# Exhaustive reference
# ---------------------------------------------------------------------------


def brute_force_optimal(inst: AuctionInstance, slots: int | None = None) -> Assignment:
    """Exact maximizer over every subset of at most ``slots`` bidders.

    Equal-value optima resolve to the lexicographically smallest id
    sequence (the empty tail beats any zero-value padding).

    Raises:
        SizeLimitExceeded: when n > 22 or the requested slot count > 20.
    """
    return _slate(inst.bidders, *_run(_brute, inst, slots))


def _brute(
    bidders: Sequence[Bidder], order: np.ndarray, ecpms: np.ndarray, conts: np.ndarray, m: int
) -> tuple[int, ...]:
    ecpms, conts = ecpms.tolist(), conts.tolist()
    ids = [bidders[i].id for i in order.tolist()]
    best_eff = 0.0
    best_ids: tuple[int, ...] = ()
    best_combo: tuple[int, ...] = ()
    for r in range(1, m + 1):
        for combo in combinations(range(len(ids)), r):
            eff = 0.0
            for t in reversed(combo):
                eff = ecpms[t] + conts[t] * eff
            if eff > best_eff:
                best_eff = eff
                best_ids = tuple(ids[t] for t in combo)
                best_combo = combo
            elif eff == best_eff:
                cand = tuple(ids[t] for t in combo)
                if cand < best_ids:
                    best_ids = cand
                    best_combo = combo
    return best_combo


# ---------------------------------------------------------------------------
# Take/skip dynamic program
# ---------------------------------------------------------------------------


def dp_optimal(inst: AuctionInstance, slots: int | None = None) -> Assignment:
    """Optimal slate by a take/skip recursion over the canonical order.

    With bidders ranked by adjusted ecpm, the best value from rank ``i``
    down with ``r`` open slots is

        best(i, r) = max(best(i+1, r-1) * q_i + e_i,  best(i+1, r))

    Exact ties prefer "skip", so zero-value ads never pad the slate, and
    the backtrack stops at an ad with ``cont == 0``: nothing below it can
    be clicked.  The recursion runs over the k-skyband survivors, so the
    cost is an O(n log n) numpy sort, an O(n) prune bound plus an
    O(c log slots) exact prune over the ``c`` ads the bound keeps, then
    O(survivors * slots) time and take/skip memory.
    """
    return _slate(inst.bidders, *_run(_BODIES["dp"], inst, slots))


def _dp(ecpms: np.ndarray, conts: np.ndarray, m: int) -> list[int]:
    ecpms, conts = ecpms.tolist(), conts.tolist()
    n = len(ecpms)
    take = [bytearray(m + 1) for _ in range(n)]
    below = [0.0] * (m + 1)
    for i in range(n - 1, -1, -1):
        e_i = ecpms[i]
        q_i = conts[i]
        row = take[i]
        here = [0.0] * (m + 1)
        for r in range(1, m + 1):
            taken = below[r - 1] * q_i + e_i
            skipped = below[r]
            if taken > skipped:
                here[r] = taken
                row[r] = 1
            else:
                here[r] = skipped
        below = here
    chosen: list[int] = []
    r = m
    for i in range(n):
        if r and take[i][r]:
            chosen.append(i)
            r -= 1
            if conts[i] == 0.0:
                break
    return chosen


# ---------------------------------------------------------------------------
# Near-linear chain solver
# ---------------------------------------------------------------------------


def _prefix_tables(
    chosen: Sequence[int], ecpms: Sequence[float], conts: Sequence[float]
) -> tuple[list[float], list[float], list[float]]:
    """Running slate tables for the current members (sorted positions).

    Returns ``(cont_prefix, eff_prefix, eff_suffix)`` where entry ``p`` of
    the prefixes covers the first ``p`` members and ``eff_suffix[p]`` is
    the value of the members from rank ``p`` down.
    """
    i = len(chosen)
    cont_prefix = [1.0] * (i + 1)
    eff_prefix = [0.0] * (i + 1)
    for t, p in enumerate(chosen):
        eff_prefix[t + 1] = eff_prefix[t] + cont_prefix[t] * ecpms[p]
        cont_prefix[t + 1] = cont_prefix[t] * conts[p]
    eff_suffix = [0.0] * (i + 1)
    for t in range(i - 1, -1, -1):
        p = chosen[t]
        eff_suffix[t] = ecpms[p] + conts[p] * eff_suffix[t + 1]
    return cont_prefix, eff_prefix, eff_suffix


def _best_insert(
    chosen: Sequence[int],
    ecpms: Sequence[float],
    conts: Sequence[float],
    index: HullIndex,
) -> tuple[float, int, float]:
    """Best single position to add to ``chosen`` (sorted ranks).

    Inserting candidate ``x`` into the gap after the first ``g`` members
    yields value  eff_prefix[g] + cont_prefix[g] * (e_x + q_x * eff_suffix[g]),
    linear in (q_x, e_x) — one hull query per gap.  Returns
    ``(new_value, position, current_value)``; ties between gaps go to the
    earliest gap.  No user reaches a gap whose prefix continuation mass is
    exactly 0, so an ad placed there leaves the slate at its current value;
    the gap is scored that way without a query and never beats keeping the
    slate as it is.
    """
    n = index.n
    i = len(chosen)
    cont_prefix, eff_prefix, eff_suffix = _prefix_tables(chosen, ecpms, conts)
    best_val = -float("inf")
    best_pos = -1
    for g in range(i + 1):
        lo = chosen[g - 1] + 1 if g > 0 else 0
        hi = chosen[g] - 1 if g < i else n - 1
        if lo > hi:
            continue
        ce = cont_prefix[g]
        if ce == 0.0:
            val, pos = eff_suffix[0], lo
        else:
            pos, lin = index.query_max(LinearQuery(ce, ce * eff_suffix[g], lo, hi))
            val = eff_prefix[g] + lin
        if val > best_val:
            best_val, best_pos = val, pos
    return best_val, best_pos, eff_suffix[0]


def fast_optimal(inst: AuctionInstance, slots: int | None = None) -> OptChain:
    """Chain of nested optimal slates, grown one best insertion at a time.

    Every optimal slate for ``i`` slots extends to one for ``i + 1`` slots,
    so the chain member for step ``i + 1`` is the best single insertion
    into the current slate.  Each step scores every unchosen survivor in
    the gap of the slate it falls into with one vectorised pass, the same
    float expression ``_best_insert`` evaluates, and keeps the earliest gap
    holding the best value, then the lowest rank of that gap holding its
    best linear term.  Adding the gap's prefix value can round away an ulp
    between ranks of one gap, so the rank is not taken from the summed
    scores.  The chain stops when that rank gains nothing over the gap's
    current term, judged without the prefix value, which can round the
    summed score above the slate's value.  After the O(n log n) numpy sort
    and the prune the cost is O(slots * s) numpy work and O(slots^2)
    Python for ``s`` survivors.  ``solve(method="fast")`` grows the same
    chain but builds only its last slate.
    """
    order, picks = _run(_BODIES["fast"], inst, slots)
    return OptChain(tuple(_slate(inst.bidders, order, picks[:i]) for i in range(1, len(picks) + 1)))


def _fast(ecpms: np.ndarray, conts: np.ndarray, m: int) -> list[int]:
    """The ranks the chain adds, one per step, in the order it adds them;
    the slate after step ``i`` is the first ``i`` of them, sorted."""
    ecpm_list, cont_list = ecpms.tolist(), conts.tolist()
    n = len(ecpm_list)
    # gap[t]: the number of chosen ranks before rank t, so the slate gap t is in.
    gap = np.zeros(n, dtype=np.intp)
    chosen: list[int] = []
    picks: list[int] = []
    for _ in range(m):
        cont_prefix, eff_prefix, eff_suffix = _prefix_tables(chosen, ecpm_list, cont_list)
        current = eff_suffix[0]
        ce = np.array(cont_prefix)
        cq = np.array([c * v for c, v in zip(cont_prefix, eff_suffix)])
        # A gap no user reaches has ce == cq == 0, so its ranks score
        # exactly the slate's current value.
        base = np.array([p if c != 0.0 else current for c, p in zip(cont_prefix, eff_prefix)])
        lin = ce[gap] * ecpms + cq[gap] * conts
        score = base[gap] + lin
        score[chosen] = -np.inf
        best = int(np.argmax(score))
        if score[best] <= current:
            break
        g = int(gap[best])
        lo = chosen[g - 1] + 1 if g > 0 else 0
        hi = chosen[g] if g < len(chosen) else n
        pos = lo + int(np.argmax(lin[lo:hi]))
        if lin[pos] <= cq[g]:
            break
        chosen.insert(g, pos)
        picks.append(pos)
        gap[pos + 1 :] += 1
    return picks


def marginal_best_insert(
    inst: AuctionInstance,
    slate: Assignment,
    index: HullIndex | None = None,
) -> tuple[int, float]:
    """The single ad whose insertion into ``slate`` gains the most value.

    The slate's members must come from ``inst``; candidates are everyone
    else.  Returns ``(bidder_id, new_efficiency)``.  Ties between gaps go
    to the earliest gap; within a gap the hull index returns a maximiser,
    usually the earliest canonical rank (see ``HullIndex.query_max``).

    Raises:
        NoCandidate: if the slate already contains every bidder.
    """
    ranked = canonical_order(inst.bidders)
    if index is None:
        index = build((b.cont, b.ecpm) for b in ranked)
    rank_of = {b.id: t for t, b in enumerate(ranked)}
    chosen = sorted(rank_of[bid_id] for bid_id in slate.order)
    if len(chosen) >= inst.n:
        raise NoCandidate("every bidder is already in the slate")
    ecpms = [b.ecpm for b in ranked]
    conts = [b.cont for b in ranked]
    _, pos, _ = _best_insert(chosen, ecpms, conts, index)
    insort(chosen, pos)
    eff, _ = evaluate([ranked[p] for p in chosen])
    return ranked[pos].id, eff


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Solver bodies, each run on the bidders, a ranked form of them and its slot
# count; only brute reads the bidders, for the ids of its tie rule.
_BODIES: dict[str, Callable[[Sequence[Bidder], np.ndarray, np.ndarray, np.ndarray, int], Sequence[int]]] = {
    "brute": _brute,
    "dp": lambda bidders, order, ecpms, conts, m: _dp(ecpms, conts, m),
    "fast": lambda bidders, order, ecpms, conts, m: _fast(ecpms, conts, m),
}


def _run(body: Callable, inst: AuctionInstance, slots: int | None) -> tuple[np.ndarray, Sequence[int]]:
    """The ranked form's ``order`` and the ranks a solver body picks from it
    for the effective slot count, after exhaustive search's size check."""
    if body is _brute:
        _check_brute_size(inst, slots)
    m = effective_slots(inst, slots)
    order, ecpms, conts = _ranked(inst, m)
    return order, body(inst.bidders, order, ecpms, conts, m)


def solve(inst: AuctionInstance, slots: int | None = None, method: str = "dp") -> Assignment:
    """Run the named solver ("brute", "dp", or "fast") on an instance."""
    try:
        body = _BODIES[method]
    except KeyError:
        raise ValueError(f"unknown solver {method!r}; expected one of {sorted(_BODIES)}")
    return _slate(inst.bidders, *_run(body, inst, slots))
