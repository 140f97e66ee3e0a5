"""Exact slate optimizers: exhaustive, dynamic-programming, and incremental.

All three maximize the expected revenue of a slate of at most ``j`` ads
drawn from an auction instance.  Because any chosen set extracts its best
value in canonical (adjusted-ecpm) order, search happens over sets:

* ``brute_force_optimal`` enumerates every subset (small instances only),
* ``dp_optimal`` runs a take/skip recursion down the canonical order, one
  slot count at a time,
* ``fast_optimal`` grows a chain of nested solutions, adding the single
  best ad per step; one vectorised pass scores each gap of the slate once.

``marginal_best_insert`` takes one such step with hull-index range queries
instead, and the tests grow the chain both ways.

All three break ties by one rule, so VCG charges the same winners the
same payments whichever runs: among optimal slates, take the one whose
canonical ranks, followed by ``n`` for the end of the slate, form the
lexicographically largest sequence; an ad is left out unless leaving it
out loses value.  ``dp`` skips on a tie, ``brute`` compares
``combo + (n,)`` and ``fast`` takes the latest gap holding the best score,
then the highest rank of that gap holding its best linear term.  A tie
that only rounding makes can still part the slates.

Each solver starts from the instance's canonical ranking
(``AuctionInstance.ranking``: one numpy index sort, computed on the
instance's first solve and reused by every later one) pruned
(``_ranked``) to the k-skyband, the ads that fewer than ``k`` others beat
strictly on both ecpm and adjusted ecpm.  The instance keeps the pruned
form for the two slot counts used last, 24 bytes per survivor, so later
solves at the same slot count prune nothing.
An ad beaten ``k`` times has a beater outside any slate of ``k`` ads, and
swapping it for that beater strictly raises the value whenever the ad can
be clicked, so no optimal slate holds it.  The result, the ranked form, is
the survivors' positions in the instance in canonical order with their
ecpms and conts.  Each solver body returns the ranks it picks from it and
``_slate`` turns them into the caller's ``Assignment``; VCG pricing
(``pricing.vcg_prices``) reads the (k+1)-skyband form and folds the
take/skip value rows in its own walk up the ranks, whichever solver
picked the slate, and builds no slate.
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

    When no candidate's ecpm falls below its predecessor's, each is a
    record, at least every earlier ecpm, which no floor exceeds, so every
    candidate is kept and the loop does not run.
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
    cand_e = ecpms[ranks]
    if not (cand_e[1:] < cand_e[:-1]).any():
        return ranks.tolist()
    heap = [-math.inf] * m
    keep = []
    group_adj = None
    floor = -math.inf
    for t, e, adj in zip(ranks.tolist(), cand_e.tolist(), adjs[ranks].tolist()):
        if adj != group_adj:
            group_adj = adj
            floor = heap[0]
        if floor > e:
            continue
        keep.append(t)
        heappushpop(heap, e)
    return keep


def _ranked(inst: AuctionInstance, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranked form of an instance for ``m`` slots: its kept canonical
    ranking, pruned to the m-skyband unless every ad fits in the slots.

    The survivors depend only on the instance and ``m``, so each pruned
    form is kept on the instance (``AuctionInstance._pruned``) and later
    calls with the same ``m`` prune nothing.  Only the two slot counts used
    last are kept, the ``k`` and ``k + 1`` that one ``vcg_prices`` reads.
    The arrays are read-only, and with nothing pruned they are the
    ranking's own."""
    ranking = inst.ranking
    if len(ranking[0]) <= m:
        return ranking
    forms = inst._pruned
    form = forms.pop(m, None)
    if form is None:
        keep = _skyband(ranking[1], ranking[2], m)
        form = ranking
        if len(keep) < len(ranking[0]):
            form = tuple(a[keep] for a in ranking)
            for a in form:
                a.setflags(write=False)
        # Keep the slot count used last beside this one.  Each step is one
        # dict operation, so an instance shared by threads at worst prunes
        # a slot count twice.
        for old in list(forms)[:-1]:
            forms.pop(old, None)
    forms[m] = form
    return form


def _slate(bidders: Sequence[Bidder], order: np.ndarray, ranks: Sequence[int]) -> Assignment:
    """The slate of the given ranks of a ranked form of ``bidders``."""
    return Assignment.from_bidders([bidders[i] for i in order[sorted(ranks)].tolist()])


# ---------------------------------------------------------------------------
# Exhaustive reference
# ---------------------------------------------------------------------------


def brute_force_optimal(inst: AuctionInstance, slots: int | None = None) -> Assignment:
    """Exact maximizer over every subset of at most ``slots`` bidders;
    equal-value optima resolve by the module's tie rule.

    Raises:
        SizeLimitExceeded: when n > 22 or the requested slot count > 20.
    """
    return _slate(inst.bidders, *_run(_brute, inst, slots))


def _brute(ecpms: np.ndarray, conts: np.ndarray, m: int) -> tuple[int, ...]:
    ecpms, conts = ecpms.tolist(), conts.tolist()
    end = (len(ecpms),)
    best_eff = 0.0
    best_combo: tuple[int, ...] = ()
    for r in range(1, m + 1):
        for combo in combinations(range(len(ecpms)), r):
            eff = 0.0
            for t in reversed(combo):
                eff = ecpms[t] + conts[t] * eff
            if eff > best_eff or (eff == best_eff and combo + end > best_combo + end):
                best_eff = eff
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

    Exact ties prefer "skip", which is the module's tie rule, and
    the backtrack stops at an ad with ``cont == 0``: nothing below it can
    be clicked.  The recursion runs over the k-skyband survivors, so the
    cost is an O(n log n) numpy sort once per instance, an O(n) prune
    bound plus an O(c log slots) exact prune over the ``c`` ads it leaves
    (skipped when all are ecpm records) once per slot count, then one
    numpy pass over the survivors per open-slot count, so
    O(survivors * slots) numpy work.  The passes keep two value columns
    and a bool mask of where "take" wins; the backtrack reads one mask row
    per slot.
    """
    return _slate(inst.bidders, *_run(_BODIES["dp"], inst, slots))


def _dp(ecpms: np.ndarray, conts: np.ndarray, m: int) -> list[int]:
    s = len(ecpms)
    # take[r - 1, i]: with r open slots, taking rank i is worth strictly
    # more than skipping it.  Column s, past the last rank, stays False, so
    # the backtrack's slices are never empty.
    take = np.zeros((m, s + 1), dtype=bool)
    # best(., r - 1) and best(., r) over ranks 0..s; best(s, r) stays 0.
    below, col = np.zeros(s + 1), np.zeros(s + 1)
    taken = np.empty(s)
    for row in take:
        np.multiply(below[1:], conts, out=taken)
        taken += ecpms
        # best(i, r) is the largest "take" value from rank i down: taken is
        # never negative, so this is the recursion's max, bit for bit.
        np.maximum.accumulate(taken[::-1], out=col[-2::-1])
        np.greater(taken, col[1:], out=row[:s])
        below, col = col, below
    chosen, i = [], 0
    for row in take[::-1]:
        i += int(row[i:].argmax())
        if not row[i]:
            break
        chosen.append(i)
        if conts[i] == 0.0:
            break
        i += 1
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
    into the current slate.  An ad inserted into gap ``g`` is worth
    ``base[g] + (ce[g] * e + cq[g] * q)`` (as in ``_best_insert``), so one
    vectorised pass per step takes each gap's best linear term over its
    unchosen survivors; rounding ``base + x`` never decreases as ``x``
    grows, so adding ``base[g]`` gives the gap's best score.  The step
    follows the module's tie rule: the latest gap holding the best value,
    then the highest rank of that gap holding its best linear term (the
    last one equal to the gap's maximum).  Adding the gap's prefix value
    can round away an ulp between ranks of one gap, so the rank is not
    taken from the summed scores.  The chain stops when that rank gains
    nothing over the gap's current term, judged without the prefix value,
    which can round the summed score above the slate's value.  The per-gap
    tables (members, gap bounds, ``ce``, ``base``) live in numpy arrays
    allocated once per solve and shifted in place on each insertion, and
    only the gaps below the new member recompute ``ce`` and ``base``.
    After the O(n log n) numpy sort and the prune, step ``i`` costs O(s)
    numpy work plus O(i) Python for ``s`` survivors, so O(slots * s) numpy
    work and O(slots^2) Python in total.  The same chain, with only its
    last slate built, is ``solve(method="fast")``.
    """
    order, picks = _run(_BODIES["fast"], inst, slots)
    return OptChain(tuple(_slate(inst.bidders, order, picks[:i]) for i in range(1, len(picks) + 1)))


def _fast(ecpms: np.ndarray, conts: np.ndarray, m: int) -> list[int]:
    """The ranks the chain adds, one per step, in the order it adds them;
    the slate after step ``i`` is the first ``i`` of them, sorted.
    ``ecpms`` and ``conts`` are only read: they are the read-only arrays
    the instance keeps, its pruned form or, with nothing pruned, its
    ranking."""
    n = len(ecpms)
    picks: list[int] = []
    # Members' scores in slate order, read by the Python suffix loop.
    chosen_e: list[float] = []
    chosen_q: list[float] = []
    # Segment g runs over chosen[g - 1], then the ranks of gap g, from
    # edges[g] (0 for g = 0) to edges[g + 1]; so edges[1 : i + 1] are the
    # chosen ranks and n ends the last segment.  Members score -inf, so an
    # empty gap's segment, or rank 0 once it is chosen, maxes at -inf.
    edges = np.empty(m + 2, dtype=np.intp)
    edges[0], edges[1] = 0, n
    # Per gap g: the slate's value from member g down, the cont prefix,
    # their product and the prefix value, as in _prefix_tables.
    eff_suffix = np.zeros(m + 1)
    ce = np.ones(m + 1)
    cq = np.empty(m + 1)
    base = np.zeros(m + 1)
    current = 0.0
    for i in range(m):
        gaps = i + 1
        np.multiply(ce[:gaps], eff_suffix[:gaps], out=cq[:gaps])
        gap_base = base[:gaps]
        if ce[i] == 0.0:
            # A gap no user reaches has ce == cq == 0, so its ranks score
            # exactly the slate's current value.
            gap_base = np.where(ce[:gaps] == 0.0, current, gap_base)
        widths = edges[1 : gaps + 1] - edges[:gaps]
        lin = ce[:gaps].repeat(widths) * ecpms + cq[:gaps].repeat(widths) * conts
        lin[edges[1:gaps]] = -np.inf
        gap_max = np.maximum.reduceat(lin, edges[:gaps])
        score = gap_base + gap_max
        g = gaps - 1 - int(score[::-1].argmax())
        if score[g] <= current:
            break
        # The reversed argmax is the last rank holding the gap's maximum.
        hi = int(edges[g + 1])
        pos = hi - 1 - int(lin[edges[g] : hi][::-1].argmax())
        if lin[pos] <= cq[g]:
            break
        picks.append(pos)
        edges[g + 2 : gaps + 2] = edges[g + 1 : gaps + 1]
        edges[g + 1] = pos
        chosen_e.insert(g, float(ecpms[pos]))
        chosen_q.insert(g, float(conts[pos]))
        eff_suffix[g + 1 : gaps + 1] = eff_suffix[g:gaps]
        current = float(eff_suffix[g + 1])
        for t in range(g, -1, -1):
            current = chosen_e[t] + chosen_q[t] * current
            eff_suffix[t] = current
        # Only the gaps below the new member change ce and base.  Each entry
        # is the one above it times a cont, or plus a term, as in the
        # running sums of _prefix_tables, so every float is bit-identical.
        members = edges[g + 1 : gaps + 1]
        ce[g + 1 : gaps + 1] = conts[members]
        np.multiply.accumulate(ce[g : gaps + 1], out=ce[g : gaps + 1])
        np.multiply(ce[g:gaps], ecpms[members], out=base[g + 1 : gaps + 1])
        np.add.accumulate(base[g : gaps + 1], out=base[g : gaps + 1])
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

# Solver bodies, each run on a ranked form's ecpms and conts and its slot count.
_BODIES: dict[str, Callable[[np.ndarray, np.ndarray, int], Sequence[int]]] = {"brute": _brute, "dp": _dp, "fast": _fast}


def _run(body: Callable, inst: AuctionInstance, slots: int | None) -> tuple[np.ndarray, Sequence[int]]:
    """The ranked form's ``order`` and the ranks a solver body picks from it
    for the effective slot count, after exhaustive search's size check."""
    requested = inst.slots if slots is None else slots
    if body is _brute and (inst.n > _BRUTE_MAX_BIDDERS or requested > _BRUTE_MAX_SLOTS):
        raise SizeLimitExceeded(
            f"exhaustive search capped at {_BRUTE_MAX_BIDDERS} bidders / "
            f"{_BRUTE_MAX_SLOTS} slots, got n={inst.n}, slots={requested}"
        )
    m = effective_slots(inst, slots)
    order, ecpms, conts = _ranked(inst, m)
    return order, body(ecpms, conts, m)


def solve(inst: AuctionInstance, slots: int | None = None, method: str = "dp") -> Assignment:
    """Run the named solver ("brute", "dp", or "fast") on an instance."""
    try:
        body = _BODIES[method]
    except KeyError:
        raise ValueError(f"unknown solver {method!r}; expected one of {sorted(_BODIES)}")
    return _slate(inst.bidders, *_run(body, inst, slots))
