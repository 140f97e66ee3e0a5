"""Domain model for position auctions with a Markovian cascade user.

A user scans an ordered slate of ads from the top. At each ad she clicks
with the ad's click probability (``ctr``) and, independently, continues to
the next ad with its continuation probability (``cont``).  The expected
revenue of a slate therefore telescopes from the bottom up: each ad
contributes its ecpm, discounted by the continuation probabilities of every
ad placed above it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from heapq import heappushpop
from itertools import islice
from operator import attrgetter, lt
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DuplicateBidder",
    "Bidder",
    "AuctionInstance",
    "Assignment",
    "evaluate",
    "canonical_order",
    "click_probabilities",
]


class DuplicateBidder(ValueError):
    """Raised when the same bidder id appears twice in one slate or instance."""


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class Bidder:
    """One ad with its bid and user-behaviour parameters.

    Attributes:
        id: Unique non-negative integer identity.
        bid: Money the bidder pays per click, >= 0.
        ctr: Probability the user clicks this ad when she reaches it, in (0, 1].
        cont: Probability the user keeps scanning past this ad, in [0, 1).

    Scores are real numbers, stored as floats, and the adjusted ecpm is
    finite, so no slate value (at most its largest adjusted ecpm) overflows.
    The class is slotted: an instance holds its four fields and no
    ``__dict__``.
    """

    id: int
    bid: float
    ctr: float
    cont: float

    def __init__(self, id: int, bid: float, ctr: float, cont: float) -> None:
        # One check passes every valid ad given as an int id and three
        # floats; every comparison is False for NaN, and a finite ecpm
        # overflows only to +inf.  Anything else takes the slow path.
        if not (
            type(id) is int and id >= 0
            and type(bid) is type(ctr) is type(cont) is float
            and 0.0 <= bid < _INF and 0.0 < ctr <= 1.0 and 0.0 <= cont < 1.0
            and ctr * bid / (1.0 - cont) < _INF
        ):
            bid, ctr, cont = _checked(id, bid, ctr, cont)
        _set_id(self, id)
        _set_bid(self, bid)
        _set_ctr(self, ctr)
        _set_cont(self, cont)

    @property
    def ecpm(self) -> float:
        """Expected money per impression: ``ctr * bid``."""
        return self.ctr * self.bid

    @property
    def adjusted_ecpm(self) -> float:
        """ecpm amortized over the expected stop mass: ``ecpm / (1 - cont)``.

        Sorting a slate by decreasing adjusted ecpm maximizes its expected
        revenue, so this is the canonical ranking score.
        """
        return self.ecpm / (1.0 - self.cont)


# The slots' own setters, which a frozen instance's ``__setattr__`` refuses.
_set_id, _set_bid, _set_ctr, _set_cont = (Bidder.__dict__[f].__set__ for f in ("id", "bid", "ctr", "cont"))
_INF = math.inf


def _checked(id: object, bid: object, ctr: object, cont: object) -> tuple[float, float, float]:
    """The scores of a valid ad as floats, or the ``ValueError`` naming its
    first bad field."""
    if not isinstance(id, int) or isinstance(id, bool) or id < 0:
        raise ValueError(f"id must be a non-negative integer, got {id!r}")
    b, c, q = _as_float(bid), _as_float(ctr), _as_float(cont)
    for field, raw, inside, interval in (
        ("bid", bid, 0.0 <= b < math.inf, "[0.0, inf)"),
        ("ctr", ctr, 0.0 < c <= 1.0, "(0.0, 1.0]"),
        ("cont", cont, 0.0 <= q < 1.0, "[0.0, 1.0)"),
    ):
        if not inside:
            raise ValueError(f"bidder {id}: field {field!r} must be a number in {interval}, got {raw!r}")
    if not c * b / (1.0 - q) < math.inf:
        raise ValueError(f"bidder {id}: adjusted ecpm ctr * bid / (1 - cont) must be finite")
    return b, c, q


def _as_float(raw: object) -> float:
    """A bidder field as a float: NaN for a bool or a non-number, and inf
    for an int too large for a float."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        return math.nan
    try:
        return float(raw)
    except OverflowError:
        return math.inf


def _has_repeat(ids: list[int]) -> bool:
    """Whether ``ids`` holds a repeat: one numpy sort of the ids as int64,
    which makes no Python comparisons and takes less memory than a set,
    or a set when an id does not fit in an int64."""
    try:
        a = np.fromiter(ids, np.int64, len(ids))
    except OverflowError:
        return len(set(ids)) < len(ids)
    a.sort()
    return bool((a[1:] == a[:-1]).any())


@dataclass(frozen=True)
class AuctionInstance:
    """A set of competing bidders plus the number of ad slots on the page."""

    bidders: tuple[Bidder, ...]
    slots: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bidders", tuple(self.bidders))
        if not isinstance(self.slots, int) or isinstance(self.slots, bool) or self.slots < 1:
            raise ValueError(f"slots must be an integer >= 1, got {self.slots!r}")
        # Strictly ascending ids, as the loaders number them, hold no repeat
        # and cost one pass; only a repeat makes a loop find the first one
        # in input order.
        ids = list(map(attrgetter("id"), self.bidders))
        if not all(map(lt, ids, islice(ids, 1, None))) and _has_repeat(ids):
            seen: set[int] = set()
            for i in ids:
                if i in seen:
                    raise DuplicateBidder(f"bidder id {i} appears more than once")
                seen.add(i)

    @property
    def n(self) -> int:
        return len(self.bidders)

    def bidder(self, bidder_id: int) -> Bidder:
        for b in self.bidders:
            if b.id == bidder_id:
                return b
        raise KeyError(bidder_id)

    @cached_property
    def ranking(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``canonical_ranks(self.bidders)``, computed on first use and kept
        for the life of the instance: 24 bytes per ad.

        Every solve, ``vcg_prices`` and ``compare_gsp`` on this instance
        reads it, or the pruned pair of it in ``_pruned``.  The arrays are
        read-only, since every caller shares them.  The attribute is no
        dataclass field, so it takes no part in ``==``, ``hash``, ``repr``
        or the constructor, and copies made with ``with_bid``,
        ``dataclasses.replace``, ``copy`` or ``pickle`` start unranked.
        """
        arrays = canonical_ranks(self.bidders)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    @cached_property
    def _pruned(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """``(k-form, (k+1)-form)`` for ``k = min(slots, n)``: the ranking
        pruned to the k- and the (k+1)-skyband, found in one ``_skyband``
        pass on first use and kept, like ``ranking``, for the life of the
        instance.  A solve reads the k-form and ``vcg_prices`` the
        (k+1)-form.  A form holds 24 bytes per survivor (position, ecpm and
        cont) in read-only arrays, or is the ranking's own arrays when
        nothing is pruned.  Like ``ranking``, the pair takes no part in the
        instance's value, and copies start with none; threads that share an
        instance at worst prune it twice.
        """
        ranking = self.ranking
        forms = []
        for keep in _skyband(ranking[1], ranking[2], min(self.slots, self.n)):
            form = ranking
            if len(keep) < len(ranking[0]):
                form = tuple(a[keep] for a in ranking)
                for a in form:
                    a.setflags(write=False)
            forms.append(form)
        return tuple(forms)

    def __getstate__(self) -> dict:
        """The fields alone, so a pickle or ``copy.copy`` carries no kept
        ranking or pruned pair and shares none with the original; the
        copy builds its own on first use."""
        return {"bidders": self.bidders, "slots": self.slots}

    def with_bid(self, bidder_id: int, bid: float) -> "AuctionInstance":
        """A copy of the instance with one bidder's bid replaced."""
        for j, b in enumerate(self.bidders):
            if b.id == bidder_id:
                bidders = (*self.bidders[:j], Bidder(b.id, bid, b.ctr, b.cont), *self.bidders[j + 1 :])
                return AuctionInstance(bidders, self.slots)
        raise KeyError(bidder_id)


@dataclass(frozen=True)
class Assignment:
    """A concrete slate: bidder ids top slot first, with its evaluation.

    ``click_probs[j]`` is the probability that the ad in slot ``j`` is
    clicked, i.e. its ctr discounted by every continuation probability
    above it; ``efficiency`` is the expected revenue of the whole slate.
    """

    order: tuple[int, ...]
    efficiency: float
    click_probs: tuple[float, ...]

    @classmethod
    def from_bidders(cls, ordered: Sequence[Bidder]) -> "Assignment":
        eff, _ = evaluate(ordered)
        return cls(
            order=tuple(b.id for b in ordered),
            efficiency=eff,
            click_probs=click_probabilities(ordered),
        )

    @property
    def selected(self) -> frozenset[int]:
        return frozenset(self.order)


# ---------------------------------------------------------------------------
# Slate arithmetic
# ---------------------------------------------------------------------------


def evaluate(order: Sequence[Bidder]) -> tuple[float, float]:
    """Expected revenue and total continuation mass of a slate.

    The revenue telescopes bottom-up (Horner style): with ``e = ctr * bid``,

        value(x1, .., xm) = e_1 + q_1 * (e_2 + q_2 * (... e_m))

    Returns:
        ``(efficiency, cont_product)`` where ``cont_product`` is the product
        of all continuation probabilities in the slate.  The empty slate
        evaluates to ``(0.0, 1.0)``.

    Raises:
        DuplicateBidder: if the slate repeats a bidder id.
    """
    ids = {b.id for b in order}
    if len(ids) != len(order):
        raise DuplicateBidder("slate repeats a bidder")
    eff = 0.0
    cont = 1.0
    for b in reversed(order):
        eff = b.ecpm + b.cont * eff
        cont *= b.cont
    return eff, cont


def canonical_ranks(bidders: Sequence[Bidder]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of ``bidders`` in canonical order, with their ecpms and
    conts in that order, as float64 arrays.

    Canonical order is decreasing adjusted ecpm, ties by ascending id.
    The scores are computed with the same float operations as
    ``Bidder.ecpm`` and ``Bidder.adjusted_ecpm``, so they are bit-identical
    to them.  One index sort orders the ads; each run of equal adjusted
    ecpm is then put in id order in Python, so the sort itself need not be
    stable and only tied runs pay for the ids (which are unbounded Python
    ints, never a numpy array).
    """
    n = len(bidders)
    bid = np.fromiter(map(attrgetter("bid"), bidders), float, n)
    ctr = np.fromiter(map(attrgetter("ctr"), bidders), float, n)
    cont = np.fromiter(map(attrgetter("cont"), bidders), float, n)
    ecpm = ctr * bid
    adj = ecpm / (1.0 - cont)
    order = np.argsort(-adj)
    ranked_adj = adj[order]
    # Ties at t and t + 1 join ranks t .. t + 1; consecutive ties form one run.
    tied = np.flatnonzero(ranked_adj[1:] == ranked_adj[:-1])
    breaks = np.flatnonzero(np.diff(tied) != 1)
    starts = np.concatenate((tied[:1], tied[breaks + 1]))
    ends = np.concatenate((tied[breaks], tied[-1:])) + 2
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        order[lo:hi] = sorted(order[lo:hi].tolist(), key=lambda i: bidders[i].id)
    return order, ecpm[order], cont[order]


def _skyband(ecpms: Sequence[float], conts: Sequence[float], m: int) -> tuple[list[int], list[int]]:
    """Ranks of the ads that fewer than ``m`` others beat strictly on both
    ecpm and adjusted ecpm, and of those that fewer than ``m + 1`` beat:
    the m- and the (m+1)-skyband of canonically ordered lists or arrays.

    Only ads of strictly higher adjusted ecpm can beat an ad, and those all
    come before it, in earlier groups of equal adjusted ecpm.  A min-heap,
    padded with ``-inf``, keeps the ``m + 1`` largest ecpms seen so far.
    When a group starts, its least entry (``wide_floor``) is the (m+1)-th
    largest ecpm of the earlier groups and the lesser of ``heap[1:3]``
    (``floor``) the m-th, so an ad is beaten ``m + 1`` (or ``m``) times
    exactly when ``wide_floor`` (or ``floor``) is above its ecpm.  Other
    ads' ecpms are below every heap entry, so only (m+1)-band ads are pushed.

    Before that loop, a vectorised bound drops most of the losers.  At
    doubling checkpoints from ``4 * (m + 1)``, the (m+1)-th largest ecpm
    before the checkpoint's group bounds ``wide_floor`` from below for
    every ad up to the next checkpoint, and those below it are dropped.
    The loop would drop them from both bands, and they never enter the
    heap, so it keeps exactly the same ranks.

    When no candidate's ecpm falls below its predecessor's, each is a
    record, at least every earlier ecpm, which no floor exceeds, so every
    candidate is in both bands and the loop does not run.
    """
    ecpms = np.asarray(ecpms, dtype=float)
    adjs = ecpms / (1.0 - np.asarray(conts, dtype=float))
    n, wide = len(ecpms), m + 1
    candidate = np.empty(n, dtype=bool)
    candidate.fill(True)
    checkpoint = 4 * wide
    while checkpoint < n:
        # The checkpoint's group starts after the ads of strictly higher
        # adjusted ecpm; the reversed view is in ascending order.
        start = n - int(np.searchsorted(adjs[::-1], adjs[checkpoint], side="right"))
        if start >= wide:
            bound = np.partition(ecpms[:start], start - wide)[start - wide]
            block = slice(checkpoint, 2 * checkpoint)
            candidate[block] = ecpms[block] >= bound
        checkpoint *= 2
    ranks = candidate.nonzero()[0]
    cand_e = ecpms[ranks]
    if not (cand_e[1:] < cand_e[:-1]).any():
        ranks = ranks.tolist()
        return ranks, ranks
    heap = [-math.inf] * wide
    keep, keep_wide = [], []
    group_adj = None
    for t, e, adj in zip(ranks.tolist(), cand_e.tolist(), adjs[ranks].tolist()):
        if adj != group_adj:
            group_adj = adj
            wide_floor, floor = heap[0], min(heap[1:3])
        if wide_floor > e:
            continue
        keep_wide.append(t)
        if floor <= e:
            keep.append(t)
        heappushpop(heap, e)
    return keep, keep_wide


def canonical_order(bidders: Iterable[Bidder]) -> list[Bidder]:
    """Bidders sorted by decreasing adjusted ecpm, ties by ascending id.

    Any set of ads extracts its maximum expected revenue in this order, so
    every solver works on slates arranged this way.
    """
    bidders = tuple(bidders)
    order, _, _ = canonical_ranks(bidders)
    return [bidders[i] for i in order.tolist()]


def click_probabilities(order: Sequence[Bidder]) -> tuple[float, ...]:
    """Per-slot click probability: own ctr times the continuation above."""
    probs = []
    reach = 1.0
    for b in order:
        probs.append(reach * b.ctr)
        reach *= b.cont
    return tuple(probs)
