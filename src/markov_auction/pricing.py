"""VCG payments for the winning slate of a cascade position auction.

Each winner pays the externality it imposes: the best value the others
could reach without it, minus the value the others actually get alongside
it.  Truthful bidding is then a dominant strategy, and no winner ever pays
more per click than its bid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Assignment, AuctionInstance
from .optimizer import effective_slots, solve

__all__ = ["DegenerateClickProb", "WinnerPrice", "PriceSchedule", "vcg_prices"]


class DegenerateClickProb(ValueError):
    """Raised if a winner's click probability is 0 (per-click price undefined).

    Every ctr is positive, but the reach above a winner is a float product
    of the conts above it and can underflow: two conts of 1e-300 above an
    ad give it reach 0.0, and ``dp`` and ``fast`` can still place an ad
    there.  ``bidder_id`` is the winner's id when ``vcg_prices`` raises it.
    """

    def __init__(self, message: str, bidder_id: int | None = None) -> None:
        super().__init__(message)
        self.bidder_id = bidder_id


@dataclass(frozen=True)
class WinnerPrice:
    """Payment record for one winner.

    ``value`` is the winner's expected gross value ``click_prob * bid``;
    ``utility = value - expected_payment``; ``per_click_price`` is what a
    single click costs, always at most the bid under truthful reporting.
    """

    bidder_id: int
    value: float
    expected_payment: float
    per_click_price: float
    utility: float


@dataclass(frozen=True)
class PriceSchedule:
    """Per-winner payments, in slate order.  Losers pay nothing."""

    winners: tuple[WinnerPrice, ...]

    @property
    def by_bidder(self) -> dict[int, WinnerPrice]:
        return {w.bidder_id: w for w in self.winners}

    def payment(self, bidder_id: int) -> float:
        winner = self.by_bidder.get(bidder_id)
        return 0.0 if winner is None else winner.expected_payment


def vcg_prices(inst: AuctionInstance, solver: str = "dp") -> tuple[Assignment, PriceSchedule]:
    """Winning slate plus each winner's externality payment.

    Per winner ``i`` with gross value ``v_i``:

        payment_i = value(best slate without i) - (value(winning slate) - v_i)

    ``solver`` only chooses who picks the slate (a plain ``solve``); the
    winners are priced one way, so a slate is charged the same whichever
    solver picked it.  With ``k = min(slots, n)``, the re-solves run on
    the instance's ranking pruned to the (k+1)-skyband, which the instance
    keeps beside the k-skyband the slate solve reads
    (``AuctionInstance._pruned``): an ad ``k + 1`` others beat on both
    ecpm and adjusted ecpm is still beaten ``k`` times without any one
    winner.  Removing the winner at rank ``p`` leaves the take/skip value
    rows under ``p`` as they are, so one walk up the ranks prices every
    winner.  At rank ``i`` it computes only the cells the top value reads,
    those with at least ``k - i`` open slots.  The top value is
    the largest Horner sum over the slates without the winner, bit-equal
    to an exhaustive re-solve's.  Rounding can put the difference an ulp
    outside VCG's range, so the payment is clamped to ``[0, v_i]`` and the
    per-click price to at most the bid.

    Raises:
        DegenerateClickProb: if a winner's click probability is 0, which
            happens only when the reach above it underflows.
        SizeLimitExceeded: for ``solver="brute"`` on an instance too large
            for exhaustive search, judged before the prune.
    """
    slate = solve(inst, method=solver)
    if not slate.order:
        return slate, PriceSchedule(())
    m = effective_slots(inst)
    order, ecpms, conts = inst._pruned[1]
    bidders, e, q = inst.bidders, ecpms.tolist(), conts.tolist()
    # rows[0] holds every ad folded so far.  At a winner's rank the walk
    # copies it before the fold, so each later row, one per winner passed,
    # deepest first, holds every ad folded so far but that winner.
    rows, won, bids = [[0.0] * (m + 1)], set(slate.order), []
    for i, at in zip(range(len(e) - 1, -1, -1), reversed(order.tolist())):
        held = None
        if bidders[at].id in won:
            bids.append(bidders[at].bid)
            held = rows[0].copy()
        e_i, q_i, cells = e[i], q[i], range(m, max(m - i, 1) - 1, -1)
        for row in rows:
            for r in cells:
                taken = row[r - 1] * q_i + e_i
                if taken > row[r]:
                    row[r] = taken
        if held is not None:
            rows.append(held)
    winners: list[WinnerPrice] = []
    for bidder_id, click, bid, row in zip(slate.order, slate.click_probs, bids[::-1], rows[:0:-1]):
        if click == 0.0:
            raise DegenerateClickProb(f"winner {bidder_id} has zero click probability", bidder_id)
        value = click * bid
        others_alone = row[m]
        payment = min(max(others_alone - (slate.efficiency - value), 0.0), value)
        winners.append(
            WinnerPrice(
                bidder_id=bidder_id,
                value=value,
                expected_payment=payment,
                per_click_price=min(payment / click, bid),
                utility=value - payment,
            )
        )
    return slate, PriceSchedule(tuple(winners))
