"""VCG payments for the winning slate of a cascade position auction.

Each winner pays the externality it imposes: the best value the others
could reach without it, minus the value the others actually get alongside
it.  Truthful bidding is then a dominant strategy, and no winner ever pays
more per click than its bid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Assignment, AuctionInstance
from .optimizer import _climb, _ranked, effective_slots, solve

__all__ = ["DegenerateClickProb", "WinnerPrice", "PriceSchedule", "vcg_prices"]


class DegenerateClickProb(ValueError):
    """Raised if a winner's click probability is 0 (per-click price undefined)."""


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
        for w in self.winners:
            if w.bidder_id == bidder_id:
                return w.expected_payment
        return 0.0


def vcg_prices(
    inst: AuctionInstance, slots: int | None = None, solver: str = "dp"
) -> tuple[Assignment, PriceSchedule]:
    """Winning slate plus each winner's externality payment.

    Per winner ``i`` with gross value ``v_i``:

        payment_i = value(best slate without i) - (value(winning slate) - v_i)

    ``solver`` only chooses who picks the slate (a plain ``solve``); the
    winners are priced one way, so a slate is charged the same whichever
    solver picked it.  The re-solves run on the instance's ranking pruned
    to the (slots + 1)-skyband, a form the instance keeps beside the
    slots-skyband its slate solve reads: an ad ``slots + 1`` others beat
    on both ecpm and adjusted ecpm is still beaten ``slots`` times without
    any one winner.  Removing the winner at rank ``p`` leaves the take/skip
    value rows under ``p`` as they are, so one row is folded up once, a
    copy of it kept under each winner, and each copy is resumed over ranks
    ``p-1 .. 0``.  Both climbs compute at rank ``i`` only the cells the
    top value reads, those with at least ``slots - i`` open slots.  The top
    value is the largest Horner sum over the slates without the winner,
    bit-equal to an exhaustive re-solve's.  Rounding can put the difference
    an ulp outside VCG's range, so the payment is clamped to ``[0, v_i]``
    and the per-click price to at most the bid.

    Raises:
        DegenerateClickProb: if a winner's click probability is 0, which
            cannot happen while ctr > 0 is enforced and the solvers stop
            at an ad with zero continuation (defensive).
        SizeLimitExceeded: for ``solver="brute"`` on an instance too large
            for exhaustive search, judged before the prune.
    """
    slate = solve(inst, slots, solver)
    if not slate.order:
        return slate, PriceSchedule(())
    m = effective_slots(inst, slots)
    order, ecpms, conts = _ranked(inst, m + 1)
    m = min(m, len(order) - 1)  # the slots of each re-solve
    rank_of = {inst.bidders[i].id: r for r, i in enumerate(order.tolist())}
    ranks = [rank_of[bidder_id] for bidder_id in slate.order]
    e, q = ecpms.tolist(), conts.tolist()
    under, row, top = {}, [0.0] * (m + 1), len(e)
    for r in sorted(ranks, reverse=True):
        row = under[r] = _climb(e, q, r + 1, top, m, row)
        top = r + 1
    winners: list[WinnerPrice] = []
    for bidder_id, click, r in zip(slate.order, slate.click_probs, ranks):
        if click == 0.0:
            raise DegenerateClickProb(f"winner {bidder_id} has zero click probability")
        bid = inst.bidders[order[r]].bid
        value = click * bid
        others_alone = _climb(e, q, 0, r, m, under[r])[m]
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
