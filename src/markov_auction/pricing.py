"""VCG payments for the winning slate of a cascade position auction.

Each winner pays the externality it imposes: the best value the others
could reach without it, minus the value the others actually get alongside
it.  Truthful bidding is then a dominant strategy, and no winner ever pays
more per click than its bid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Assignment, AuctionInstance
from .optimizer import _BODIES, _ranked, effective_slots, solve

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

    One solver run for the slate plus one per winner — at most
    ``slots + 1`` invocations, all on the instance's one cached ranking.
    The slate is a plain ``solve`` of the instance.  For the re-solves the
    ranking is pruned to its (slots + 1)-skyband: an ad that ``slots + 1``
    others beat on both ecpm and adjusted ecpm is still beaten ``slots``
    times once any one winner is removed, so it wins no slot in any of
    them.  Each winner's re-solve runs the solver body directly on those
    ranked survivors minus that winner, which keep their canonical order,
    and reads the value of its picks with ``evaluate``'s Horner expression;
    it builds no instance, sorts nothing and builds no ``Assignment``.

    Raises:
        DegenerateClickProb: if a winner's click probability is 0, which
            cannot happen while ctr > 0 is enforced and the solvers stop
            at an ad with zero continuation (defensive).
        SizeLimitExceeded: for ``solver="brute"`` on an instance too large
            for exhaustive search, judged before the prune.
    """
    slate = solve(inst, slots, solver)
    m = effective_slots(inst, slots)
    order, ecpms, conts = _ranked(inst, m + 1)
    resolve_slots = min(m, len(order) - 1)
    rank_of = {inst.bidders[i].id: r for r, i in enumerate(order.tolist())}
    ranks = np.arange(len(order))
    body = _BODIES[solver]
    winners: list[WinnerPrice] = []
    for rank, bidder_id in enumerate(slate.order):
        click = slate.click_probs[rank]
        if click == 0.0:
            raise DegenerateClickProb(f"winner {bidder_id} has zero click probability")
        r = rank_of[bidder_id]
        value = click * inst.bidders[order[r]].bid
        others_alongside = slate.efficiency - value
        rest = ranks != r
        e, q = ecpms[rest], conts[rest]
        others_alone = 0.0
        for t in sorted(body(inst.bidders, order[rest], e, q, resolve_slots), reverse=True):
            others_alone = float(e[t]) + float(q[t]) * others_alone
        payment = others_alone - others_alongside
        winners.append(
            WinnerPrice(
                bidder_id=bidder_id,
                value=value,
                expected_payment=payment,
                per_click_price=payment / click,
                utility=value - payment,
            )
        )
    return slate, PriceSchedule(tuple(winners))
