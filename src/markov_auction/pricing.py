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
from .optimizer import _BODIES, _dp_marks, _ranked, effective_slots, solve

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

    The slate is a plain ``solve``.  The re-solves run on the cached
    ranking pruned to the (slots + 1)-skyband: an ad ``slots + 1`` others
    beat on both ecpm and adjusted ecpm is still beaten ``slots`` times
    without any one winner.  Removing the winner at rank ``p`` leaves the
    take/skip value rows under ``p`` as they are, so ``dp`` folds them up
    once, a block at a time, keeps only the row under each winner and
    resumes from it over ranks ``p-1 .. 0``; its top value is bit-equal to
    the Horner sum of a full re-solve's picks.
    ``brute`` (the reference) and ``fast`` (which, on a tie only rounding
    makes, can pick another slate, whose sum may differ in the last ulp) run
    their solver body per winner on the survivors without it and sum its
    picks' values.

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
    if solver == "dp":
        e, q = ecpms.tolist(), conts.tolist()
        under, below, top = {}, None, len(e)
        for r in sorted(ranks, reverse=True):
            below = under[r] = _dp_marks(e[r + 1 : top], q[r + 1 : top], m, below)[-1]
            top = r + 1

        def others_alone(r: int) -> float:
            return _dp_marks(e[:r], q[:r], m, under[r])[-1][m]
    else:
        body, everyone = _BODIES[solver], np.arange(len(order))

        def others_alone(r: int) -> float:
            rest = everyone != r
            e, q = ecpms[rest], conts[rest]
            value = 0.0
            for t in sorted(body(e, q, m), reverse=True):
                value = float(e[t]) + float(q[t]) * value
            return value
    winners: list[WinnerPrice] = []
    for bidder_id, click, r in zip(slate.order, slate.click_probs, ranks):
        if click == 0.0:
            raise DegenerateClickProb(f"winner {bidder_id} has zero click probability")
        value = click * inst.bidders[order[r]].bid
        payment = others_alone(r) - (slate.efficiency - value)
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
