"""Diagnostics: bid sweeps, monotonicity checks, ordering comparisons.

These tools exercise the structural guarantees of the cascade model on
concrete instances: raising your own bid never hurts your click
probability or slot, a naive ecpm ranking never beats the optimizer, and
swapping an assigned ad for an unassigned one that is at least as good on
both scores never loses value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Assignment, AuctionInstance, evaluate
from .optimizer import brute_force_optimal, effective_slots, solve

__all__ = [
    "UnknownBidder",
    "SweepPoint",
    "SweepReport",
    "MonotonicityVerdict",
    "ComparisonReport",
    "DominanceVerdict",
    "sweep_bid",
    "check_monotonicity",
    "compare_gsp",
    "check_dominance",
]


class UnknownBidder(ValueError):
    """Raised when a sweep names a bidder id absent from the instance."""


@dataclass(frozen=True)
class SweepPoint:
    """Outcome for the swept bidder at one bid level.

    ``position`` is the 1-based slot, or 0 when unassigned (click
    probability 0).  ``selected`` is the whole winning slate, top first.
    """

    bid: float
    position: int
    click_prob: float
    efficiency: float
    selected: tuple[int, ...]


@dataclass(frozen=True)
class SweepReport:
    bidder_id: int
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Pass/fail of a sweep's monotonicity, with the first offending index."""

    passed: bool
    first_violation: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """Optimizer value versus the ecpm-ordered (GSP-style) slate."""

    slots: int
    gsp_order: tuple[int, ...]
    gsp_efficiency: float
    optimal_order: tuple[int, ...]
    optimal_efficiency: float
    efficiency_ratio: float


@dataclass(frozen=True)
class DominanceVerdict:
    passed: bool
    detail: str | None = None


def sweep_bid(
    inst: AuctionInstance,
    bidder_id: int,
    bids: Sequence[float],
    solver: str = "dp",
) -> SweepReport:
    """Re-solve the instance at each bid level for one bidder.

    Only that bidder's bid changes between grid points; everything else is
    held fixed, so the report isolates how its own bid moves its outcome.

    Raises:
        UnknownBidder: if ``bidder_id`` is not in the instance.
    """
    if all(b.id != bidder_id for b in inst.bidders):
        raise UnknownBidder(f"no bidder with id {bidder_id}")
    points: list[SweepPoint] = []
    for bid in bids:
        slate = solve(inst.with_bid(bidder_id, float(bid)), method=solver)
        if bidder_id in slate.order:
            rank = slate.order.index(bidder_id)
            position, click = rank + 1, slate.click_probs[rank]
        else:
            position, click = 0, 0.0
        points.append(SweepPoint(float(bid), position, click, slate.efficiency, slate.order))
    return SweepReport(bidder_id, tuple(points))


def check_monotonicity(report: SweepReport, tol: float = 1e-12) -> MonotonicityVerdict:
    """Click probability must not fall, and the slot must not worsen, as
    the bid rises.  Unassigned counts as worse than any slot."""
    pts = report.points
    for t in range(1, len(pts)):
        prev, cur = pts[t - 1], pts[t]
        if cur.click_prob < prev.click_prob - tol:
            return MonotonicityVerdict(
                False,
                t,
                f"click_prob fell {prev.click_prob} -> {cur.click_prob} "
                f"as bid rose {prev.bid} -> {cur.bid}",
            )
        prev_rank = prev.position if prev.position else float("inf")
        cur_rank = cur.position if cur.position else float("inf")
        if cur_rank > prev_rank:
            return MonotonicityVerdict(
                False,
                t,
                f"position worsened {prev.position} -> {cur.position} "
                f"as bid rose {prev.bid} -> {cur.bid}",
            )
    return MonotonicityVerdict(True)


def compare_gsp(
    inst: AuctionInstance, slots: int | None = None, solver: str = "dp"
) -> ComparisonReport:
    """Value of the plain ecpm ranking against the true optimum.

    The GSP-style slate takes the top slots by ecpm (ties by id) in that
    order.  The ratio is 1.0 when both values are 0 (nothing to rank).
    """
    m = effective_slots(inst, slots)
    order, ecpms, _ = inst.ranking
    top = order[ecpms >= np.partition(ecpms, -m)[-m]].tolist() if m else []
    by_ecpm = sorted((inst.bidders[i] for i in top), key=lambda b: (-b.ecpm, b.id))[:m]
    gsp = Assignment.from_bidders(by_ecpm)
    best = solve(inst, slots, solver)
    ratio = gsp.efficiency / best.efficiency if best.efficiency > 0.0 else 1.0
    return ComparisonReport(
        slots=m,
        gsp_order=gsp.order,
        gsp_efficiency=gsp.efficiency,
        optimal_order=best.order,
        optimal_efficiency=best.efficiency,
        efficiency_ratio=ratio,
    )


def check_dominance(
    inst: AuctionInstance, slots: int | None = None, tol: float = 1e-12
) -> DominanceVerdict:
    """No excluded ad that dominates an assigned one improves the optimum.

    Substituting an unassigned ad with ecpm and adjusted ecpm at least as
    high as an assigned one (same slot, others fixed) can never lose
    value, so any drop beyond ``tol`` is a violation.  Uses the exhaustive
    optimum, so the instance must be small enough for
    ``brute_force_optimal``.
    """
    best = brute_force_optimal(inst, slots)
    members = [inst.bidder(bid_id) for bid_id in best.order]
    outside = [b for b in inst.bidders if b.id not in best.selected]
    for rank, inside in enumerate(members):
        for sub in outside:
            if sub.ecpm >= inside.ecpm and sub.adjusted_ecpm >= inside.adjusted_ecpm:
                swapped = members[:rank] + [sub] + members[rank + 1 :]
                eff, _ = evaluate(swapped)
                if eff < best.efficiency - tol:
                    return DominanceVerdict(
                        False,
                        f"substituting bidder {sub.id} for {inside.id} drops value "
                        f"{best.efficiency} -> {eff}",
                    )
    return DominanceVerdict(True)
