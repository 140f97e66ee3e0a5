"""Optimal ad slates and VCG prices under a Markovian cascade user model.

The user scans a slate top-down, clicking and continuing with per-ad
probabilities.  This package ranks ads by adjusted ecpm, solves for the
revenue-optimal slate (exhaustively, by dynamic programming, or by
growing nested slates one best insertion at a time), prices the winners
with VCG, and ships diagnostics plus a small CLI.
"""

from .analysis import (
    ComparisonReport,
    DominanceVerdict,
    MonotonicityVerdict,
    SweepPoint,
    SweepReport,
    UnknownBidder,
    check_dominance,
    check_monotonicity,
    compare_gsp,
    sweep_bid,
)
from .hull_oracle import EmptyInput, EmptyRange, HullIndex, LinearQuery, build
from .model import (
    Assignment,
    AuctionInstance,
    Bidder,
    DuplicateBidder,
    canonical_order,
    click_probabilities,
    evaluate,
)
from .optimizer import (
    NoCandidate,
    OptChain,
    SizeLimitExceeded,
    brute_force_optimal,
    dp_optimal,
    effective_slots,
    fast_optimal,
    marginal_best_insert,
    solve,
)
from .pricing import DegenerateClickProb, PriceSchedule, WinnerPrice, vcg_prices

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AuctionInstance",
    "Bidder",
    "ComparisonReport",
    "DegenerateClickProb",
    "DominanceVerdict",
    "DuplicateBidder",
    "EmptyInput",
    "EmptyRange",
    "HullIndex",
    "LinearQuery",
    "MonotonicityVerdict",
    "NoCandidate",
    "OptChain",
    "PriceSchedule",
    "SizeLimitExceeded",
    "SweepPoint",
    "SweepReport",
    "UnknownBidder",
    "WinnerPrice",
    "brute_force_optimal",
    "build",
    "canonical_order",
    "check_dominance",
    "check_monotonicity",
    "click_probabilities",
    "compare_gsp",
    "dp_optimal",
    "effective_slots",
    "evaluate",
    "fast_optimal",
    "marginal_best_insert",
    "solve",
    "sweep_bid",
    "vcg_prices",
]
