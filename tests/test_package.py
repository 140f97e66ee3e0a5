"""The package's public surface: ``markov_auction`` re-exports each
library module's ``__all__``, and keeps the submodules reachable as
attributes, which the benchmark's tracer patches."""

import types

import pytest

import markov_auction

PUBLIC_NAMES = [
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

MODULES = ("analysis", "hull_oracle", "model", "optimizer", "pricing")


def test_public_names_are_sorted_and_unchanged():
    assert markov_auction.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_defining_modules_object(name):
    (home,) = [getattr(markov_auction, m) for m in MODULES if name in getattr(markov_auction, m).__all__]
    assert getattr(markov_auction, name) is getattr(home, name)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from markov_auction import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES


@pytest.mark.parametrize("name", MODULES)
def test_submodules_are_package_attributes(name):
    module = getattr(markov_auction, name)
    assert isinstance(module, types.ModuleType)
    assert module.__name__ == f"markov_auction.{name}"
