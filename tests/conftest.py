"""Shared fixtures: a worked three-bidder page, a random-instance factory
and the tie-heavy instance shapes the solver references run on."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from markov_auction import AuctionInstance, Bidder


def random_bidders(rng: np.random.Generator, n: int, cont_high: float = 0.95) -> tuple[Bidder, ...]:
    """Generic-position bidders: continuous draws, so exact ties never occur."""
    bids = np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))
    ctrs = 1.0 - rng.random(n)
    conts = rng.uniform(0.0, cont_high, n)
    return tuple(Bidder(i, float(bids[i]), float(ctrs[i]), float(conts[i])) for i in range(n))


def random_instance(
    rng: np.random.Generator,
    max_n: int = 12,
    max_slots: int = 5,
    min_n: int = 1,
    cont_high: float = 0.95,
) -> AuctionInstance:
    n = int(rng.integers(min_n, max_n + 1))
    slots = int(rng.integers(1, max_slots + 1))
    return AuctionInstance(random_bidders(rng, n, cont_high), slots)


def tie_grid_instance(rng):
    n = int(rng.integers(1, 9))
    bids = rng.choice([0.0, 1.0, 2.0, 4.0], n)
    ctrs = rng.choice([0.25, 0.5, 1.0], n)
    conts = rng.choice([0.0, 0.5, 0.75], n)
    bidders = tuple(Bidder(i, float(bids[i]), float(ctrs[i]), float(conts[i])) for i in range(n))
    return AuctionInstance(bidders, int(rng.integers(1, 5)))


def with_permuted_ids(rng, inst):
    """The instance with ids out of input order, so no tie rule can lean on it."""
    ids = rng.permutation(3 * inst.n)[: inst.n].tolist()
    return AuctionInstance(tuple(Bidder(i, b.bid, b.ctr, b.cont) for i, b in zip(ids, inst.bidders)), inst.slots)


def columns_instance(bids, ctrs, conts, slots):
    """An instance from bid, ctr and cont columns, ids in column order."""
    return AuctionInstance(
        tuple(Bidder(i, float(b), float(c), float(q)) for i, (b, c, q) in enumerate(zip(bids, ctrs, conts))), slots
    )


def quantized_instance(rng, slots):
    """Shaped like production estimates: bids on a 0.05 grid, ctr and cont
    on a 0.01 grid, cont 0 included."""
    n = int(rng.integers(50, 501))
    bids = rng.integers(1, 101, n) * 0.05
    ctrs = rng.integers(1, 101, n) / 100.0
    conts = rng.integers(0, 100, n) / 100.0
    bidders = tuple(Bidder(i, float(bids[i]), float(ctrs[i]), float(conts[i])) for i in range(n))
    return AuctionInstance(bidders, slots)


def ranked_form(inst: AuctionInstance, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranked form a solve reads at ``m`` slots: the instance's own
    k-form when ``m`` is its ``k = min(slots, n)``, else that of a copy
    with ``m`` slots."""
    if m != min(inst.slots, inst.n):
        inst = dataclasses.replace(inst, slots=m)
    return inst._pruned[0]


@pytest.fixture
def page() -> AuctionInstance:
    """Two-slot page with three ads whose ecpm and adjusted-ecpm rankings
    disagree: ecpms (1, 2, 0.85) but adjusted ecpms (4, 2.5, 4.25)."""
    return AuctionInstance(
        (
            Bidder(1, 2.0, 0.5, 0.75),
            Bidder(2, 4.0, 0.5, 0.2),
            Bidder(3, 1.7, 0.5, 0.8),
        ),
        2,
    )


@pytest.fixture
def make_random_instance():
    return random_instance
