"""The k-skyband prune that every solver and VCG pricing run first.

Unit tests pin what the prune keeps; property tests check that solving
and pricing on the survivors gives exactly what solving on every ad does.
The unpruned reference comes from replacing the prune with one that keeps
every ad.
"""

import numpy as np
import pytest

from markov_auction import AuctionInstance, Bidder, canonical_order, solve, vcg_prices
from markov_auction import optimizer
from markov_auction.optimizer import _skyband


def scores(bidders):
    ranked = canonical_order(bidders)
    return [b.ecpm for b in ranked], [b.cont for b in ranked]


def beaten_fewer_than(ecpms, conts, m):
    """Quadratic reference: ranks beaten strictly on both scores fewer than m times."""
    adj = [e / (1.0 - q) for e, q in zip(ecpms, conts)]
    return [
        t
        for t in range(len(ecpms))
        if sum(ecpms[u] > ecpms[t] and adj[u] > adj[t] for u in range(len(ecpms))) < m
    ]


def tie_grid_instance(rng):
    n = int(rng.integers(1, 9))
    bids = rng.choice([0.0, 1.0, 2.0, 4.0], n)
    ctrs = rng.choice([0.25, 0.5, 1.0], n)
    conts = rng.choice([0.0, 0.5, 0.75], n)
    bidders = tuple(Bidder(i, float(bids[i]), float(ctrs[i]), float(conts[i])) for i in range(n))
    return AuctionInstance(bidders, int(rng.integers(1, 5)))


def quantized_instance(rng, slots):
    """Shaped like production estimates: bids on a 0.05 grid, ctr and cont
    on a 0.01 grid, cont 0 included."""
    n = int(rng.integers(50, 501))
    bids = rng.integers(1, 101, n) * 0.05
    ctrs = rng.integers(1, 101, n) / 100.0
    conts = rng.integers(0, 100, n) / 100.0
    bidders = tuple(Bidder(i, float(bids[i]), float(ctrs[i]), float(conts[i])) for i in range(n))
    return AuctionInstance(bidders, slots)


class TestSkyband:
    def test_matches_quadratic_count(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            ecpms, conts = scores(tie_grid_instance(rng).bidders)
            for m in range(1, 5):
                assert _skyband(ecpms, conts, m) == beaten_fewer_than(ecpms, conts, m)

    def test_first_m_canonical_ads_survive(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            ecpms, conts = scores(quantized_instance(rng, 1).bidders)
            for m in (1, 2, 3, 10):
                assert _skyband(ecpms, conts, m)[:m] == list(range(m))

    def test_all_skyline_keeps_every_ad(self):
        # ecpm falls and adjusted ecpm rises with cont: no ad beats another.
        conts = np.linspace(0.0, 0.98, 200)
        bidders = [Bidder(i, 1.01 - q * q, 1.0, q) for i, q in enumerate(conts.tolist())]
        ecpms, conts = scores(bidders)
        assert _skyband(ecpms, conts, 1) == list(range(200))

    def test_equal_adjusted_ecpm_never_knock_each_other_out(self):
        # Adjusted ecpm 1.0 for all four, ecpm falling down the canonical
        # order: each ad has a higher ecpm than every ad after it.
        bidders = [Bidder(i, 1.0 - q, 1.0, q) for i, q in enumerate((0.0, 0.25, 0.5, 0.75))]
        ecpms, conts = scores(bidders)
        assert _skyband(ecpms, conts, 1) == [0, 1, 2, 3]

    def test_exact_twins_both_survive(self):
        bidders = [Bidder(0, 4.0, 0.5, 0.5), Bidder(1, 4.0, 0.5, 0.5), Bidder(2, 1.0, 0.5, 0.25)]
        ecpms, conts = scores(bidders)
        # The last ad is beaten by both twins.
        assert _skyband(ecpms, conts, 1) == [0, 1]
        assert _skyband(ecpms, conts, 2) == [0, 1]
        assert _skyband(ecpms, conts, 3) == [0, 1, 2]


def outcome(inst, method):
    """What the prune must not change: the priced slate, its prices and a plain solve."""
    slate, schedule = vcg_prices(inst, solver=method)
    prices = [(w.bidder_id, w.expected_payment, w.per_click_price) for w in schedule.winners]
    solved = solve(inst, method=method)
    return slate.order, slate.efficiency, prices, solved.order, solved.efficiency


def keep_every_ad(ecpms, conts, m):
    return list(range(len(ecpms)))


def assert_prune_is_invisible(monkeypatch, inst, method):
    pruned = outcome(inst, method)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_skyband", keep_every_ad)
        unpruned = outcome(inst, method)
    assert pruned == unpruned


class TestPruneIsInvisible:
    @pytest.mark.parametrize("method", ("brute", "dp", "fast"))
    def test_tie_grid(self, monkeypatch, method):
        rng = np.random.default_rng(42)
        for _ in range(600):
            assert_prune_is_invisible(monkeypatch, tie_grid_instance(rng), method)

    @pytest.mark.parametrize("method", ("dp", "fast"))
    @pytest.mark.parametrize("slots", (1, 2, 3, 10))
    def test_quantized(self, monkeypatch, method, slots):
        rng = np.random.default_rng(43 + slots)
        for _ in range(25):
            assert_prune_is_invisible(monkeypatch, quantized_instance(rng, slots), method)
