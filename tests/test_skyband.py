"""The ranking and k-skyband prune that every solver and VCG pricing run first.

Unit tests pin what the prune keeps and check the numpy ranking against
a keyed sort and a quadratic count; property tests check that
solving and pricing on the survivors gives exactly what solving on every
ad does.  The unpruned reference comes from replacing the prune with one
that keeps every ad, and the pricing reference rebuilds an instance per
winner.  An instance keeps its ranking once computed; calls on a ranked
instance must match the same calls each made on a fresh equal one.
"""

import numpy as np
import pytest

from conftest import random_bidders
from markov_auction import AuctionInstance, Bidder, canonical_order, compare_gsp, solve, vcg_prices
from markov_auction import optimizer
from markov_auction.optimizer import _ranked, _skyband


def scores(bidders):
    ranked = canonical_order(bidders)
    return [b.ecpm for b in ranked], [b.cont for b in ranked]


def beaten_counts(ecpms, conts):
    """Quadratic reference: how many ads beat each rank strictly on both scores."""
    adj = [e / (1.0 - q) for e, q in zip(ecpms, conts)]
    return [
        sum(ecpms[u] > ecpms[t] and adj[u] > adj[t] for u in range(len(ecpms)))
        for t in range(len(ecpms))
    ]


def beaten_fewer_than(ecpms, conts, m, counts=None):
    """Ranks beaten strictly on both scores fewer than m times."""
    counts = beaten_counts(ecpms, conts) if counts is None else counts
    return [t for t, c in enumerate(counts) if c < m]


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


def assert_ranked_is_reference(inst, slots_list):
    """``_ranked`` is a keyed sort into canonical order plus the quadratic
    skyband count, with bit-identical scores."""
    canon = sorted(inst.bidders, key=lambda b: (-b.adjusted_ecpm, b.id))
    ecpms, conts = [b.ecpm for b in canon], [b.cont for b in canon]
    counts = beaten_counts(ecpms, conts)
    for m in slots_list:
        order, got_ecpms, got_conts = _ranked(inst, m)
        keep = beaten_fewer_than(ecpms, conts, m, counts) if inst.n > m else range(inst.n)
        assert [inst.bidders[i].id for i in order] == [canon[t].id for t in keep]
        assert got_ecpms.tolist() == [ecpms[t] for t in keep]
        assert got_conts.tolist() == [conts[t] for t in keep]


class TestRanked:
    def test_tie_grid(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            inst = tie_grid_instance(rng)
            # Ids out of input order, so the tie rule cannot lean on it.
            ids = rng.permutation(3 * inst.n)[: inst.n].tolist()
            inst = AuctionInstance(
                tuple(Bidder(i, b.bid, b.ctr, b.cont) for i, b in zip(ids, inst.bidders)), inst.slots
            )
            assert_ranked_is_reference(inst, (1, 2, 3, 4))

    def test_quantized(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            assert_ranked_is_reference(quantized_instance(rng, 1), (1, 3, 10))

    def test_continuous_past_the_checkpoints(self):
        # n far above 4 * m, so the vectorised bound runs at several
        # checkpoints and drops ads before the heap loop.
        rng = np.random.default_rng(46)
        inst = AuctionInstance(random_bidders(rng, 1500), 1)
        assert_ranked_is_reference(inst, (1, 10, 100))

    def test_huge_ids_tie_by_id(self):
        # Adjusted ecpm 1.0 for all three; the ids do not fit in an int64.
        bidders = [Bidder(2**70, 1.0, 1.0, 0.0), Bidder(2**63 + 1, 0.5, 1.0, 0.5), Bidder(2**63, 1.0, 0.5, 0.5)]
        expected = [2**63, 2**63 + 1, 2**70]
        assert [b.id for b in canonical_order(bidders)] == expected
        inst = AuctionInstance(tuple(bidders), 1)
        order, _, _ = _ranked(inst, 1)
        assert [inst.bidders[i].id for i in order] == expected

    def test_negative_zero_bid_ties_with_zero(self):
        # -0.0 is a valid bid; its adjusted ecpm equals 0.0, so the id decides.
        for bidders in (
            [Bidder(1, 0.0, 0.5, 0.5), Bidder(0, -0.0, 0.5, 0.5), Bidder(2, 1.0, 0.5, 0.5)],
            [Bidder(0, -0.0, 0.5, 0.5), Bidder(2, 1.0, 0.5, 0.5), Bidder(1, 0.0, 0.5, 0.5)],
        ):
            assert [b.id for b in canonical_order(bidders)] == [2, 0, 1]
            assert_ranked_is_reference(AuctionInstance(tuple(bidders), 1), (1, 2))


def rebuilt_prices(inst, method):
    """VCG by definition: one public solve per winner on a rebuilt instance."""
    slate = solve(inst, method=method)
    prices = []
    for rank, bidder_id in enumerate(slate.order):
        click = slate.click_probs[rank]
        value = click * inst.bidder(bidder_id).bid
        rest = AuctionInstance(tuple(b for b in inst.bidders if b.id != bidder_id), inst.slots)
        payment = solve(rest, method=method).efficiency - (slate.efficiency - value)
        prices.append((bidder_id, payment, payment / click))
    return slate.order, prices


def ranked_prices(inst, method):
    slate, schedule = vcg_prices(inst, solver=method)
    return slate.order, [(w.bidder_id, w.expected_payment, w.per_click_price) for w in schedule.winners]


class TestResolvesOnRankedSurvivors:
    @pytest.mark.parametrize("method", ("brute", "dp", "fast"))
    def test_tie_grid(self, method):
        rng = np.random.default_rng(47)
        for _ in range(400):
            inst = tie_grid_instance(rng)
            assert ranked_prices(inst, method) == rebuilt_prices(inst, method)

    @pytest.mark.parametrize("method", ("dp", "fast"))
    @pytest.mark.parametrize("slots", (1, 3, 10))
    def test_quantized(self, method, slots):
        rng = np.random.default_rng(48 + slots)
        for _ in range(8):
            inst = quantized_instance(rng, slots)
            assert ranked_prices(inst, method) == rebuilt_prices(inst, method)


def every_call(instance, methods):
    """Every solve at every slot count, then pricing and the GSP comparison,
    each on ``instance()``."""
    k = instance().slots
    out = [solve(instance(), j, method) for method in methods for j in range(1, k + 1)]
    out += [vcg_prices(instance(), solver=method) for method in methods]
    out.append(compare_gsp(instance()))
    return out


def assert_ranking_is_invisible(inst, methods):
    fresh = every_call(lambda: AuctionInstance(inst.bidders, inst.slots), methods)
    assert "ranking" not in inst.__dict__
    assert every_call(lambda: inst, methods) == fresh
    assert "ranking" in inst.__dict__
    assert every_call(lambda: inst, methods) == fresh


class TestRankingIsInvisible:
    def test_tie_grid(self):
        rng = np.random.default_rng(49)
        for _ in range(300):
            assert_ranking_is_invisible(tie_grid_instance(rng), ("brute", "dp", "fast"))

    @pytest.mark.parametrize("slots", (1, 3, 10))
    def test_quantized(self, slots):
        rng = np.random.default_rng(52 + slots)
        for _ in range(8):
            assert_ranking_is_invisible(quantized_instance(rng, slots), ("dp", "fast"))
