"""The ranking and k-skyband prune that every solver and VCG pricing run first.

Unit tests pin what the prune keeps and check the numpy ranking against
a keyed sort and a quadratic count; property tests check that
solving and pricing on the survivors gives exactly what solving on every
ad does.  The unpruned reference comes from replacing the prune with one
that keeps every ad, and the pricing reference rebuilds an instance per
winner; the pricing walk is checked against it at each edge of the
walk, on all-skyline inputs whose winners sit deep, and the cells
pricing skips may not change a price; dp's solve
and pricing are held to memory bounds.  An instance keeps its ranking
once computed; calls on a ranked instance must match the same calls each
made on a fresh equal one, and the GSP slate read off the ranking must
match a keyed sort of every bidder.  An instance also keeps its pruned
forms for the two slot counts used last; solving and pricing at every
slot count up and back down on one instance must match a fresh one.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import columns_instance, quantized_instance, random_bidders, tie_grid_instance, with_permuted_ids
from markov_auction import Assignment, AuctionInstance, Bidder, canonical_order, compare_gsp, solve, vcg_prices
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


def checked_skyband(rows, slots_list):
    """Scores of ads given as ``(bid, cont)`` with ctr 1, so the ecpm is the
    bid and the adjusted ecpm ``bid / (1 - cont)``, after checking
    ``_skyband`` against the quadratic count at each slot count; returns
    the canonical ecpms and what ``_skyband`` keeps at one slot."""
    ecpms, conts = scores([Bidder(i, bid, 1.0, cont) for i, (bid, cont) in enumerate(rows)])
    for m in slots_list:
        assert _skyband(ecpms, conts, m) == beaten_fewer_than(ecpms, conts, m)
    return ecpms, _skyband(ecpms, conts, 1)


class TestRecordsRule:
    """An ad whose ecpm is at least every earlier ad's is never beaten, so
    when every candidate is such a record the heap loop is skipped; a
    single non-record runs it over every candidate."""

    def test_record_prefix_then_dominated_ads(self):
        rows = [(1.0, 0.9), (2.0, 0.75), (3.0, 0.5), (0.5, 0.8), (0.4, 0.5), (0.3, 0.0)]
        assert checked_skyband(rows, range(1, 6)) == ([1.0, 2.0, 3.0, 0.5, 0.4, 0.3], [0, 1, 2])

    def test_records_after_the_first_non_record(self):
        rows = [(2.0, 0.8), (1.0, 0.875), (3.0, 0.5), (0.5, 0.9), (4.0, 0.0)]
        assert checked_skyband(rows, range(1, 5)) == ([2.0, 1.0, 3.0, 0.5, 4.0], [0, 2, 4])

    @pytest.mark.parametrize("lead", ([], [(0.5, 0.9375)]), ids=["group-at-rank-0", "after-a-record"])
    def test_tie_group_straddles_the_first_non_record(self, lead):
        # Adjusted ecpm 4 for the group of three: the ecpm-2 ad is a record,
        # the next two are not, yet nobody beats them (equal adjusted ecpm).
        rows = lead + [(2.0, 0.5), (1.0, 0.75), (0.5, 0.875), (0.25, 0.5)]
        ecpms, keep = checked_skyband(rows, range(1, len(rows)))
        assert ecpms[len(lead) :] == [2.0, 1.0, 0.5, 0.25]
        assert keep == list(range(len(rows) - 1))

    def test_ecpm_equal_to_the_running_maximum(self):
        rows = [(2.0, 0.5), (2.0, 0.25), (1.0, 0.0), (2.0, 0.0)]
        assert checked_skyband(rows, range(1, 4)) == ([2.0, 2.0, 2.0, 1.0], [0, 1, 2])

    def test_record_prefix_shorter_than_m(self):
        rows = [(3.0, 0.5), (1.0, 0.75), (2.0, 0.0), (0.5, 0.5), (0.25, 0.5)]
        assert checked_skyband(rows, range(1, 5)) == ([3.0, 1.0, 2.0, 0.5, 0.25], [0])

    @pytest.mark.parametrize("m", (1, 2))
    def test_single_candidate(self, m):
        assert checked_skyband([(2.0, 0.5)], (m,)) == ([2.0], [0])


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
    # A fresh instance, since ``inst`` keeps the forms it pruned.
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_skyband", keep_every_ad)
        unpruned = outcome(AuctionInstance(inst.bidders, inst.slots), method)
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
            assert_ranked_is_reference(with_permuted_ids(rng, tie_grid_instance(rng)), (1, 2, 3, 4))

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
    """VCG by definition: one public solve per winner on a rebuilt instance,
    clamped to VCG's range as ``vcg_prices`` clamps it."""
    slate = solve(inst, method=method)
    prices = []
    for rank, bidder_id in enumerate(slate.order):
        click = slate.click_probs[rank]
        bid = inst.bidder(bidder_id).bid
        value = click * bid
        rest = AuctionInstance(tuple(b for b in inst.bidders if b.id != bidder_id), inst.slots)
        payment = solve(rest, method=method).efficiency - (slate.efficiency - value)
        payment = min(max(payment, 0.0), value)
        prices.append((bidder_id, payment, min(payment / click, bid)))
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

    @pytest.mark.parametrize("method", ("dp", "fast"))
    def test_all_skyline(self, method):
        # ecpm = 1.01 - cont**2 falls as adjusted ecpm rises, so no ad beats
        # another, none is pruned and winners sit deep with many ranks
        # between them.  Too many ads for brute.
        rng = np.random.default_rng(62)
        for _ in range(12):
            n = int(rng.integers(40, 201))
            conts = rng.uniform(0.0, 0.99, n)
            ctrs = 1.0 - rng.random(n)
            inst = columns_instance((1.01 - conts * conts) / ctrs, ctrs, conts, int(rng.integers(3, 9)))
            assert ranked_prices(inst, method) == rebuilt_prices(inst, method)


def winner_ranks(inst):
    """The dp winners' ranks among the ads its re-solves run on (the
    (slots + 1)-skyband), and how many ads those are."""
    order, _, _ = _ranked(inst, min(inst.slots, inst.n) + 1)
    ids = [inst.bidders[i].id for i in order.tolist()]
    return [ids.index(bidder_id) for bidder_id in solve(inst).order], len(ids)


def full_row_prices(inst):
    """VCG from full value rows: for each winner, every cell of every row
    over the pricing survivors but the winner, with the cell rule of
    ``vcg_prices``."""
    slate = solve(inst)
    m = min(inst.slots, inst.n)
    order, ecpms, conts = _ranked(inst, m + 1)
    m = min(m, len(order) - 1)
    ids = [inst.bidders[i].id for i in order.tolist()]
    prices = []
    for bidder_id, click in zip(slate.order, slate.click_probs):
        p = ids.index(bidder_id)
        row = [0.0] * (m + 1)
        for rank in reversed(range(len(ids))):
            if rank != p:
                e, q = float(ecpms[rank]), float(conts[rank])
                row = [0.0] + [t if (t := a * q + e) > c else c for a, c in zip(row, row[1:])]
        bid = inst.bidder(bidder_id).bid
        value = click * bid
        payment = min(max(row[m] - (slate.efficiency - value), 0.0), value)
        prices.append((bidder_id, payment, min(payment / click, bid)))
    return slate.order, prices


def assert_table_prices(inst):
    got = ranked_prices(inst, "dp")
    assert got == rebuilt_prices(inst, "dp")
    assert got == full_row_prices(inst)


class TestTablePricing:
    """Pricing walks the ranks once, folding each into a copy of the row
    under each winner passed and computing at rank i only the cells with
    at least slots - i open slots; each edge of the walk against one public
    solve per winner on a rebuilt instance and against full value rows."""

    def test_winner_at_rank_zero(self):
        bidders = [Bidder(0, 4.0, 0.5, 0.5), Bidder(1, 2.0, 0.5, 0.5), Bidder(2, 1.0, 0.5, 0.0)]
        bidders += [Bidder(3, 0.4, 0.5, 0.0), Bidder(4, 0.2, 0.5, 0.0)]
        inst = AuctionInstance(tuple(bidders), 2)
        assert winner_ranks(inst) == ([0, 1], 3)
        assert_table_prices(inst)

    def test_winner_at_last_survivor_rank(self):
        # Three twins of adjusted ecpm 10 over a cont-0 ad of ecpm 3; the
        # last two ads are beaten four times and pruned.
        bidders = [Bidder(i, 2.0, 0.5, 0.9) for i in range(3)] + [Bidder(3, 6.0, 0.5, 0.0)]
        bidders += [Bidder(4, 0.2, 0.5, 0.5), Bidder(5, 0.2, 0.5, 0.5)]
        inst = AuctionInstance(tuple(bidders), 2)
        ranks, survivors = winner_ranks(inst)
        assert survivors == 4 and ranks[-1] == 3
        assert_table_prices(inst)

    def test_zero_continuation_winner_above_other_survivors(self):
        # The cont-0 winner ends the slate with a slot to spare; two
        # survivors rank below it and the last ad is pruned.
        bidders = [Bidder(0, 2.0, 0.5, 0.5), Bidder(1, 3.0, 0.5, 0.0), Bidder(2, 1.0, 0.5, 0.5)]
        bidders += [Bidder(3, 0.8, 0.5, 0.2), Bidder(4, 0.1, 0.5, 0.0)]
        inst = AuctionInstance(tuple(bidders), 3)
        assert solve(inst).order == (0, 1)
        assert winner_ranks(inst) == ([0, 1], 4)
        assert_table_prices(inst)

    def test_nothing_pruned(self):
        # n <= slots + 1, so every ad survives and each re-solve has n - 1 slots.
        rng = np.random.default_rng(56)
        for _ in range(300):
            bidders = tie_grid_instance(rng).bidders
            inst = AuctionInstance(bidders, max(1, len(bidders) + int(rng.integers(-1, 3))))
            assert winner_ranks(inst)[1] == inst.n
            assert_table_prices(inst)

    @pytest.mark.parametrize("bid", (0.0, 1.0, 2.0))
    @pytest.mark.parametrize("cont", (0.0, 0.5))
    @pytest.mark.parametrize("slots", (1, 3))
    def test_single_bidder(self, bid, cont, slots):
        assert_table_prices(AuctionInstance((Bidder(7, bid, 0.5, cont),), slots))

    @pytest.mark.parametrize("slots", (1, 3, 10))
    def test_quantized(self, slots):
        rng = np.random.default_rng(57 + slots)
        for _ in range(10):
            assert_table_prices(quantized_instance(rng, slots))


def skyline_3000(slots):
    """3000 ads of which none beats another on both scores (seed 63)."""
    conts = np.random.default_rng(63).uniform(0.0, 0.99, 3000)
    return columns_instance(1.01 - conts * conts, np.ones(3000), conts, slots)


class TestDpBlocks:
    """dp's memory: the solve keeps two value columns and one bool mask of
    where "take" wins, and pricing keeps one value row per winner, not one
    per rank."""

    def test_pricing_keeps_a_row_per_winner_not_per_rank(self):
        # All skyline, so the last of 3000 ranks is a winner.  Keeping every
        # value row down to it needs about 4 MB; the solve's columns and
        # mask and pricing's row under each of the 20 winners need about
        # 0.45 MB.
        inst = skyline_3000(20)
        expected = vcg_prices(inst)
        assert expected[0].order[-1] == int(inst.ranking[0][-1])
        assert ranked_prices(inst, "dp") == full_row_prices(inst)
        tracemalloc.start()
        try:
            got = vcg_prices(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 1_500_000

    @pytest.mark.parametrize("slots", (1, 20, 100))
    def test_solve_keeps_one_mask_and_three_columns(self, slots):
        # The same 3000 all-skyline ads, none pruned; the last rank has the
        # highest ecpm, so every slate ends there.  The body holds the
        # slots x 3001 bool mask and three float64 arrays of 3001 entries;
        # 16 KiB covers the Python objects around them.  One value row per
        # rank would take over 1.5 MB at 20 slots, and a float64 mask eight
        # times the bool one.
        inst = skyline_3000(slots)
        _, ecpms, conts = _ranked(inst, slots)
        s = len(ecpms)
        assert s == 3000
        tracemalloc.start()
        try:
            picks = optimizer._dp(ecpms, conts, slots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert picks[-1] == s - 1
        assert peak < slots * (s + 1) + 3 * 8 * (s + 1) + 16_384


class TestGspFromRanking:
    def test_tie_grid_permuted_ids(self):
        rng = np.random.default_rng(62)
        for _ in range(600):
            inst = with_permuted_ids(rng, tie_grid_instance(rng))
            for slots in range(1, 5):
                by_ecpm = sorted(inst.bidders, key=lambda b: (-b.ecpm, b.id))[:slots]
                report = compare_gsp(inst, slots)
                assert report.gsp_order == tuple(b.id for b in by_ecpm)
                assert report.gsp_efficiency == Assignment.from_bidders(by_ecpm).efficiency


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


def by_slot_count(instance, methods):
    """Every solve and ``vcg_prices`` call at slot counts 1..k, then k..1,
    each on ``instance()``."""
    k = instance().slots
    out = []
    for j in [*range(1, k + 1), *range(k, 0, -1)]:
        for method in methods:
            slate, schedule = vcg_prices(instance(), j, method)
            out += [solve(instance(), j, method), slate, schedule]
    return out


def assert_kept_forms_are_invisible(inst, methods):
    """Calls on one instance, which keeps a pruned form per slot count as it
    goes, give what each call gives on a fresh equal instance."""
    assert by_slot_count(lambda: inst, methods) == by_slot_count(
        lambda: AuctionInstance(inst.bidders, inst.slots), methods
    )


class TestKeptFormsAreInvisible:
    def test_tie_grid(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            inst = with_permuted_ids(rng, tie_grid_instance(rng))
            assert_kept_forms_are_invisible(AuctionInstance(inst.bidders, 4), ("brute", "dp", "fast"))

    @pytest.mark.parametrize("slots", (3, 10))
    def test_quantized(self, slots):
        rng = np.random.default_rng(65 + slots)
        for _ in range(4):
            assert_kept_forms_are_invisible(quantized_instance(rng, slots), ("dp", "fast"))
