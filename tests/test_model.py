"""Unit tests for the domain model: validation, slate arithmetic, identities."""

import copy
import dataclasses
import pickle
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import random_bidders, random_instance, ranked_form
from markov_auction import (
    Assignment,
    AuctionInstance,
    Bidder,
    DuplicateBidder,
    canonical_order,
    click_probabilities,
    compare_gsp,
    evaluate,
    solve,
    vcg_prices,
)
from markov_auction import model
from markov_auction.model import canonical_ranks


class TestBidderValidation:
    def test_accepts_boundary_values(self):
        b = Bidder(0, 0.0, 1.0, 0.0)
        assert b.ecpm == 0.0
        assert b.adjusted_ecpm == 0.0

    def test_rejects_zero_ctr(self):
        with pytest.raises(ValueError, match="ctr"):
            Bidder(0, 1.0, 0.0, 0.5)

    def test_rejects_ctr_above_one(self):
        with pytest.raises(ValueError, match="ctr"):
            Bidder(0, 1.0, 1.01, 0.5)

    def test_rejects_cont_one(self):
        # cont = 1 would make the adjusted ecpm divide by zero.
        with pytest.raises(ValueError, match="cont"):
            Bidder(0, 1.0, 0.5, 1.0)

    def test_rejects_negative_bid(self):
        with pytest.raises(ValueError, match="bid"):
            Bidder(0, -0.5, 0.5, 0.5)

    def test_rejects_non_finite_bid(self):
        with pytest.raises(ValueError, match="bid"):
            Bidder(0, float("inf"), 0.5, 0.5)

    @pytest.mark.parametrize("raw", ["2", True, None], ids=["string", "bool", "none"])
    @pytest.mark.parametrize("field", ["bid", "ctr", "cont"])
    def test_rejects_non_numbers(self, field, raw):
        fields = {"bid": 1.0, "ctr": 0.5, "cont": 0.5, field: raw}
        with pytest.raises(ValueError, match=f"'{field}' must be a number"):
            Bidder(0, **fields)

    def test_stores_python_floats(self):
        b = Bidder(0, 2, np.float64(0.5), np.float64(0.25))
        assert (b.bid, b.ctr, b.cont) == (2.0, 0.5, 0.25)
        assert all(type(v) is float for v in (b.bid, b.ctr, b.cont))

    def test_int_too_large_for_a_float_is_rejected(self):
        with pytest.raises(ValueError, match=r"'bid' must be a number in \[0.0, inf\)"):
            Bidder(0, 10**400, 0.5, 0.5)

    def test_rejects_overflowing_adjusted_ecpm(self):
        # ecpm 1.7e308 is finite; divided by 1 - cont = 0.1 it is not.
        with pytest.raises(ValueError, match="adjusted ecpm"):
            Bidder(0, 1.7e308, 1.0, 0.9)
        assert Bidder(0, 1.7e308, 1.0, 0.0).adjusted_ecpm == 1.7e308

    def test_rejects_bad_id(self):
        with pytest.raises(ValueError, match="id"):
            Bidder(-1, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="id"):
            Bidder("a", 1.0, 0.5, 0.5)

    def test_derived_scores(self, page):
        b1, b2, b3 = page.bidders
        assert b1.ecpm == 1.0 and b2.ecpm == 2.0 and b3.ecpm == pytest.approx(0.85)
        assert b1.adjusted_ecpm == pytest.approx(4.0)
        assert b2.adjusted_ecpm == pytest.approx(2.5)
        assert b3.adjusted_ecpm == pytest.approx(4.25)


class TestBidderContract:
    """``Bidder`` is a frozen, slotted dataclass: its public behaviour is a
    plain dataclass's, without a ``__dict__``."""

    def test_value_semantics(self):
        b = Bidder(1, 2.0, 0.5, 0.25)
        twin = Bidder(id=1, bid=2.0, ctr=0.5, cont=0.25)
        assert b == twin and hash(b) == hash(twin)
        assert b != Bidder(2, 2.0, 0.5, 0.25)
        assert repr(b) == "Bidder(id=1, bid=2.0, ctr=0.5, cont=0.25)"
        assert [f.name for f in dataclasses.fields(Bidder)] == ["id", "bid", "ctr", "cont"]

    def test_replace_validates_the_copy(self):
        b = Bidder(1, 2.0, 0.5, 0.25)
        assert dataclasses.replace(b, bid=3) == Bidder(1, 3.0, 0.5, 0.25)
        with pytest.raises(ValueError, match="'ctr'"):
            dataclasses.replace(b, ctr=0.0)

    def test_frozen(self):
        b = Bidder(1, 2.0, 0.5, 0.25)
        for field in ("id", "bid", "ctr", "cont"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(b, field, 0.5)
        assert b == Bidder(1, 2.0, 0.5, 0.25)

    def test_slotted(self):
        b = Bidder(1, 2.0, 0.5, 0.25)
        assert Bidder.__slots__ == ("id", "bid", "ctr", "cont")
        assert not hasattr(b, "__dict__")

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))], ids=["copy", "deepcopy", "pickle"]
    )
    def test_round_trips(self, clone):
        b = Bidder(2**70, 2.0, 0.5, 0.25)
        got = clone(b)
        assert got == b and hash(got) == hash(b) and repr(got) == repr(b)
        assert not hasattr(got, "__dict__")

    def test_int_subclass_id_is_kept(self):
        class Id(int):
            pass

        b = Bidder(Id(4), 2.0, 0.5, 0.25)
        assert type(b.id) is Id and b == Bidder(4, 2.0, 0.5, 0.25)

    def test_int_fields_are_stored_as_floats(self):
        b = Bidder(0, 2, 1, 0)
        assert (b.bid, b.ctr, b.cont) == (2.0, 1.0, 0.0)
        assert all(type(v) is float for v in (b.bid, b.ctr, b.cont))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((True, 1.0, 0.5, 0.5), "id must be a non-negative integer, got True"),
            ((-1, 1.0, 0.5, 0.5), "id must be a non-negative integer, got -1"),
            ((0, float("nan"), 0.5, 0.5), "bidder 0: field 'bid' must be a number in [0.0, inf), got nan"),
            ((0, 1.0, 0.0, 0.5), "bidder 0: field 'ctr' must be a number in (0.0, 1.0], got 0.0"),
            ((0, 1.7e308, 1.0, 0.9), "bidder 0: adjusted ecpm ctr * bid / (1 - cont) must be finite"),
        ],
        ids=["bool-id", "negative-id", "nan-bid", "zero-ctr", "infinite-adjusted-ecpm"],
    )
    def test_field_errors(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Bidder(*args)


class TestAuctionInstance:
    def test_rejects_duplicate_ids(self):
        b = Bidder(1, 1.0, 0.5, 0.5)
        with pytest.raises(DuplicateBidder):
            AuctionInstance((b, Bidder(1, 2.0, 0.5, 0.5)), 1)

    def test_duplicate_message_names_the_first_repeat_in_input_order(self):
        bidders = tuple(Bidder(i, 1.0, 0.5, 0.5) for i in (5, 3, 5, 3))
        with pytest.raises(DuplicateBidder, match="^bidder id 5 appears more than once$"):
            AuctionInstance(bidders, 1)

    @pytest.mark.parametrize(
        "ids, first",
        (((2, 7, 3, 7, 2), 7), ((2**70, 1, 2**70, 1), 2**70), ((0, 2**64, 5, 0), 0), ((1, 2, 3, 3), 3)),
    )
    def test_repeat_in_any_order_names_the_first(self, ids, first):
        bidders = tuple(Bidder(i, 1.0, 0.5, 0.5) for i in ids)
        with pytest.raises(DuplicateBidder, match=f"^bidder id {first} appears more than once$"):
            AuctionInstance(bidders, 1)

    @pytest.mark.parametrize("ids", ((3, 1, 2), (2**70, 0, 2**64), tuple(range(50, 0, -1))))
    def test_distinct_ids_in_any_order_are_accepted(self, ids):
        bidders = tuple(Bidder(i, 1.0, 0.5, 0.5) for i in ids)
        assert AuctionInstance(bidders, 1).n == len(ids)

    def test_construction_memory(self):
        # 20,000 slotted bidders and their instance peak near 1.7 MB; with a
        # __dict__ per bidder and a set of seen ids they peaked near 4.9 MB.
        rng = np.random.default_rng(12)
        n = 20_000
        ids = rng.permutation(n).tolist()
        bids, ctrs = rng.uniform(0.0, 5.0, n).tolist(), (1.0 - rng.random(n)).tolist()
        conts = rng.uniform(0.0, 0.99, n).tolist()
        tracemalloc.start()
        try:
            inst = AuctionInstance(tuple(map(Bidder, ids, bids, ctrs, conts)), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n == n
        assert peak < 2_400_000

    def test_rejects_bad_slots(self):
        b = Bidder(1, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="slots"):
            AuctionInstance((b,), 0)

    def test_with_bid_replaces_one_bidder(self, page):
        probe = page.with_bid(3, 9.0)
        assert probe.bidder(3).bid == 9.0
        assert probe.bidder(1).bid == page.bidder(1).bid
        with pytest.raises(KeyError):
            page.with_bid(99, 1.0)
        with pytest.raises(KeyError):
            page.bidder(99)


class TestRankingCache:
    """``AuctionInstance.ranking`` is filled on first use and kept, without
    becoming part of the instance's value."""

    def test_is_canonical_ranks_and_computed_once(self):
        inst = random_instance(np.random.default_rng(50), 40, 5)
        assert "ranking" not in inst.__dict__
        first = inst.ranking
        assert inst.ranking is first
        for got, want in zip(first, canonical_ranks(inst.bidders)):
            assert got.tolist() == want.tolist()

    def test_arrays_are_read_only(self, page):
        for a in page.ranking:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_takes_no_part_in_value(self):
        ranked = random_instance(np.random.default_rng(51), 30, 4)
        unranked = AuctionInstance(ranked.bidders, ranked.slots)
        ranked.ranking
        assert ranked == unranked
        assert hash(ranked) == hash(unranked)
        assert repr(ranked) == repr(unranked)
        assert "ranking" not in unranked.__dict__

    def test_copies_start_unranked(self, page):
        page.ranking
        assert "ranking" not in page.with_bid(3, 9.0).__dict__
        assert "ranking" not in dataclasses.replace(page).__dict__
        assert "ranking" not in dataclasses.replace(page, slots=1).__dict__


class TestPrunedForms:
    """``AuctionInstance._pruned`` keeps the ranking pruned to the k- and the
    (k+1)-skyband, from one prune, for the instance's own slot count
    ``k = min(slots, n)``, without becoming part of the instance's value."""

    @staticmethod
    def counted(monkeypatch):
        """Slot counts ``model._skyband`` is called with from now on."""
        calls = []
        skyband = model._skyband

        def counting(ecpms, conts, m):
            calls.append(m)
            return skyband(ecpms, conts, m)

        monkeypatch.setattr(model, "_skyband", counting)
        return calls

    def test_an_auction_prunes_once_per_slot_count(self, monkeypatch):
        calls = self.counted(monkeypatch)
        inst = random_instance(np.random.default_rng(52), 60, 5, min_n=40)
        k = inst.slots
        solve(inst)
        vcg_prices(inst)
        compare_gsp(inst)
        solve(inst, method="fast")
        vcg_prices(inst, solver="fast")
        assert calls == [k]
        fresh = AuctionInstance(inst.bidders, k)._pruned
        assert [[a.tolist() for a in form] for form in inst._pruned] == [[a.tolist() for a in form] for form in fresh]

    def test_ads_that_all_fit_in_the_slots_prune_once(self, monkeypatch, page):
        calls = self.counted(monkeypatch)
        k = page.n
        full = dataclasses.replace(page, slots=k)
        solve(full)
        vcg_prices(full)
        compare_gsp(full)
        assert calls == [k]
        assert [form is full.ranking for form in full._pruned] == [True, True]

    def test_arrays_are_read_only(self):
        inst = random_instance(np.random.default_rng(53), 60, 3, min_n=40)
        form = ranked_form(inst, 2)
        assert len(form[0]) < inst.n
        for a in form:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_nothing_pruned_keeps_the_ranking_itself(self):
        # No ad beats another on both scores, so every ad survives.
        bidders = tuple(Bidder(i, 1.01 - q * q, 1.0, q) for i, q in enumerate(np.linspace(0.0, 0.9, 20).tolist()))
        inst = AuctionInstance(bidders, 2)
        for got, kept in zip(inst._pruned[0], inst.ranking):
            assert got is kept
        assert inst._pruned[1] is inst.ranking
        full = dataclasses.replace(inst, slots=20)
        assert full._pruned[0] is full.ranking

    def test_takes_no_part_in_value(self):
        pruned = random_instance(np.random.default_rng(54), 30, 4, min_n=20)
        plain = AuctionInstance(pruned.bidders, pruned.slots)
        vcg_prices(pruned)
        assert pruned._pruned
        assert pruned == plain
        assert hash(pruned) == hash(plain)
        assert repr(pruned) == repr(plain)
        assert "_pruned" not in plain.__dict__

    def test_copies_start_with_no_forms(self, page):
        vcg_prices(page)
        assert page._pruned
        assert "_pruned" not in page.with_bid(3, 9.0).__dict__
        assert "_pruned" not in dataclasses.replace(page).__dict__
        assert "_pruned" not in dataclasses.replace(page, slots=1).__dict__

    def test_pickles_and_copies_carry_no_forms(self):
        inst = random_instance(np.random.default_rng(57), 60, 4, min_n=40)
        unsolved = pickle.dumps(inst)
        slate, schedule = vcg_prices(inst)
        assert inst._pruned
        back = pickle.loads(pickle.dumps(inst))
        assert back == inst
        assert "ranking" not in back.__dict__ and "_pruned" not in back.__dict__
        assert len(pickle.dumps(inst)) == len(unsolved)
        assert vcg_prices(back) == (slate, schedule)
        assert back._pruned
        for a in (*back.ranking, *(a for form in back._pruned for a in form)):
            assert not a.flags.writeable
        copied = copy.copy(inst)
        assert "ranking" not in copied.__dict__ and "_pruned" not in copied.__dict__
        kept = [a for form in inst._pruned for a in form]
        assert not any(a is b for form in copied._pruned for a in form for b in kept)

    def test_threads_sharing_an_instance(self):
        # More threads than cores, switching often, each reading the pruned
        # pair of the same fresh instances in turn, so threads race to each
        # one's first use: every pair read must be the one an instance of
        # its own prunes, and no thread may raise.
        inst = random_instance(np.random.default_rng(56), 80, 1, min_n=60)
        expected = {m: [[a.tolist() for a in f] for f in AuctionInstance(inst.bidders, m)._pruned] for m in (1, 2, 3)}
        shared = [AuctionInstance(inst.bidders, i % 3 + 1) for i in range(300)]
        wrong, errors = [], []

        def work():
            try:
                for one in shared:
                    if [[a.tolist() for a in form] for form in one._pruned] != expected[one.slots]:
                        wrong.append(one.slots)
            except Exception as exc:  # reported below, with the thread's failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []


class TestEvaluate:
    """Slate values for the worked page, frozen by hand from the model:
    value(x1..xm) = e_1 + q_1 (e_2 + q_2 (...))."""

    def test_ecpm_ranked_slate(self, page):
        b1, b2, _ = page.bidders
        eff, cont = evaluate([b2, b1])
        assert eff == pytest.approx(2.20, abs=1e-9)
        assert cont == pytest.approx(0.2 * 0.75)

    def test_adjusted_ecpm_ranked_slate(self, page):
        b1, _, b3 = page.bidders
        eff, cont = evaluate([b3, b1])
        assert eff == pytest.approx(1.65, abs=1e-9)
        assert cont == pytest.approx(0.6, abs=1e-9)

    def test_optimal_two_slot_slate(self, page):
        b1, b2, _ = page.bidders
        eff, _ = evaluate([b1, b2])
        assert eff == pytest.approx(2.50, abs=1e-9)

    def test_three_slot_slate(self, page):
        b1, b2, b3 = page.bidders
        eff, _ = evaluate([b3, b1, b2])
        assert eff == pytest.approx(2.85, abs=1e-9)

    def test_empty_slate(self):
        assert evaluate([]) == (0.0, 1.0)

    def test_singleton_is_ecpm(self):
        b = Bidder(0, 3.0, 0.25, 0.9)
        eff, cont = evaluate([b])
        assert eff == b.ecpm
        assert cont == b.cont

    def test_rejects_repeated_bidder(self, page):
        b1 = page.bidders[0]
        with pytest.raises(DuplicateBidder):
            evaluate([b1, b1])


class TestCanonicalOrder:
    def test_worked_page(self, page):
        assert [b.id for b in canonical_order(page.bidders)] == [3, 1, 2]

    def test_ties_break_by_ascending_id(self):
        twins = [Bidder(7, 1.0, 0.5, 0.5), Bidder(2, 1.0, 0.5, 0.5)]
        assert [b.id for b in canonical_order(twins)] == [2, 7]

    def test_input_order_is_irrelevant(self):
        rng = np.random.default_rng(11)
        bidders = list(random_bidders(rng, 30))
        expect = [b.id for b in canonical_order(bidders)]
        for _ in range(5):
            rng.shuffle(bidders)
            assert [b.id for b in canonical_order(bidders)] == expect


class TestClickProbabilities:
    def test_worked_page(self, page):
        b1, b2, _ = page.bidders
        assert click_probabilities([b1, b2]) == pytest.approx((0.5, 0.375))
        assert click_probabilities([b2, b1]) == pytest.approx((0.5, 0.1))

    def test_each_entry_discounts_by_continuation_above(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            order = list(random_bidders(rng, int(rng.integers(1, 9))))
            probs = click_probabilities(order)
            reach = 1.0
            for b, p in zip(order, probs):
                assert p == pytest.approx(reach * b.ctr, rel=1e-12)
                reach *= b.cont

    def test_click_value_sums_to_efficiency(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            order = list(random_bidders(rng, int(rng.integers(0, 9))))
            eff, _ = evaluate(order)
            total = sum(p * b.bid for p, b in zip(click_probabilities(order), order))
            assert total == pytest.approx(eff, abs=1e-9)


class TestSlateIdentities:
    """Structural facts the optimizers rely on, checked on random slates."""

    def test_concatenation_decomposes(self):
        # value(X + Y) = value(X) + cont(X) * value(Y)
        rng = np.random.default_rng(7)
        for _ in range(300):
            order = list(random_bidders(rng, int(rng.integers(0, 10))))
            cut = int(rng.integers(0, len(order) + 1))
            head, tail = order[:cut], order[cut:]
            eff, _ = evaluate(order)
            eff_h, cont_h = evaluate(head)
            eff_t, _ = evaluate(tail)
            assert eff == pytest.approx(eff_h + cont_h * eff_t, abs=1e-9)

    def test_insertion_gain(self):
        # value(X, y, Y) - value(X, Y) = cont(X) * (e_y - (1 - q_y) * value(Y))
        rng = np.random.default_rng(8)
        for _ in range(300):
            bidders = list(random_bidders(rng, int(rng.integers(1, 10))))
            y = bidders[-1]
            rest = bidders[:-1]
            cut = int(rng.integers(0, len(rest) + 1))
            head, tail = rest[:cut], rest[cut:]
            with_y, _ = evaluate(head + [y] + tail)
            without, _ = evaluate(head + tail)
            _, cont_h = evaluate(head)
            eff_t, _ = evaluate(tail)
            gain = cont_h * (y.ecpm - (1.0 - y.cont) * eff_t)
            assert with_y - without == pytest.approx(gain, abs=1e-9)

    def test_adjacent_swap_toward_higher_adjusted_ecpm_never_hurts(self):
        # Whenever a strictly lower-scored ad sits directly above a higher
        # one, swapping the pair cannot decrease the slate value.
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 500:
            order = list(random_bidders(rng, int(rng.integers(2, 10))))
            i = int(rng.integers(0, len(order) - 1))
            if order[i].adjusted_ecpm >= order[i + 1].adjusted_ecpm:
                order[i], order[i + 1] = order[i + 1], order[i]
                if order[i].adjusted_ecpm >= order[i + 1].adjusted_ecpm:
                    continue
            before, _ = evaluate(order)
            swapped = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
            after, _ = evaluate(swapped)
            assert after >= before - 1e-12
            checked += 1

    def test_canonical_order_maximizes_over_permutations(self):
        from itertools import permutations

        rng = np.random.default_rng(10)
        for _ in range(60):
            members = list(random_bidders(rng, int(rng.integers(1, 6))))
            best = max(evaluate(list(p))[0] for p in permutations(members))
            eff, _ = evaluate(canonical_order(members))
            assert eff == pytest.approx(best, abs=1e-12)


class TestAssignment:
    def test_from_bidders_reproduces_evaluate(self, page):
        b1, b2, _ = page.bidders
        a = Assignment.from_bidders([b1, b2])
        assert a.order == (1, 2)
        assert a.efficiency == evaluate([b1, b2])[0]
        assert a.click_probs == click_probabilities([b1, b2])
        assert a.selected == frozenset({1, 2})

    def test_empty(self):
        a = Assignment.from_bidders([])
        assert a.order == () and a.efficiency == 0.0 and a.click_probs == ()
