"""Unit tests for the three solvers and the incremental-insertion step."""

import dataclasses

import numpy as np
import pytest

from conftest import quantized_instance, random_bidders, random_instance, tie_grid_instance, with_permuted_ids
from markov_auction import (
    Assignment,
    AuctionInstance,
    Bidder,
    NoCandidate,
    SizeLimitExceeded,
    brute_force_optimal,
    build,
    canonical_order,
    check_dominance,
    dp_optimal,
    effective_slots,
    evaluate,
    fast_optimal,
    marginal_best_insert,
    solve,
    vcg_prices,
)
from markov_auction import optimizer

ALL_SOLVERS = ("brute", "dp", "fast")


class TestWorkedPage:
    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_two_slots(self, page, method):
        slate = solve(page, method=method)
        assert slate.order == (1, 2)
        assert slate.efficiency == pytest.approx(2.50, abs=1e-9)

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_three_slots(self, page, method):
        slate = solve(dataclasses.replace(page, slots=3), method=method)
        assert slate.order == (3, 1, 2)
        assert slate.efficiency == pytest.approx(2.85, abs=1e-9)

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_one_slot_takes_best_ecpm(self, page, method):
        slate = solve(dataclasses.replace(page, slots=1), method=method)
        assert slate.order == (2,)
        assert slate.efficiency == pytest.approx(2.0)

    def test_chain_is_nested(self, page):
        chain = fast_optimal(dataclasses.replace(page, slots=3))
        assert [s.order for s in chain.solutions] == [(2,), (1, 2), (3, 1, 2)]
        assert chain.final.order == (3, 1, 2)


class TestGuards:
    def test_brute_force_rejects_many_bidders(self):
        rng = np.random.default_rng(0)
        inst = AuctionInstance(random_bidders(rng, 23), 2)
        with pytest.raises(SizeLimitExceeded):
            brute_force_optimal(inst)

    def test_brute_force_rejects_many_slots(self):
        rng = np.random.default_rng(1)
        inst = AuctionInstance(random_bidders(rng, 5), 21)
        with pytest.raises(SizeLimitExceeded):
            brute_force_optimal(inst)

    def test_dp_and_fast_have_no_size_guard(self):
        rng = np.random.default_rng(2)
        inst = AuctionInstance(random_bidders(rng, 40), 25)
        assert dp_optimal(inst).efficiency == pytest.approx(
            fast_optimal(inst).final.efficiency, abs=1e-9
        )

    def test_effective_slots(self, page):
        assert effective_slots(page) == 2
        assert effective_slots(dataclasses.replace(page, slots=7)) == 3
        with pytest.raises(ValueError, match="slots"):
            dataclasses.replace(page, slots=0)

    @pytest.mark.parametrize("slots", ["3", [1]], ids=["string", "list"])
    @pytest.mark.parametrize(
        "call",
        [
            *(lambda inst, method=method: solve(inst, method=method) for method in ALL_SOLVERS),
            lambda inst: vcg_prices(inst, solver="brute"),
            check_dominance,
        ],
        ids=[*ALL_SOLVERS, "vcg_prices-brute", "check_dominance"],
    )
    def test_non_integer_slots_are_rejected_before_the_brute_cap(self, page, call, slots):
        # Exhaustive search's cap compares the slot count with an int; the
        # instance validates the count when it is made, so no call, the
        # cap included, sees a bad one.
        with pytest.raises(ValueError, match=r"slots must be an integer >= 1, got "):
            call(dataclasses.replace(page, slots=slots))

    def test_unknown_solver_name(self, page):
        with pytest.raises(ValueError, match="unknown solver"):
            solve(page, method="quantum")


class TestDegenerateInstances:
    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_more_slots_than_bidders(self, page, method):
        slate = solve(dataclasses.replace(page, slots=20), method=method)
        assert slate.order == (3, 1, 2)

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_zero_value_ads_are_not_padded(self, method):
        # Two ads pay nothing; every solver leaves them out rather than
        # filling slots with value-free padding.
        inst = AuctionInstance(
            (
                Bidder(0, 1.0, 0.5, 0.5),
                Bidder(1, 0.0, 0.5, 0.5),
                Bidder(2, 2.0, 0.5, 0.5),
                Bidder(3, 0.0, 0.9, 0.1),
            ),
            4,
        )
        slate = solve(inst, method=method)
        assert set(slate.order) == {0, 2}

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_zero_value_ads_are_not_padded_after_prefix_rounding(self, method):
        # Below (3, 0, 7) fast's prefix value for the bottom gap sums to
        # 7.077500000000001, one ulp above the slate value 7.0775 summed
        # bottom up, so a zero-bid ad placed there scored above the slate.
        # Its gain over the gap's current term, taken without the prefix,
        # is 0.
        rows = (
            (0, 2, 0.97, 0.81), (1, 0, 0.25, 0.2), (2, 0, 0.97, 0.5),
            (3, 4.85, 1, 0.81), (4, 0, 0.25, 0.81), (5, 0, 0.25, 0.2),
            (6, 0, 0.25, 0.81), (7, 4, 0.25, 0.75), (8, 0, 0.5, 0.81),
        )
        inst = AuctionInstance(tuple(Bidder(*row) for row in rows), 5)
        assert solve(inst, method=method).order == (3, 0, 7)

    def test_all_zero_bids_yield_empty_slate(self):
        inst = AuctionInstance(tuple(Bidder(i, 0.0, 0.5, 0.5) for i in range(4)), 3)
        for method in ALL_SOLVERS:
            assert solve(inst, method=method).order == ()
        assert fast_optimal(inst).solutions == ()

    def test_dp_skips_on_exact_ties(self):
        # Interchangeable twins: taking either gives the same value.  The
        # take/skip recursion resolves exact ties toward "skip", so the
        # later twin ends up selected, and the other solvers follow the
        # same rule.
        twins = AuctionInstance(
            (Bidder(1, 1.0, 0.5, 0.5), Bidder(2, 1.0, 0.5, 0.5)), 1
        )
        assert brute_force_optimal(twins).order == dp_optimal(twins).order == (2,)
        assert fast_optimal(twins).final.order == (2,)
        assert dp_optimal(twins).efficiency == brute_force_optimal(twins).efficiency

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    @pytest.mark.parametrize(
        "rows, slots, expected",
        [
            # Nobody scans past bidder 0, so bidder 1 could never be
            # clicked below it.
            (((0, 4.0, 1.0, 0.0), (1, 2.0, 0.5, 0.5)), 3, (0,)),
            # Same below bidder 2; here fast's gap tables used to round the
            # unreachable insertion of bidder 4 one ulp above the slate value.
            (
                ((0, 0.5, 0.1, 0.6), (1, 0.5, 0.1, 0.9), (2, 0.1, 0.4, 0.0),
                 (3, 0.2, 0.3, 0.8), (4, 0.2, 0.1, 0.0)),
                5,
                (1, 3, 0, 2),
            ),
        ],
        ids=["dp-repro", "fast-rounding"],
    )
    def test_nothing_after_zero_continuation(self, method, rows, slots, expected):
        inst = AuctionInstance(tuple(Bidder(*row) for row in rows), slots)
        slate = solve(inst, method=method)
        assert slate.order == expected
        assert all(p > 0.0 for p in slate.click_probs)
        assert slate.efficiency == evaluate([inst.bidder(i) for i in expected])[0]

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_no_bidders(self, method):
        inst = AuctionInstance((), 3)
        slate = solve(inst, method=method)
        assert slate.order == () and slate.efficiency == 0.0


class TestBruteForceTieBreaking:
    def test_leaves_out_the_earlier_rank(self):
        # Equal-value optima: {3} and {5} both give 1.0.  Canonical order
        # ranks the twins by id, so 3 is rank 0 and 5 rank 1, and the tie
        # rule leaves rank 0 out.  Ids play no other part.
        inst = AuctionInstance(
            (Bidder(5, 2.0, 0.5, 0.5), Bidder(3, 2.0, 0.5, 0.5)), 1
        )
        assert brute_force_optimal(inst).order == (5,)


class TestSolverAgreement:
    def test_efficiencies_and_sets_agree(self, make_random_instance):
        rng = np.random.default_rng(100)
        for _ in range(300):
            inst = make_random_instance(rng)
            a = brute_force_optimal(inst)
            b = dp_optimal(inst)
            c = fast_optimal(inst).final
            assert b.efficiency == pytest.approx(a.efficiency, abs=1e-9)
            assert c.efficiency == pytest.approx(a.efficiency, abs=1e-9)
            assert a.selected == b.selected == c.selected
            assert a.order == b.order == c.order

    def test_dp_matches_brute_force_per_slot_count(self, make_random_instance):
        rng = np.random.default_rng(101)
        for _ in range(100):
            inst = make_random_instance(rng, max_n=9, max_slots=1)
            for j in range(1, inst.n + 2):
                at_j = dataclasses.replace(inst, slots=j)
                assert dp_optimal(at_j).efficiency == pytest.approx(brute_force_optimal(at_j).efficiency, abs=1e-9)


class TestChain:
    def test_nesting_and_per_length_optimality(self, make_random_instance):
        rng = np.random.default_rng(102)
        for _ in range(150):
            inst = make_random_instance(rng, max_n=30, max_slots=8)
            chain = fast_optimal(inst)
            assert solve(inst, method="fast") == chain.final
            assert len(chain.solutions) == min(inst.n, inst.slots)
            previous = frozenset()
            for i, slate in enumerate(chain.solutions, start=1):
                assert len(slate.order) == i
                assert previous < slate.selected
                previous = slate.selected
                assert slate.efficiency == pytest.approx(
                    dp_optimal(dataclasses.replace(inst, slots=i)).efficiency, abs=1e-9
                )

    def test_each_step_matches_the_hull_insertion(self, make_random_instance):
        # The chain grown by repeated hull-index insertions, on continuous
        # inputs: exact ties between distinct ads cannot occur there, and
        # on ties the hull may pick another maximiser than the scan.
        rng = np.random.default_rng(105)
        for _ in range(40):
            inst = make_random_instance(rng, max_n=300, max_slots=20)
            index = build([(b.cont, b.ecpm) for b in canonical_order(inst.bidders)])
            chain = fast_optimal(inst).solutions
            assert len(chain) == min(inst.n, inst.slots)
            members = []
            for step in chain:
                slate = Assignment.from_bidders(canonical_order(members))
                bidder_id, eff = marginal_best_insert(inst, slate, index)
                members.append(inst.bidder(bidder_id))
                assert step.order == tuple(b.id for b in canonical_order(members))
                assert step.efficiency == eff

    def test_all_skyline_matches_dp(self):
        # ecpm falls and adjusted ecpm rises with cont, so no ad beats
        # another on both scores and the prune keeps all 2000.
        rng = np.random.default_rng(106)
        conts = rng.uniform(0.0, 0.99, 2000)
        inst = AuctionInstance(
            tuple(Bidder(i, 1.01 - float(c) ** 2, 1.0, float(c)) for i, c in enumerate(conts)), 30
        )
        fast, dp = fast_optimal(inst).final, dp_optimal(inst)
        assert solve(inst, method="fast") == fast
        assert fast.order == dp.order
        assert fast.efficiency == dp.efficiency

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # Below bidder 0, bidders 2 and 3 score the same float, though
            # their ecpms (3.3949999999999996 and 3.395) differ; the step
            # keeps the higher rank, 3.  So does dp, and the hull index,
            # which collapses points of equal cont to the higher ecpm.
            (
                ((0, 100.0, 1.0, 0.610569418009508), (1, 0.2, 1.0, 0.99),
                 (2, 4.85, 0.7, 0.81), (3, 3.5, 0.97, 0.81)),
                (0, 3),
            ),
            # Bidder 3's gap score is one ulp above bidder 2's, and adding
            # bidder 0's value rounds both sums to 6.24995; the step keeps
            # 3, the better gap score, as the hull index did.
            (
                ((0, 3.5, 1.0, 0.81), (1, 0.0, 0.25, 0.81), (2, 4.85, 0.7, 0.81),
                 (3, 3.5, 0.97, 0.75), (4, 0.0, 0.5, 0.81), (5, 3.5, 0.5, 0.81)),
                (0, 3),
            ),
        ],
        ids=["equal-cont-twins", "prefix-rounding"],
    )
    def test_near_twins(self, rows, expected):
        inst = AuctionInstance(tuple(Bidder(*row) for row in rows), 2)
        slate = fast_optimal(inst).final
        assert solve(inst, method="fast") == slate
        assert slate.order == expected
        assert slate.efficiency == dp_optimal(inst).efficiency

    def test_values_never_decrease_along_the_chain(self, make_random_instance):
        rng = np.random.default_rng(103)
        for _ in range(100):
            chain = fast_optimal(make_random_instance(rng, max_n=25, max_slots=6)).solutions
            effs = [s.efficiency for s in chain]
            assert all(b >= a for a, b in zip(effs, effs[1:]))


class TestMarginalBestInsert:
    def test_worked_page(self, page):
        wide = AuctionInstance(page.bidders, 3)
        empty = Assignment((), 0.0, ())
        assert marginal_best_insert(wide, empty) == (2, 2.0)
        two = solve(page, method="dp")
        bidder_id, eff = marginal_best_insert(wide, two)
        assert bidder_id == 3
        assert eff == pytest.approx(2.85, abs=1e-9)

    def test_gap_no_user_reaches_keeps_the_slate_value(self):
        # Bidder 0 has cont 0, so an ad placed below it is never seen: the
        # gap is scored at the slate's own value without a hull query.
        bidders = (Bidder(0, 4.0, 1.0, 0.0), Bidder(1, 1.0, 1.0, 0.5), Bidder(2, 0.5, 1.0, 0.2))
        inst = AuctionInstance(bidders, 3)
        assert marginal_best_insert(inst, Assignment.from_bidders(bidders[:1])) == (1, 4.0)

    def test_full_slate_has_no_candidate(self, page):
        slate = solve(dataclasses.replace(page, slots=3), method="dp")
        with pytest.raises(NoCandidate):
            marginal_best_insert(page, slate)

    def test_empty_instance_has_no_candidate(self):
        with pytest.raises(NoCandidate):
            marginal_best_insert(AuctionInstance((), 2), Assignment((), 0.0, ()))

    def test_full_slate_builds_no_index(self, page, monkeypatch):
        def fail(points):
            raise AssertionError("built a hull index for a full slate")

        monkeypatch.setattr(optimizer, "build", fail)
        with pytest.raises(NoCandidate):
            marginal_best_insert(page, solve(dataclasses.replace(page, slots=3), method="dp"))

    def test_matches_exhaustive_single_insertion(self, make_random_instance):
        from markov_auction import canonical_order, evaluate

        rng = np.random.default_rng(104)
        for _ in range(200):
            inst = make_random_instance(rng, max_n=10)
            members = [b for b in inst.bidders if rng.random() < 0.5]
            if len(members) == inst.n:
                members = members[:-1]
            slate = Assignment.from_bidders(canonical_order(members))
            got_id, got_eff = marginal_best_insert(inst, slate)
            best = max(
                (
                    evaluate(canonical_order(members + [c]))[0]
                    for c in inst.bidders
                    if c.id not in slate.selected
                ),
            )
            assert got_eff == pytest.approx(best, abs=1e-12)
            with_it = evaluate(canonical_order(members + [inst.bidder(got_id)]))[0]
            assert with_it == got_eff

    def test_accepts_prebuilt_index(self, page):
        wide = AuctionInstance(page.bidders, 3)
        index = build([(b.cont, b.ecpm) for b in canonical_order(page.bidders)])
        assert marginal_best_insert(wide, Assignment((), 0.0, ()), index) == (2, 2.0)


class TestOneTieRule:
    """Every solver returns the same slate, not only the same value: among
    optimal slates the one whose canonical ranks, with the end of the slate
    above every rank, form the largest sequence (see ``optimizer``)."""

    def test_tie_grid_permuted_ids(self):
        rng = np.random.default_rng(7)
        for _ in range(4000):
            inst = with_permuted_ids(rng, tie_grid_instance(rng))
            brute, dp, fast = (solve(inst, method=m).order for m in ALL_SOLVERS)
            assert brute == dp == fast

    @pytest.mark.parametrize("slots", (1, 3, 10))
    def test_quantized(self, slots):
        rng = np.random.default_rng(90 + slots)
        for _ in range(130):
            inst = quantized_instance(rng, slots)
            assert solve(inst, method="dp").order == solve(inst, method="fast").order
