"""Unit tests for VCG payments: worked values, rationality, truthfulness."""

import numpy as np
import pytest

from markov_auction import (
    AuctionInstance,
    Bidder,
    DegenerateClickProb,
    solve,
    vcg_prices,
)


def misreport_utility(inst, bidder_id, report, solver="dp"):
    """Expected utility of one bidder when it reports ``report`` while its
    true per-click value stays at its instance bid."""
    truth = inst.bidder(bidder_id)
    probe = inst.with_bid(bidder_id, report)
    slate = solve(probe, method=solver)
    if bidder_id not in slate.order:
        return 0.0
    rank = slate.order.index(bidder_id)
    click = slate.click_probs[rank]
    reported_value = click * report
    rest = AuctionInstance(
        tuple(b for b in inst.bidders if b.id != bidder_id), inst.slots
    )
    payment = solve(rest, method=solver).efficiency - (slate.efficiency - reported_value)
    return click * truth.bid - payment


class TestWorkedPage:
    def test_payments(self, page):
        slate, schedule = vcg_prices(page)
        assert slate.order == (1, 2)
        by = schedule.by_bidder
        assert by[1].expected_payment == pytest.approx(0.95, abs=1e-9)
        assert by[2].expected_payment == pytest.approx(0.65, abs=1e-9)
        assert by[1].per_click_price == pytest.approx(1.9, abs=1e-9)
        assert by[2].per_click_price == pytest.approx(0.65 / 0.375, abs=1e-9)

    def test_values_and_utilities(self, page):
        _, schedule = vcg_prices(page)
        by = schedule.by_bidder
        assert by[1].value == pytest.approx(0.5 * 2.0)
        assert by[2].value == pytest.approx(0.375 * 4.0)
        assert by[1].utility == pytest.approx(by[1].value - by[1].expected_payment)
        assert by[2].utility == pytest.approx(by[2].value - by[2].expected_payment)

    def test_losers_pay_nothing(self, page):
        _, schedule = vcg_prices(page)
        assert schedule.payment(3) == 0.0
        assert 3 not in schedule.by_bidder

    def test_winners_listed_in_slate_order(self, page):
        slate, schedule = vcg_prices(page)
        assert tuple(w.bidder_id for w in schedule.winners) == slate.order


class TestStructuralProperties:
    def test_lone_bidder_pays_nothing(self):
        inst = AuctionInstance((Bidder(0, 3.0, 0.4, 0.6),), 2)
        _, schedule = vcg_prices(inst)
        assert schedule.winners[0].expected_payment == pytest.approx(0.0, abs=1e-12)

    def test_solver_choice_does_not_change_prices(self, make_random_instance):
        rng = np.random.default_rng(30)
        for _ in range(40):
            inst = make_random_instance(rng, max_n=9, max_slots=4)
            results = [vcg_prices(inst, solver=m)[1] for m in ("brute", "dp", "fast")]
            ids = {tuple(w.bidder_id for w in r.winners) for r in results}
            assert len(ids) == 1
            for other in results[1:]:
                for a, b in zip(results[0].winners, other.winners):
                    assert b.expected_payment == pytest.approx(a.expected_payment, abs=1e-9)

    def test_per_click_price_never_exceeds_bid(self, make_random_instance):
        rng = np.random.default_rng(31)
        for _ in range(150):
            inst = make_random_instance(rng, max_n=10, max_slots=4)
            _, schedule = vcg_prices(inst)
            for w in schedule.winners:
                bid = inst.bidder(w.bidder_id).bid
                assert -1e-12 <= w.expected_payment
                assert w.per_click_price <= bid + 1e-9

    def test_truthful_utility_is_non_negative(self, make_random_instance):
        rng = np.random.default_rng(32)
        for _ in range(150):
            _, schedule = vcg_prices(make_random_instance(rng, max_n=10, max_slots=4))
            for w in schedule.winners:
                assert w.utility >= -1e-12

    def test_no_misreport_beats_truth(self, make_random_instance):
        rng = np.random.default_rng(33)
        for _ in range(30):
            inst = make_random_instance(rng, max_n=7, max_slots=3)
            bidder = inst.bidders[int(rng.integers(0, inst.n))]
            truthful = misreport_utility(inst, bidder.id, bidder.bid)
            for report in np.linspace(0.0, 2.0 * bidder.bid, 25):
                assert misreport_utility(inst, bidder.id, float(report)) <= truthful + 1e-9

    @pytest.mark.parametrize("solver", ("brute", "dp", "fast"))
    def test_winner_above_zero_continuation_is_priced(self, solver):
        inst = AuctionInstance((Bidder(0, 4.0, 1.0, 0.0), Bidder(1, 2.0, 0.5, 0.5)), 3)
        slate, schedule = vcg_prices(inst, solver=solver)
        assert slate.order == (0,)
        (only,) = schedule.winners
        assert only.expected_payment == 1.0 and only.per_click_price == 1.0

    def test_degenerate_click_prob_error_exists(self):
        assert issubclass(DegenerateClickProb, ValueError)
