"""Unit tests for the diagnostics: sweeps, monotonicity, GSP, dominance."""

import dataclasses

import numpy as np
import pytest

from conftest import tie_grid_instance
from markov_auction import (
    Assignment,
    AuctionInstance,
    Bidder,
    SizeLimitExceeded,
    SweepPoint,
    SweepReport,
    UnknownBidder,
    check_dominance,
    check_monotonicity,
    compare_gsp,
    sweep_bid,
)
from markov_auction import analysis
from markov_auction.optimizer import brute_force_optimal


class TestSweepBid:
    def test_worked_grid(self, page):
        report = sweep_bid(page, 3, [0.5, 1.7, 10.0])
        assert report.bidder_id == 3
        low, mid, high = report.points
        assert (low.position, low.click_prob) == (0, 0.0)
        assert low.selected == (1, 2)
        assert (mid.position, mid.click_prob) == (0, 0.0)
        assert high.position == 1
        assert high.click_prob == pytest.approx(0.5)
        assert high.selected == (3, 2)
        assert high.efficiency == pytest.approx(6.6, abs=1e-9)

    def test_only_the_swept_bid_changes(self, page):
        report = sweep_bid(page, 3, [1.7])
        assert report.points[0].efficiency == pytest.approx(2.50, abs=1e-9)

    def test_unknown_bidder_rejected(self, page):
        with pytest.raises(UnknownBidder):
            sweep_bid(page, 99, [1.0])


class TestCheckMonotonicity:
    def _report(self, rows):
        points = tuple(
            SweepPoint(bid, pos, click, 0.0, ()) for bid, pos, click in rows
        )
        return SweepReport(0, points)

    def test_clean_sweep_passes(self, page):
        verdict = check_monotonicity(sweep_bid(page, 3, np.linspace(0.0, 12.0, 40)))
        assert verdict.passed
        assert verdict.first_violation is None

    def test_click_drop_fails(self):
        report = self._report([(1.0, 1, 0.5), (2.0, 1, 0.3)])
        verdict = check_monotonicity(report)
        assert not verdict.passed
        assert verdict.first_violation == 1
        assert "click_prob" in verdict.reason

    def test_position_worsening_fails(self):
        report = self._report([(1.0, 1, 0.5), (2.0, 2, 0.5)])
        verdict = check_monotonicity(report)
        assert not verdict.passed
        assert verdict.first_violation == 1
        assert "position" in verdict.reason

    def test_becoming_assigned_is_an_improvement(self):
        report = self._report([(1.0, 0, 0.0), (2.0, 2, 0.4)])
        assert check_monotonicity(report).passed

    def test_tiny_click_dip_within_tolerance(self):
        report = self._report([(1.0, 1, 0.5), (2.0, 1, 0.5 - 1e-14)])
        assert check_monotonicity(report).passed

    def test_single_point_is_vacuously_monotone(self):
        assert check_monotonicity(self._report([(1.0, 1, 0.5)])).passed


class TestCompareGsp:
    def test_worked_two_slots(self, page):
        report = compare_gsp(page)
        assert report.gsp_order == (2, 1)
        assert report.gsp_efficiency == pytest.approx(2.2, abs=1e-9)
        assert report.optimal_order == (1, 2)
        assert report.optimal_efficiency == pytest.approx(2.50, abs=1e-9)
        assert report.efficiency_ratio == pytest.approx(0.88, abs=1e-9)

    def test_worked_three_slots(self, page):
        report = compare_gsp(dataclasses.replace(page, slots=3))
        assert report.gsp_order == (2, 1, 3)
        assert report.gsp_efficiency == pytest.approx(2.3275, abs=1e-9)
        assert report.optimal_efficiency == pytest.approx(2.85, abs=1e-9)
        assert report.efficiency_ratio == pytest.approx(2.3275 / 2.85, abs=1e-9)

    def test_identical_bidders_tie_out_at_ratio_one(self):
        inst = AuctionInstance(
            tuple(Bidder(i, 2.0, 0.5, 0.5) for i in range(5)), 3
        )
        report = compare_gsp(inst)
        assert report.gsp_order == (0, 1, 2)
        assert report.gsp_efficiency == pytest.approx(report.optimal_efficiency)
        assert report.efficiency_ratio == pytest.approx(1.0)

    def test_all_zero_bids_give_ratio_one(self):
        inst = AuctionInstance(tuple(Bidder(i, 0.0, 0.5, 0.5) for i in range(3)), 2)
        report = compare_gsp(inst)
        assert report.optimal_efficiency == 0.0
        assert report.efficiency_ratio == 1.0

    def test_ratio_bounded_by_one(self, make_random_instance):
        rng = np.random.default_rng(40)
        for _ in range(150):
            report = compare_gsp(make_random_instance(rng, max_n=10, max_slots=5))
            assert 0.0 < report.efficiency_ratio <= 1.0 + 1e-12
            assert report.gsp_efficiency <= report.optimal_efficiency + 1e-9


class TestCheckDominance:
    def test_worked_instance_passes(self, page):
        verdict = check_dominance(page)
        assert verdict.passed
        assert verdict.detail is None

    def test_random_instances_pass(self, make_random_instance):
        rng = np.random.default_rng(41)
        for _ in range(200):
            assert check_dominance(make_random_instance(rng, max_n=10, max_slots=4)).passed

    def test_exact_twins_pass(self):
        # Continuous draws never put a dominating ad outside the slate;
        # exact twins do, so each one is substituted and evaluated.
        rng = np.random.default_rng(43)
        substituted = 0
        for _ in range(300):
            inst = tie_grid_instance(rng)
            assert check_dominance(inst).passed
            best = brute_force_optimal(inst)
            outside = [b for b in inst.bidders if b.id not in best.selected]
            substituted += any(
                (o.ecpm, o.adjusted_ecpm) == (inst.bidder(i).ecpm, inst.bidder(i).adjusted_ecpm)
                for o in outside
                for i in best.order
            )
        assert substituted > 0

    def test_inflated_optimum_fails_naming_both_bidders(self, monkeypatch):
        def inflated(inst):
            best = brute_force_optimal(inst)
            return Assignment(best.order, best.efficiency + 1.0, best.click_probs)

        monkeypatch.setattr(analysis, "brute_force_optimal", inflated)
        twins = AuctionInstance(tuple(Bidder(i, 2.0, 0.5, 0.5) for i in range(3)), 2)
        verdict = check_dominance(twins)
        assert not verdict.passed
        # The tie rule leaves out the earliest twin, bidder 0.
        assert verdict.detail == "substituting bidder 0 for 1 drops value 2.5 -> 1.5"

    def test_large_instance_refused(self):
        rng = np.random.default_rng(42)
        bidders = tuple(
            Bidder(i, float(rng.uniform(0.1, 5.0)), 0.5, 0.5) for i in range(23)
        )
        with pytest.raises(SizeLimitExceeded):
            check_dominance(AuctionInstance(bidders, 3))
