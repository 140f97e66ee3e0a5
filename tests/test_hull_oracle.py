"""Unit tests for the dyadic hull index and its range-argmax queries."""

import math

import numpy as np
import pytest

from markov_auction import EmptyInput, EmptyRange, LinearQuery, build


def scan_max(points, query):
    """Reference answer: direct scan with the same floating expression."""
    best_idx, best_val = -1, -float("inf")
    for i in range(query.lo, query.hi + 1):
        q, e = points[i]
        val = query.coeff_e * e + query.coeff_q * q
        if val > best_val:
            best_idx, best_val = i, val
    return best_idx, best_val


def random_points(rng, n, dup_every=0):
    qs = rng.uniform(0.0, 0.99, n)
    es = np.exp(rng.uniform(np.log(0.01), np.log(10.0), n)) * (1.0 - rng.random(n))
    pts = [(float(q), float(e)) for q, e in zip(qs, es)]
    if dup_every:
        for t in range(0, n, dup_every):
            src = int(rng.integers(0, n))
            pts[t] = pts[src]
    return pts


class TestValidation:
    def test_build_rejects_empty(self):
        with pytest.raises(EmptyInput):
            build([])

    def test_query_rejects_zero_e_coefficient(self):
        with pytest.raises(ValueError, match="coeff_e"):
            LinearQuery(0.0, 1.0, 0, 0)

    def test_query_rejects_negative_q_coefficient(self):
        with pytest.raises(ValueError, match="coeff_q"):
            LinearQuery(1.0, -0.1, 0, 0)

    def test_empty_range(self):
        hx = build([(0.5, 1.0), (0.2, 2.0)])
        with pytest.raises(EmptyRange):
            hx.query_max(LinearQuery(1.0, 0.0, 1, 0))

    def test_out_of_bounds_range(self):
        hx = build([(0.5, 1.0)])
        with pytest.raises(ValueError, match="out of bounds"):
            hx.query_max(LinearQuery(1.0, 0.0, 0, 1))


class TestWorkedPage:
    """Index over the worked page in canonical order: points
    (q, e) = (0.8, 0.85), (0.75, 1.0), (0.2, 2.0)."""

    points = [(0.8, 0.85), (0.75, 1.0), (0.2, 2.0)]

    def test_pure_ecpm_objective(self):
        hx = build(self.points)
        idx, val = hx.query_max(LinearQuery(1.0, 0.0, 0, 2))
        assert (idx, val) == (2, 2.0)

    def test_mixed_objective_prefers_high_continuation(self):
        # e + 2q scores the three points 2.45, 2.5, 2.4.
        hx = build(self.points)
        idx, val = hx.query_max(LinearQuery(1.0, 2.0, 0, 2))
        assert idx == 1
        assert val == pytest.approx(2.5)

    def test_pair_block_keeps_both_incomparable_points(self):
        # Between the first two points neither dominates: one has higher e,
        # the other higher q, so the pair-level hull must keep both.
        hx = build(self.points)
        pair = hx._levels[1][0]
        assert sorted(v[2] for v in pair) == [0, 1]

    def test_subrange_query(self):
        hx = build(self.points)
        idx, val = hx.query_max(LinearQuery(1.0, 0.0, 0, 1))
        assert (idx, val) == (1, 1.0)


class TestHullPruning:
    def test_dominated_point_never_wins(self):
        # (0.5, 1.0) is beaten by (0.6, 2.0) in both coordinates.
        pts = [(0.5, 1.0), (0.6, 2.0)]
        hx = build(pts)
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = LinearQuery(float(rng.uniform(0.01, 5)), float(rng.uniform(0, 5)), 0, 1)
            assert hx.query_max(q)[0] == 1

    def test_identical_points_tie_to_lowest_index(self):
        pts = [(0.3, 1.5)] * 5
        hx = build(pts)
        assert hx.query_max(LinearQuery(2.0, 3.0, 0, 4))[0] == 0
        assert hx.query_max(LinearQuery(2.0, 3.0, 2, 4))[0] == 2

    def test_equal_ecpm_tie_without_q_weight_goes_to_lowest_index(self):
        # Same e, different q: with coeff_q = 0 both tie; index 0 must win
        # even though the higher-q point is the better vertex otherwise.
        pts = [(0.2, 5.0), (0.9, 5.0)]
        hx = build(pts)
        assert hx.query_max(LinearQuery(1.0, 0.0, 0, 1)) == (0, 5.0)
        assert hx.query_max(LinearQuery(1.0, 1.0, 0, 1))[0] == 1

    def test_flat_top_edge_tie_goes_to_lowest_index(self):
        # Both points score 2.0; the merged arc holds index 1 first, so the
        # search lands on it and the flat edge's lower index 0 must win.
        assert build([(0.5, 1.0), (0.0, 2.0)]).query_max(LinearQuery(1.0, 2.0, 0, 1)) == (0, 2.0)

    def test_equal_cont_scores_that_round_equal_keep_the_scan_value(self):
        # The ecpms differ (3.3949999999999996 and 3.395) but score the same
        # float; the block keeps only the higher ecpm, index 1, where a scan
        # returns index 0.  The value still matches the scan.
        pts = [(0.81, 4.85 * 0.7), (0.81, 3.5 * 0.97)]
        query = LinearQuery(0.610569418009508, 0.0, 0, 1)
        idx, val = build(pts).query_max(query)
        assert scan_max(pts, query) == (0, 2.0728831741422797)
        assert (idx, val) == (1, 2.0728831741422797)

    def test_storage_stays_n_log_n(self):
        rng = np.random.default_rng(1)
        n = 4096
        hx = build(random_points(rng, n))
        assert len(hx._levels) == int(math.log2(n)) + 1
        for level in hx._levels:
            assert sum(len(block) for block in level) <= n
        # Each level partitions the index range exactly once.
        for beta, level in enumerate(hx._levels):
            assert len(level) == math.ceil(n / 2**beta)

    def test_arcs_sorted_by_q_with_e_non_increasing(self):
        rng = np.random.default_rng(2)
        hx = build(random_points(rng, 513, dup_every=7))
        for level in hx._levels:
            for block in level:
                qs = [v[0] for v in block]
                es = [v[1] for v in block]
                assert qs == sorted(qs)
                assert all(a >= b for a, b in zip(es, es[1:]))


class TestDyadicCover:
    def test_tiles_exactly_and_in_order(self):
        hx = build([(0.1 * i % 0.9, float(i)) for i in range(37)])
        rng = np.random.default_rng(3)
        for _ in range(200):
            lo = int(rng.integers(0, 37))
            hi = int(rng.integers(lo, 37))
            cover = hx.dyadic_cover(lo, hi)
            pos = lo
            for beta, alpha in cover:
                assert alpha * 2**beta == pos
                pos += 2**beta
            assert pos == hi + 1

    def test_count_bound(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 17, 256, 1000):
            hx = build([(0.5, 1.0)] * n)
            bound = max(1, 2 * math.ceil(math.log2(n))) if n > 1 else 1
            for _ in range(200):
                lo = int(rng.integers(0, n))
                hi = int(rng.integers(lo, n))
                assert len(hx.dyadic_cover(lo, hi)) <= bound


class TestAgainstLinearScan:
    def test_exact_match_on_random_ranges(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 17, 300):
            pts = random_points(rng, n, dup_every=9)
            hx = build(pts)
            for _ in range(400):
                lo = int(rng.integers(0, n))
                hi = int(rng.integers(lo, n))
                ce = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
                cq = float(rng.uniform(0.0, 10.0)) if rng.random() < 0.85 else 0.0
                query = LinearQuery(ce, cq, lo, hi)
                assert hx.query_max(query) == scan_max(pts, query)

    def test_binary_search_matches_full_arc_scan(self):
        # The objective over one arc is unimodal; the binary search must
        # land wherever a plain scan over the arc's vertices lands.
        from markov_auction.hull_oracle import _arc_max

        rng = np.random.default_rng(6)
        hx = build(random_points(rng, 1024))
        arcs = [b for lvl in hx._levels for b in lvl if len(b) >= 2]
        for _ in range(500):
            arc = arcs[int(rng.integers(0, len(arcs)))]
            ce = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
            cq = float(rng.uniform(0.0, 10.0))
            got_idx, got_val = _arc_max(arc, ce, cq)
            vals = [ce * e + cq * q for q, e, _ in arc]
            assert got_val == max(vals)
            assert got_idx == arc[vals.index(max(vals))][2]
