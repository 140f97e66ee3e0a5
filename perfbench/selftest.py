"""Self-test of the benchmark's input generators, with numpy only.

    python3 perfbench/selftest.py

Checks, independently of the package, that ``skyline_arrays`` gives only
undominated ads that are all hull vertices, and that every generator
gives byte-identical inputs for the same seed.
"""

from __future__ import annotations

import unittest

import numpy as np

from inputs import random_arrays, skyline_arrays, stream_arrays

N = 2000
SEEDS = (0, 1, 2)


def _scores(bids, ctrs, conts):
    """ecpm and adjusted ecpm computed as the package's ``Bidder`` does."""
    ecpm = ctrs * bids
    return ecpm, ecpm / (1.0 - conts)


class SkylineTest(unittest.TestCase):
    def test_no_ad_is_dominated(self):
        for seed in SEEDS:
            bids, ctrs, conts = skyline_arrays(N, seed)
            ecpm, adjusted = _scores(bids, ctrs, conts)
            # Canonical order: adjusted ecpm descending.  Along it ecpm must
            # rise strictly, so no ad is at least as good on both scores.
            order = np.argsort(-adjusted, kind="stable")
            self.assertTrue(np.all(np.diff(adjusted[order]) < 0.0), f"seed {seed}: adjusted ecpm ties")
            self.assertTrue(np.all(np.diff(ecpm[order]) > 0.0), f"seed {seed}: a dominated ad")

    def test_every_ad_is_a_hull_vertex(self):
        for seed in SEEDS:
            bids, ctrs, conts = skyline_arrays(N, seed)
            ecpm, _ = _scores(bids, ctrs, conts)
            by_q = np.argsort(conts, kind="stable")
            q, e = conts[by_q], ecpm[by_q]
            # Strictly increasing q with strictly falling e: the highest-e
            # point comes first and no point is cut from the arc's front.
            self.assertTrue(np.all(np.diff(q) > 0.0), f"seed {seed}: repeated cont")
            self.assertTrue(np.all(np.diff(e) < 0.0), f"seed {seed}: ecpm not falling in cont")
            # Every consecutive triple turns clockwise, the same cross product
            # the hull build uses, so no point is popped from any contiguous run.
            cross = (q[1:-1] - q[:-2]) * (e[2:] - e[:-2]) - (e[1:-1] - e[:-2]) * (q[2:] - q[:-2])
            self.assertTrue(np.all(cross < 0.0), f"seed {seed}: a point inside the hull")


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for gen in (random_arrays, skyline_arrays):
            for seed in SEEDS:
                first, second = gen(N, seed), gen(N, seed)
                self.assertEqual([a.tobytes() for a in first], [a.tobytes() for a in second])
            self.assertNotEqual(gen(N, 0)[0].tobytes(), gen(N, 1)[0].tobytes())
        for seed in SEEDS:
            first, second = stream_arrays(20, seed), stream_arrays(20, seed)
            self.assertEqual(
                [a.tobytes() for arrays in first for a in arrays],
                [a.tobytes() for arrays in second for a in arrays],
            )

    def test_stream_values_are_quantized_and_valid(self):
        auctions = stream_arrays(50, 0)
        for bids, ctrs, conts in auctions:
            self.assertTrue(50 <= len(bids) <= 500)
            self.assertTrue(np.all((bids >= 0.05) & (bids <= 5.0)))
            self.assertTrue(np.all((ctrs > 0.0) & (ctrs <= 1.0)))
            self.assertTrue(np.all((conts >= 0.0) & (conts < 1.0)))
            for values, steps in ((bids, 20), (ctrs, 100), (conts, 100)):
                self.assertTrue(np.allclose(values * steps, np.round(values * steps), rtol=0.0, atol=1e-9))
        self.assertTrue(any(np.any(conts == 0.0) for _, _, conts in auctions), "no cont of exactly 0")


if __name__ == "__main__":
    unittest.main()
