"""The ``fast`` chain step against a per-rank reference scan.

``optimizer._fast`` scores each gap of the slate once: the best linear
term over the gap's ranks, added to the gap's prefix value.  The
reference below scores every unchosen rank with the summed expression,
takes the gap of the latest rank holding the best score, and within it
the highest rank holding the gap's best linear term.  Since ``base + x``
never rounds down as ``x`` grows, both must pick the same ranks in the
same order, so the tests assert ``==`` on the picks.
"""

import numpy as np
import pytest

from conftest import columns_instance, quantized_instance, random_bidders, tie_grid_instance
from markov_auction import AuctionInstance, Bidder
from markov_auction.optimizer import _fast, _prefix_tables, _ranked


def per_rank_chain(ecpms, conts, m):
    """The chain scored rank by rank: the reference for ``_fast``.  Each
    step takes the latest rank of the best score, so the latest gap holding
    it, then the highest rank of that gap whose linear term is the gap's
    best: ``optimizer``'s tie rule leaves out every earlier rank it can."""
    ecpm_list, cont_list = ecpms.tolist(), conts.tolist()
    n = len(ecpm_list)
    # gap[t]: the number of chosen ranks before rank t, so the slate gap t is in.
    gap = np.zeros(n, dtype=np.intp)
    chosen = []
    picks = []
    for _ in range(m):
        cont_prefix, eff_prefix, eff_suffix = _prefix_tables(chosen, ecpm_list, cont_list)
        current = eff_suffix[0]
        ce = np.array(cont_prefix)
        cq = np.array([c * v for c, v in zip(cont_prefix, eff_suffix)])
        base = np.array([p if c != 0.0 else current for c, p in zip(cont_prefix, eff_prefix)])
        lin = ce[gap] * ecpms + cq[gap] * conts
        score = base[gap] + lin
        score[chosen] = -np.inf
        best = int(np.flatnonzero(score == score.max())[-1])
        if score[best] <= current:
            break
        g = int(gap[best])
        lo = chosen[g - 1] + 1 if g > 0 else 0
        hi = chosen[g] if g < len(chosen) else n
        pos = lo + int(np.flatnonzero(lin[lo:hi] == lin[lo:hi].max())[-1])
        if lin[pos] <= cq[g]:
            break
        chosen.insert(g, pos)
        picks.append(pos)
        gap[pos + 1 :] += 1
    return picks


def chain_picks(inst, m):
    """The picks of ``_fast`` on the instance's ranked form for ``m`` slots,
    after asserting that the reference picks the same."""
    _, ecpms, conts = _ranked(inst, m)
    picks = _fast(ecpms, conts, m)
    assert picks == per_rank_chain(ecpms, conts, m)
    return picks


class TestChainMatchesPerRankScan:
    @pytest.mark.parametrize("n, slots", [(2000, 30), (5000, 60), (20000, 100)])
    def test_skyline(self, n, slots):
        # No ad beats another and every ad is a hull vertex, so nothing is
        # pruned and every gap stays wide.
        rng = np.random.default_rng(70 + slots)
        conts = rng.uniform(0.0, 0.99, n)
        ctrs = 1.0 - rng.random(n)
        inst = columns_instance((1.01 - conts * conts) / ctrs, ctrs, conts, slots)
        assert len(chain_picks(inst, slots)) == slots

    @pytest.mark.parametrize("n, slots", [(2000, 50), (20000, 100)])
    def test_random_draws(self, n, slots):
        # Drawn like the benchmark's random instances: hundreds of ads
        # survive the prune, so every step of the chain runs.
        rng = np.random.default_rng(74 + slots)
        inst = AuctionInstance(random_bidders(rng, n, cont_high=0.99), slots)
        assert len(_ranked(inst, slots)[1]) > 2 * slots
        assert len(chain_picks(inst, slots)) == slots

    def test_read_only_inputs(self):
        # With nothing pruned the body gets the instance's read-only
        # ranking arrays; it must never write into them.
        rng = np.random.default_rng(75)
        inst = AuctionInstance(random_bidders(rng, 40), 40)
        _, ecpms, conts = _ranked(inst, 40)
        assert ecpms is inst.ranking[1] and not (ecpms.flags.writeable or conts.flags.writeable)
        chain_picks(inst, 40)

    def test_tie_grid(self):
        rng = np.random.default_rng(71)
        for _ in range(1500):
            inst = tie_grid_instance(rng)
            for m in range(1, inst.n + 1):
                chain_picks(inst, m)

    def test_tenth_grid(self):
        # Scores on a 0.1 grid are not dyadic, so equal sums can come from
        # unequal terms that round together.
        rng = np.random.default_rng(72)
        for _ in range(600):
            n = int(rng.integers(2, 30))
            bids, ctrs, conts = rng.integers(0, 11, n) / 10, rng.integers(1, 11, n) / 10, rng.integers(0, 10, n) / 10
            inst = columns_instance(bids, ctrs, conts, 1)
            for m in range(1, min(n, 6) + 1):
                chain_picks(inst, m)

    @pytest.mark.parametrize("slots", (1, 3, 10))
    def test_quantized(self, slots):
        rng = np.random.default_rng(73 + slots)
        for _ in range(30):
            chain_picks(quantized_instance(rng, slots), slots)

    def test_zero_continuation_pick_leaves_an_unreached_gap(self):
        # Rank 1 (cont 0) is picked first; ranks 2 and 3 then sit in a gap
        # no user reaches (ce == 0) while the chain grows above it.
        inst = AuctionInstance(
            (Bidder(0, 1.0, 1.0, 0.9), Bidder(1, 5.0, 1.0, 0.0), Bidder(2, 1.0, 1.0, 0.5),
             Bidder(3, 0.5, 1.0, 0.5), Bidder(4, 2.0, 1.0, 0.6)),
            3,
        )
        assert chain_picks(inst, 3) == [1, 0]

    def test_empty_first_and_last_gaps(self):
        # Rank 0 is picked first, then the last rank, so the last step runs
        # with both outer gaps empty.
        inst = AuctionInstance((Bidder(0, 5.0, 1.0, 0.5), Bidder(1, 1.0, 1.0, 0.8), Bidder(2, 3.0, 1.0, 0.0)), 3)
        assert chain_picks(inst, 3) == [0, 2, 1]

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 100.0, 1.0, 0.610569418009508), (1, 0.2, 1.0, 0.99),
             (2, 4.85, 0.7, 0.81), (3, 3.5, 0.97, 0.81)),
            ((0, 3.5, 1.0, 0.81), (1, 0.0, 0.25, 0.81), (2, 4.85, 0.7, 0.81),
             (3, 3.5, 0.97, 0.75), (4, 0.0, 0.5, 0.81), (5, 3.5, 0.5, 0.81)),
        ],
        ids=["equal-cont-twins", "prefix-rounding"],
    )
    def test_near_twins(self, rows):
        inst = AuctionInstance(tuple(Bidder(*row) for row in rows), 2)
        assert len(chain_picks(inst, 2)) == 2
