"""The ``dp`` take/skip recursion against a per-cell reference.

``optimizer._dp`` runs the recursion one open-slot count at a time: given
``best(., r - 1)``, the column ``best(., r)`` is one suffix maximum of the
"take" values ``best(i+1, r-1) * q_i + e_i`` over the survivors, and a bool
mask records where "take" is strictly above "skip".  The reference below
builds every value row cell by cell, bottom to top, and backtracks with
the same strict ``>`` test.  numpy rounds the multiply and the add one at
a time, as Python does, and its maximum returns one of its operands, so
both must pick the same ranks and the tests assert ``==`` on the picks.
"""

import numpy as np
import pytest

from conftest import (
    columns_instance,
    quantized_instance,
    random_bidders,
    ranked_form,
    tie_grid_instance,
    with_permuted_ids,
)
from markov_auction import AuctionInstance, Bidder
from markov_auction.optimizer import _dp


def per_cell_dp(ecpms, conts, m):
    """The recursion cell by cell: the reference for ``_dp``.  Row ``i``
    holds ``best(i, 0..m)``; a cell takes rank ``i`` only when that is
    strictly worth more than skipping it, and the backtrack stops after a
    rank no user scans past."""
    e, q = ecpms.tolist(), conts.tolist()
    rows = [[0.0] * (m + 1)]
    for e_i, q_i in zip(reversed(e), reversed(q)):
        below = rows[-1]
        here = below.copy()
        for r in range(1, m + 1):
            taken = below[r - 1] * q_i + e_i
            if taken > below[r]:
                here[r] = taken
        rows.append(here)
    rows.reverse()
    chosen, r = [], m
    for i, (e_i, q_i, below) in enumerate(zip(e, q, rows[1:])):
        if below[r - 1] * q_i + e_i > below[r]:
            chosen.append(i)
            r -= 1
            if not r or q_i == 0.0:
                break
    return chosen


def dp_picks(inst, m):
    """The picks of ``_dp`` on the instance's ranked form for ``m`` slots,
    after asserting that the reference picks the same."""
    _, ecpms, conts = ranked_form(inst, m)
    picks = _dp(ecpms, conts, m)
    assert picks == per_cell_dp(ecpms, conts, m)
    return picks


class TestColumnsMatchPerCellRows:
    def test_tie_grid_permuted_ids(self):
        rng = np.random.default_rng(80)
        for _ in range(1500):
            inst = with_permuted_ids(rng, tie_grid_instance(rng))
            for m in range(1, inst.n + 1):
                dp_picks(inst, m)

    def test_tenth_grid(self):
        # Scores on a 0.1 grid are not dyadic, so equal sums can come from
        # unequal terms that round together.
        rng = np.random.default_rng(81)
        for _ in range(600):
            n = int(rng.integers(2, 30))
            bids, ctrs, conts = rng.integers(0, 11, n) / 10, rng.integers(1, 11, n) / 10, rng.integers(0, 10, n) / 10
            inst = columns_instance(bids, ctrs, conts, 1)
            for m in range(1, min(n, 6) + 1):
                dp_picks(inst, m)

    @pytest.mark.parametrize("slots", (1, 3, 10))
    def test_quantized(self, slots):
        rng = np.random.default_rng(82 + slots)
        for _ in range(30):
            dp_picks(quantized_instance(rng, slots), slots)

    def test_zero_continuation_pick_above_other_survivors(self):
        # Rank 1 (cont 0) ends the slate with a slot to spare; rank 2
        # survives the prune below it and the backtrack never reaches it.
        bidders = [Bidder(0, 2.0, 0.5, 0.5), Bidder(1, 3.0, 0.5, 0.0), Bidder(2, 1.0, 0.5, 0.5)]
        bidders += [Bidder(3, 0.8, 0.5, 0.2), Bidder(4, 0.1, 0.5, 0.0)]
        inst = AuctionInstance(tuple(bidders), 3)
        assert len(ranked_form(inst, 3)[1]) == 3
        assert dp_picks(inst, 3) == [0, 1]

    def test_zero_bid_last_rank_is_skipped(self):
        # Taking the zero-bid ad ties with skipping it, so the slate keeps a
        # slot to spare and the backtrack finds no take at or after rank 1.
        inst = AuctionInstance((Bidder(0, 0.0, 1.0, 0.5), Bidder(1, 2.0, 1.0, 0.25)), 5)
        assert dp_picks(inst, 2) == [0]

    @pytest.mark.parametrize("bid", (0.0, 1.0))
    @pytest.mark.parametrize("cont", (0.0, 0.5))
    @pytest.mark.parametrize("slots", (1, 3))
    def test_single_bidder(self, bid, cont, slots):
        inst = AuctionInstance((Bidder(7, bid, 0.5, cont),), slots)
        assert dp_picks(inst, 1) == ([0] if bid else [])

    def test_empty(self):
        assert dp_picks(AuctionInstance((), 3), 0) == []

    def test_all_skyline(self):
        # No ad beats another, so all 20,000 survive and every column is a
        # full-length suffix maximum.
        rng = np.random.default_rng(83)
        conts = rng.uniform(0.0, 0.99, 20000)
        ctrs = 1.0 - rng.random(20000)
        inst = columns_instance((1.01 - conts * conts) / ctrs, ctrs, conts, 50)
        assert len(ranked_form(inst, 50)[1]) == 20000
        assert len(dp_picks(inst, 50)) == 50

    def test_random_draws(self):
        rng = np.random.default_rng(84)
        inst = AuctionInstance(random_bidders(rng, 20000, cont_high=0.99), 50)
        assert len(ranked_form(inst, 50)[1]) > 2 * 50
        assert len(dp_picks(inst, 50)) == 50

    def test_read_only_inputs(self):
        # With nothing pruned the body gets the instance's read-only
        # ranking arrays; it must never write into them.
        rng = np.random.default_rng(85)
        inst = AuctionInstance(random_bidders(rng, 40), 40)
        _, ecpms, conts = ranked_form(inst, 40)
        assert ecpms is inst.ranking[1] and not (ecpms.flags.writeable or conts.flags.writeable)
        dp_picks(inst, 40)
