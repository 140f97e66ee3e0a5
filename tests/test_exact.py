"""Every solver's slate, and the VCG payments of each, against the exact
optimum, in rational arithmetic.

Every float is a rational number, so ``fractions.Fraction`` gives any
slate's exact value from the floats the solvers read: each ad's ``ecpm``
(the float product ``ctr * bid``) and ``cont``.  The reference enumerates
every slate of at most ``k`` ads, each in exact canonical order: sorted by
the exact adjusted ecpm ``ecpm / (1 - cont)``, which gives a set its best
value, with ties in any order, since swapping two neighbours of equal
adjusted ecpm leaves the value exactly as it is.  A winner's exact VCG
payment is then the best exact value of the slates without it, less the
exact value the other winners get in the returned slate.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import columns_instance, random_instance, tie_grid_instance
from markov_auction import DegenerateClickProb, solve, vcg_prices

U = Fraction(1, 2**53)
# The spacing of the subnormal floats: a rounding below 2**-1022 errs by up
# to half of it, whatever the magnitude.
ETA = Fraction(1, 2**1074)


def exact_values(inst):
    """The exact value of every slate of at most ``inst.slots`` ads, keyed
    by the slate's set of ids; each slate is its top ad over a slate one
    ad shorter, valued before it, so it costs one multiply and one add."""
    ads = sorted(
        ((Fraction(b.ecpm), Fraction(b.cont), b.id) for b in inst.bidders),
        key=lambda ad: ad[0] / (1 - ad[1]),
        reverse=True,
    )
    values = {(): Fraction(0)}
    for r in range(1, inst.slots + 1):
        for combo in combinations(range(len(ads)), r):
            e, q, _ = ads[combo[0]]
            values[combo] = e + q * values[combo[1:]]
    return {frozenset(ads[t][2] for t in combo): v for combo, v in values.items()}


def exact_slate_value(inst, order):
    """The exact value of the slate in the order the solver returned it."""
    v = Fraction(0)
    for bidder_id in reversed(order):
        b = inst.bidder(bidder_id)
        v = Fraction(b.ecpm) + Fraction(b.cont) * v
    return v


def tenth_grid_instance(rng):
    n = int(rng.integers(2, 9))
    bids, ctrs, conts = rng.integers(0, 11, n) / 10, rng.integers(1, 11, n) / 10, rng.integers(0, 10, n) / 10
    return columns_instance(bids, ctrs, conts, int(rng.integers(1, 5)))


EXTREME_BIDS = (0.0, 5e-324, 1e-310, 1e-300, 1e-150, 1e-9, 0.1, 1.0, 3.0, 1e9, 1e150, 1e300)
EXTREME_CTRS = (5e-324, 1e-310, 1e-300, 1e-150, 1e-9, 0.1, 0.5, 1.0)
EXTREME_CONTS = (0.0, 5e-324, 1e-300, 1e-150, 1e-9, 0.1, 0.5, 0.9, 0.999, 1.0 - 2.0**-52)


def extreme_instance(rng):
    """Up to 8 ads whose scores span subnormals to 1e300, so products
    underflow to subnormals and to 0; draws whose adjusted ecpm would
    overflow are left out, as a ``Bidder`` requires."""
    while True:
        n = int(rng.integers(1, 9))
        rows = [tuple(float(rng.choice(col)) for col in (EXTREME_BIDS, EXTREME_CTRS, EXTREME_CONTS)) for _ in range(n)]
        rows = [(b, c, q) for b, c, q in rows if c * b / (1.0 - q) < float("inf")]
        if rows:
            return columns_instance(*zip(*rows), int(rng.integers(1, 5)))


class TestExactOptimum:
    """On a 0.1 grid the scores are not dyadic, so rounding makes near
    ties, and ads of equal exact adjusted ecpm can be ranked either way.

    Each solver's slate must be within ``8 * k * u`` of the exact optimum,
    relative, with ``u = 2**-53`` and ``k`` the effective slot count; this
    is the first-order error bound for ``brute`` and ``dp``:

    * A slate's value is a Horner sum of at most ``k`` non-negative terms,
      so its computed value is within ``2k`` roundings, a relative
      ``2 * k * u``, of the exact value of the same order.
    * ``brute`` and ``dp`` return a slate of largest computed value over
      the survivors, since a rounded Horner step never falls as the value
      below it rises.  Two Horner errors put the slate within ``4 * k * u``
      of the exact value of any surviving slate in float canonical order.
    * The float adjusted ecpm takes two roundings, so moving each ``cont``
      by at most ``2 * u * (1 - cont)`` makes the float ranking and the
      float prune exact: some exactly optimal slate of the moved instance
      survives, in float canonical order.  The move changes a slate's value
      by at most ``2 * u`` times the value below each member, each at most
      the optimum: ``2 * k * u`` getting to the moved instance's optimum
      and as much coming back.

    ``fast`` is held to the same bound, and where the bound leaves one
    optimum, all three must return it.  On these 1,000 draws every slate is
    within ``8.1e-17`` of the optimum (the bound is ``3.6e-15`` at four
    slots), 961 draws leave one optimum, and the solvers' slates differ on
    3 draws, each where the bound holds more than one slate.
    """

    def test_tenth_grid(self):
        rng = np.random.default_rng(86)
        unique = 0
        for _ in range(1000):
            inst = tenth_grid_instance(rng)
            k = min(inst.slots, inst.n)
            values = exact_values(inst)
            best = max(values.values())
            bound = 8 * k * U * best
            slates = {method: solve(inst, method=method) for method in ("brute", "dp", "fast")}
            for slate in slates.values():
                assert best - exact_slate_value(inst, slate.order) <= bound
                assert abs(Fraction(slate.efficiency) - best) <= bound
            # Where every slate inside the bound is one optimum plus ads that
            # add exactly nothing to it, every solver leaves those ads out.
            near = [(len(ids), ids) for ids, v in values.items() if best - v <= bound]
            _, optimum = min(near, key=lambda item: item[0])
            if all(optimum <= ids and values[ids] == best for _, ids in near):
                unique += 1
                for slate in slates.values():
                    assert frozenset(slate.order) == optimum
        assert unique > 900


FAMILIES = {
    "tenth-grid": tenth_grid_instance,
    "tie-grid": tie_grid_instance,
    "random": lambda rng: random_instance(rng, max_n=8),
    "extreme": extreme_instance,
}


class TestExactPayments:
    """Each winner's VCG payment against the exact one.

    With ``OPT`` the exact optimum, ``k`` the effective slot count and
    ``eta = 2**-1074``, ``vcg_prices`` charges winner ``i`` of bid ``b_i``
    within ``32 * k * u * OPT + 16 * k * (1 + b_i) * eta`` of the exact
    payment ``p_i = B_i - (V - c_i)``: ``B_i`` is the best exact value of
    the slates without ``i``, ``V`` the exact value of the returned slate
    and ``c_i`` the exact value ``i`` adds to it.  ``vcg_prices`` computes
    ``clamp(A - (E - v), 0, v)``, with ``A`` its best value without ``i``,
    ``E`` the slate's value and ``v = click * bid`` the winner's.  Every
    rounding errs by at most ``u`` relative plus ``eta / 2`` absolute, the
    latter only below ``2**-1022``:

    * ``A`` is the largest computed value over the survivors without
      ``i``, so as in ``TestExactOptimum`` it is within ``8 * k * u * B_i``
      of ``B_i``, and ``B_i <= OPT``.  Below ``2**-1022`` each of the
      ``2k`` roundings of a Horner sum, and each float adjusted ecpm that
      orders or prunes the ads, adds at most ``eta / 2`` absolute, which
      the conts below it only shrink: ``4 * k * eta`` in all.
    * ``E`` is a Horner sum of ``V``: ``2 * k * u * OPT + k * eta``.
    * ``v`` is ``bid`` times ``click``, the ctr times at most ``k - 1``
      conts, so ``k`` roundings, ``(k + 2) * u * c_i`` from ``c_i`` with
      the ecpm's and ``v``'s own roundings; the absolute errors of
      ``click`` are scaled by the bid, ``k * b_i * eta / 2`` in all, plus
      ``eta`` for the other two roundings.
    * The two subtractions add ``2 * u * OPT + eta``.
    * ``p_i >= 0``, since dropping ``i`` from the slate leaves a slate
      without ``i`` worth at least ``V - c_i``, and ``p_i <= c_i + OPT - V``,
      where ``OPT - V`` is the slate's own error, ``8 * k * u * OPT`` and
      ``4 * k * eta``.  So the clamp moves the payment by at most that
      plus ``v``'s error once more.

    The relative parts sum to ``(20 * k + 8) * u * OPT``, at most
    ``28 * k * u * OPT``, and the absolute parts to at most
    ``(9 * k + 3 + k * b_i) * eta``.  The bound rounds both up.  Runs that
    raise ``DegenerateClickProb`` are counted and skipped: a winner whose
    reach underflows to 0 has no per-click price.
    """

    @pytest.mark.parametrize("family", FAMILIES)
    def test_payments_within_the_bound(self, family):
        rng = np.random.default_rng(87)
        make = FAMILIES[family]
        priced = degenerate = 0
        for _ in range(300):
            inst = make(rng)
            k = min(inst.slots, inst.n)
            values = exact_values(inst)
            best = max(values.values())
            for method in ("brute", "dp", "fast"):
                try:
                    slate, schedule = vcg_prices(inst, solver=method)
                except DegenerateClickProb:
                    degenerate += 1
                    continue
                whole = exact_slate_value(inst, slate.order)
                reach = Fraction(1)
                for winner in schedule.winners:
                    b = inst.bidder(winner.bidder_id)
                    added = reach * Fraction(b.ecpm)
                    reach *= Fraction(b.cont)
                    without = max(v for ids, v in values.items() if winner.bidder_id not in ids)
                    exact = without - (whole - added)
                    bound = 32 * k * U * best + 16 * k * (1 + Fraction(b.bid)) * ETA
                    assert abs(Fraction(winner.expected_payment) - exact) <= bound
                    priced += 1
        assert priced > 900
        assert degenerate < 90
