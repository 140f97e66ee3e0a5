"""Every solver's slate against the exact optimum, in rational arithmetic.

Every float is a rational number, so ``fractions.Fraction`` gives any
slate's exact value from the floats the solvers read: each ad's ``ecpm``
(the float product ``ctr * bid``) and ``cont``.  The reference enumerates
every slate of at most ``k`` ads, each in exact canonical order: sorted by
the exact adjusted ecpm ``ecpm / (1 - cont)``, which gives a set its best
value, with ties in any order, since swapping two neighbours of equal
adjusted ecpm leaves the value exactly as it is.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from conftest import columns_instance
from markov_auction import solve

U = Fraction(1, 2**53)


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
