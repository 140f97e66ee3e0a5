"""Acceptance suite: the shipping gate for this package.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <n>: <name>: PASS`` / ``FAIL`` line (run pytest with ``-s``
to see the lines for passing tests).  Tolerances appear inline; orders
and hull-query results are compared exactly.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import random_bidders, random_instance
from markov_auction import (
    AuctionInstance,
    Bidder,
    LinearQuery,
    build,
    canonical_order,
    check_dominance,
    check_monotonicity,
    dp_optimal,
    evaluate,
    fast_optimal,
    solve,
    sweep_bid,
)
from markov_auction.cli import SEED_ENV_VAR, load_instance, main
from markov_auction.cli import random_instance as synthetic_instance


def criterion(num, name):
    """Print one PASS/FAIL line per criterion, preserving the failure."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num}: {name}: PASS")

        return wrapper

    return deco


@criterion(1, "worked three-ad page reproduced")
def test_01_worked_page(page):
    started = time.perf_counter()
    assert [b.adjusted_ecpm for b in page.bidders] == pytest.approx(
        [4.0, 2.5, 4.25], abs=1e-9
    )
    by_ecpm = sorted(page.bidders, key=lambda b: (-b.ecpm, b.id))[:2]
    assert evaluate(by_ecpm)[0] == pytest.approx(2.20, abs=1e-9)
    by_adjusted = canonical_order(page.bidders)[:2]
    assert evaluate(by_adjusted)[0] == pytest.approx(1.65, abs=1e-9)
    for method in ("brute", "dp", "fast"):
        two = solve(page, method=method)
        assert two.order == (1, 2)
        assert two.efficiency == pytest.approx(2.50, abs=1e-9)
        assert solve(page, slots=3, method=method).order == (3, 1, 2)
    assert time.perf_counter() - started < 1.0


@criterion(2, "independent solvers agree on 2000 instances")
def test_02_solver_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20_002)
    methods = ("brute", "dp", "fast")
    for _ in range(2000):
        inst = random_instance(rng, max_n=12, max_slots=5)
        effs = [solve(inst, method=m).efficiency for m in methods]
        assert max(effs) - min(effs) <= 1e-9
        jittered = AuctionInstance(
            tuple(
                Bidder(b.id, b.bid * (1.0 + 1e-6 * float(u)), b.ctr, b.cont)
                for b, u in zip(inst.bidders, rng.random(inst.n))
            ),
            inst.slots,
        )
        sets = {solve(jittered, method=m).selected for m in methods}
        assert len(sets) == 1
    assert time.perf_counter() - started < 60.0


@criterion(3, "incremental chain matches exact optima")
def test_03_chain_against_dp():
    rng = np.random.default_rng(20_003)
    for _ in range(500):
        inst = random_instance(rng, max_n=60, max_slots=10)
        chain = fast_optimal(inst)
        assert len(chain.solutions) <= min(inst.n, inst.slots)
        prev = frozenset()
        for size, sol in enumerate(chain.solutions, start=1):
            assert prev < sol.selected
            prev = sol.selected
            assert sol.efficiency == pytest.approx(
                dp_optimal(inst, size).efficiency, abs=1e-9
            )
        assert chain.final.efficiency == pytest.approx(
            dp_optimal(inst).efficiency, abs=1e-9
        )


@criterion(4, "adjacent swap never hurts (100000 trials)")
def test_04_adjacent_swap():
    rng = np.random.default_rng(20_004)
    pool = random_bidders(rng, 3000)
    pool_a = [b.adjusted_ecpm for b in pool]
    fallback = (pool_a.index(min(pool_a)), pool_a.index(max(pool_a)))
    trials = 100_000
    sizes = rng.integers(2, 9, trials)
    # Disjoint windows of shuffled id ranges, so each trial's members are
    # distinct bidders.
    per_perm = len(pool) // 8
    perms = np.argsort(rng.random((trials // per_perm + 1, len(pool))), axis=1)
    picks = perms[:, : per_perm * 8].reshape(-1, 8)
    pick_pos = rng.integers(0, 8, trials)
    for t in range(trials):
        order = list(picks[t, : sizes[t]])
        spots = [p for p in range(len(order) - 1) if pool_a[order[p]] < pool_a[order[p + 1]]]
        if not spots:
            order.sort(key=pool_a.__getitem__)
            spots = [p for p in range(len(order) - 1) if pool_a[order[p]] < pool_a[order[p + 1]]]
        if not spots:
            order, spots = list(fallback), [0]
        p = spots[pick_pos[t] % len(spots)]
        before = evaluate([pool[j] for j in order])[0]
        order[p], order[p + 1] = order[p + 1], order[p]
        after = evaluate([pool[j] for j in order])[0]
        assert after - before >= -1e-12


@criterion(5, "dominance substitutions never lose value")
def test_05_dominance():
    rng = np.random.default_rng(20_005)
    for _ in range(1000):
        verdict = check_dominance(random_instance(rng, max_n=10, max_slots=5), tol=1e-12)
        assert verdict.passed, verdict.detail


@criterion(6, "outcomes monotone in own bid")
def test_06_bid_monotonicity():
    rng = np.random.default_rng(20_006)
    for _ in range(200):
        inst = random_instance(rng, max_n=10, max_slots=4)
        member = inst.bidders[int(rng.integers(0, inst.n))]
        grid = [float(x) for x in np.linspace(0.0, 2.5 * member.bid + 1.0, 50)]
        verdict = check_monotonicity(sweep_bid(inst, member.id, grid), tol=1e-12)
        assert verdict.passed, verdict.reason


@criterion(7, "truthful bidding is optimal")
def test_07_truthfulness():
    rng = np.random.default_rng(20_007)
    for _ in range(300):
        inst = random_instance(rng, max_n=8, max_slots=4)
        member = inst.bidders[int(rng.integers(0, inst.n))]
        rest = AuctionInstance(
            tuple(b for b in inst.bidders if b.id != member.id), inst.slots
        )
        rest_eff = solve(rest, method="dp").efficiency

        def utility(report):
            slate = solve(inst.with_bid(member.id, report), method="dp")
            if member.id not in slate.order:
                return 0.0
            click = slate.click_probs[slate.order.index(member.id)]
            payment = rest_eff - (slate.efficiency - click * report)
            return click * member.bid - payment

        truthful = utility(member.bid)
        assert truthful >= -1e-12
        for report in np.linspace(0.0, 2.0 * member.bid, 25):
            assert utility(float(report)) <= truthful + 1e-9


@criterion(8, "hull queries match linear scans exactly")
def test_08_hull_exactness():
    rng = np.random.default_rng(20_008)
    plan = {1: 500, 2: 500, 3: 1000, 17: 1500, 256: 2000, 1000: 2000, 10_000: 2500}
    checked = 0
    for n, count in plan.items():
        qs = rng.uniform(0.0, 0.99, n)
        es = rng.uniform(0.0, 10.0, n)
        for i in range(7, n, 7):
            j = int(rng.integers(0, i))
            qs[i], es[i] = qs[j], es[j]
        for i in range(11, n, 11):
            qs[i] = qs[i - 1]
        index = build(zip(qs.tolist(), es.tolist()))
        for _ in range(count):
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n))
            ce = float(rng.uniform(0.001, 4.0))
            cq = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 4.0))
            idx, val = index.query_max(LinearQuery(ce, cq, lo, hi))
            vals = ce * es + cq * qs
            arg = lo + int(np.argmax(vals[lo : hi + 1]))
            assert idx == arg
            assert val == float(vals[arg])
            checked += 1
    assert checked == 10_000


@criterion(9, "large-instance performance and scaling")
def test_09_performance():
    def best_of(shapes, reps):
        """Each shape's best solve time over ``reps`` rounds.  The shapes
        take turns within a round, so a slow spell of the machine falls on
        all of them rather than on every run of one.  Each round solves a
        fresh copy, built outside the timer, so every timing includes the
        ranking that an instance computes once and keeps."""
        insts = [synthetic_instance(n, k, seed=20_009) for n, k in shapes]
        best = [math.inf] * len(insts)
        for _ in range(reps):
            for i, inst in enumerate(insts):
                cold = AuctionInstance(inst.bidders, inst.slots)
                started = time.perf_counter()
                fast_optimal(cold)
                best[i] = min(best[i], time.perf_counter() - started)
        return best

    inst = synthetic_instance(100_000, 100, seed=20_009)
    started = time.perf_counter()
    chain = fast_optimal(inst)
    assert time.perf_counter() - started < 5.0
    assert chain.final.efficiency > 0.0

    half, full = best_of([(50_000, 16), (100_000, 16)], reps=15)
    assert 1.0 < full / half < 3.0

    base, narrow, wide = best_of([(20_000, 1), (20_000, 150), (20_000, 300)], reps=5)
    if narrow - base >= 0.005:
        assert 1.0 <= (wide - base) / (narrow - base) < 6.0


@criterion(10, "deterministic command-line output")
def test_10_cli_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    doc = {
        "slots": 2,
        "bidders": [
            {"id": "a", "bid": 2.0, "ctr": 0.5, "cont": 0.75},
            {"id": "b", "bid": 4.0, "ctr": 0.5, "cont": 0.2},
            {"id": "c", "bid": 1.7, "ctr": 0.5, "cont": 0.8},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    commands = [
        ["assign", str(path), "--slots", "3"],
        ["price", str(path)],
        ["compare", str(path)],
        ["sweep", str(path), "--bidder", "c", "--from", "0", "--to", "12", "--steps", "9"],
    ]
    for args in commands:
        outs = []
        for _ in range(2):
            assert main(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    bench_records = []
    for _ in range(2):
        assert main(["bench", "--n", "500", "--k", "20", "--seed", "5"]) == 0
        record = json.loads(capsys.readouterr().out)
        record.pop("elapsed_s")
        bench_records.append(record)
    assert bench_records[0] == bench_records[1]

    assert main(["assign", str(path), "--slots", "3"]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    named = load_instance(str(path), "json", 3)
    ordered = [named.instance.bidder(named.dense(x)) for x in record["order"]]
    assert evaluate(ordered)[0] == record["efficiency"]
