"""The benchmark workloads: why each exists, its inputs, its request and its checks.

Every workload drives the package only through its public functions and
``python -m markov_auction``.  One request is what a caller waits for:
one ``solve`` call, one CLI process, or one auction.

Left out on purpose:

* ``n = 1e6``: ``fast`` takes about 11 s per solve there, it covers the
  same layers as ``random-1e5`` and ACCEPTANCE 9 already guards scaling.
* The package's own ``bench`` subcommand, ACCEPTANCE 9 and the planned
  in-program solve statistics (``SolveStats`` in ROADMAP.md) stay as they
  are; this benchmark times from outside and replaces none of them.

The two ``*-1e5`` shapes are solved with ``fast`` only.  Each workload
must report the same end-to-end metrics, so a dp variant would be a
workload of its own, and every extra workload shortens the runs the time
budget allows; longer runs did more for steady figures than a dp variant
would add.  The dp layer is still timed, inside ``cli-price-2e4`` (51 dp
solves at n = 2e4) and ``auction-stream``, and every ``*-1e5`` run solves
its instance once with dp, untimed, for the agreement check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from typing import Any

from checks import AGREE_TOL, Checks
from inputs import random_arrays, skyline_arrays, stream_arrays

LARGE_N = 100_000
LARGE_K = 100
CLI_N = 20_000
CLI_SLOTS = 50
STREAM_POOL = 1024
STREAM_SLOTS = 10


def _instance(pkg: Any, bids: list, ctrs: list, conts: list, slots: int):
    model = pkg.model
    return model.AuctionInstance(tuple(map(model.Bidder, range(len(bids)), bids, ctrs, conts)), slots)


class Workload:
    """Defaults: one input solved repeatedly, one latency reported in seconds."""

    min_requests = 3
    hashed_inputs = 1
    latency_name: str
    in_process = True  # the traced run needs every request in this process

    def prepare(self, pkg: Any) -> None:
        pass

    def key(self, index: int) -> int:
        return 0

    def report(self, latencies: list[float]) -> list[tuple[str, float, str]]:
        """The issue-level latency figures, by name and unit."""
        return [(self.latency_name, statistics.median(latencies), "s")]


class SolverWorkload(Workload):
    """One 1e5-bidder instance solved over and over with ``fast``."""

    latency_name = "assign_fast_s"

    def __init__(self, name: str, why: str, arrays):
        self.name, self.why, self._arrays = name, why, arrays

    def setup(self, pkg: Any, seed: int, out_dir: str) -> None:
        self.inst = _instance(pkg, *(a.tolist() for a in self._arrays(LARGE_N, seed)), LARGE_K)

    def prepare(self, pkg: Any) -> None:
        """Untimed: the dp value, for the agreement check."""
        self.reference = pkg.optimizer.solve(self.inst, method="dp").efficiency
        self.by_id = {b.id: b for b in self.inst.bidders}

    def request(self, pkg: Any, index: int):
        return pkg.optimizer.solve(self.inst, method="fast")

    def check(self, pkg: Any, checks: Checks, index: int, slate) -> tuple[bool, tuple]:
        ok = checks.slate(slate.order, slate.efficiency, slate.click_probs, self.by_id, self.reference, pkg.model.evaluate)
        return ok, slate.order


class CliWorkload(Workload):
    """``python -m markov_auction price`` on a 2e4-bidder JSON file.

    The untraced run times whole processes; the traced run calls
    ``cli.main`` in-process, because wrappers cannot reach a child process.
    """

    name = "cli-price-2e4"
    why = "only path through the JSON loader and the process boundary; loader is quadratic, pricing does 51 dp solves"
    min_requests = 2
    latency_name = "cli_wall_s"
    in_process = False

    def setup(self, pkg: Any, seed: int, out_dir: str) -> None:
        self.columns = [a.tolist() for a in random_arrays(CLI_N, seed)]
        bids, ctrs, conts = self.columns
        rows = [{"id": f"b{i:05d}", "bid": bids[i], "ctr": ctrs[i], "cont": conts[i]} for i in range(CLI_N)]
        self.path = os.path.join(out_dir, "cli-price-2e4.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"slots": CLI_SLOTS, "bidders": rows}, fh)

    def prepare(self, pkg: Any) -> None:
        inst = _instance(pkg, *self.columns, CLI_SLOTS)
        self.reference = pkg.optimizer.solve(inst, method="fast").efficiency
        self.by_id = {b.id: b for b in inst.bidders}
        self.dense = {f"b{i:05d}": i for i in range(CLI_N)}

    def request(self, pkg: Any, index: int) -> tuple[int, str]:
        argv = ["price", self.path]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pkg.cli.main(argv)
            return code, buf.getvalue()
        src = os.path.dirname(os.path.dirname(pkg.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "markov_auction", *argv], capture_output=True, text=True, env=env, check=False
        )
        return proc.returncode, proc.stdout

    def check(self, pkg: Any, checks: Checks, index: int, out: tuple[int, str]) -> tuple[bool, tuple]:
        code, text = out
        if not checks.expect("exit_code", code == 0):
            return False, ()
        try:
            records = [json.loads(line) for line in text.splitlines()]
            head, prices = records[0], records[1:]
            order = [self.dense[name] for name in head["order"]]
            efficiency, click_probs = float(head["efficiency"]), head["click_probs"]
            winners = [
                (self.dense[p["bidder"]], p["expected_payment"], p["per_click_price"]) for p in prices
            ]
            well_formed = head["type"] == "assignment" and [w[0] for w in winners] == order
        except (ValueError, KeyError, IndexError, TypeError):
            well_formed = False
        if not checks.expect("records", well_formed):
            return False, ()
        ok = checks.slate(order, efficiency, click_probs, self.by_id, self.reference, pkg.model.evaluate)
        ok &= checks.prices(winners, self.by_id)
        return ok, tuple(head["order"])


class StreamWorkload(Workload):
    """A closed loop: one client runs small auctions back to back."""

    name = "auction-stream"
    why = "per-call overhead on small tie-heavy auctions (n 50-500, k 10); pricing is most of an auction, no hull"
    min_requests = 1500  # the p99 has ten samples beyond it from 1000 on
    hashed_inputs = 100

    def setup(self, pkg: Any, seed: int, out_dir: str) -> None:
        self.pool = [tuple(a.tolist() for a in arrays) for arrays in stream_arrays(STREAM_POOL, seed)]

    def key(self, index: int) -> int:
        return index % STREAM_POOL

    def request(self, pkg: Any, index: int):
        inst = _instance(pkg, *self.pool[index % STREAM_POOL], STREAM_SLOTS)
        slate = pkg.optimizer.solve(inst)
        _, schedule = pkg.pricing.vcg_prices(inst)
        report = pkg.analysis.compare_gsp(inst)
        return inst, slate, schedule, report

    def check(self, pkg: Any, checks: Checks, index: int, out) -> tuple[bool, tuple]:
        inst, slate, schedule, report = out
        by_id = {b.id: b for b in inst.bidders}
        reference = pkg.optimizer.solve(inst, method="fast").efficiency
        ok = checks.slate(slate.order, slate.efficiency, slate.click_probs, by_id, reference, pkg.model.evaluate)
        winners = [(w.bidder_id, w.expected_payment, w.per_click_price) for w in schedule.winners]
        ok &= checks.prices(winners, by_id)
        ok &= checks.expect(
            "gsp_le_opt",
            report.optimal_efficiency == slate.efficiency
            and report.gsp_efficiency <= report.optimal_efficiency + AGREE_TOL,
        )
        return ok, slate.order

    def report(self, latencies: list[float]) -> list[tuple[str, float, str]]:
        p50 = statistics.median(latencies)
        p99 = statistics.quantiles(latencies, n=100)[98]
        return [
            ("auction_p50_ms", p50 * 1e3, "ms"),
            ("auction_p99_ms", p99 * 1e3, "ms"),
            ("auctions_per_s", len(latencies) / sum(latencies), "1/s"),
        ]


WORKLOADS = {
    wl.name: wl
    for wl in (
        SolverWorkload(
            "random-1e5-fast",
            "ACCEPTANCE 9 shape: almost every ad is dominated; hull build and sort dominate, so a prune, "
            "a faster sort or a faster hull build shows here",
            random_arrays,
        ),
        SolverWorkload(
            "skyline-1e5-fast",
            "no ad is dominated and every ad is a hull vertex: the bypass case where a prune must show "
            "no change; bound by a hull build that nothing collapses",
            skyline_arrays,
        ),
        CliWorkload(),
        StreamWorkload(),
    )
}
