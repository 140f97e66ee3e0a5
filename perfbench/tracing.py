"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the names the package looks up at call time
with timing wrappers: module globals (``optimizer.canonical_order``,
``optimizer.build``, ``pricing.solve`` and the like) and class attributes
(``HullIndex.query_max``, ``HullIndex.dyadic_cover``,
``Assignment.from_bidders``, ``AuctionInstance.__init__``).
``optimizer._SOLVERS`` binds ``dp_optimal`` at import time, so the dp
solver is timed through the ``solve`` span it runs under.

Spans stay in memory, each with its parent span and the benchmark request
it belongs to, and are written out once the run ends.  A layer's self
time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable

from checks import CHECK_KINDS

# Per-layer metric -> (unit, the end-to-end figures it should move).
# Times and counts are per benchmark request, summed over the traced phase
# and divided by its request count; ratios are taken over the whole phase.
LAYER_MAP: dict[str, tuple[str, str]] = {
    "model.canonical_order.self_s": ("s", "assign_fast_s (both *-1e5); cli_wall_s (51 sorts); auction_p50_ms"),
    "model.canonical_order.calls": ("count", "assign_fast_s, cli_wall_s, auction_p50_ms"),
    "model.instance.self_s": ("s", "auction_p50_ms, cli_wall_s (pricing rebuilds the instance per winner); setup_s"),
    "model.instance.calls": ("count", "auction_p50_ms, cli_wall_s"),
    "model.assignment.self_s": ("s", "assign_fast_s (the chain builds k slates)"),
    "model.assignment.calls": ("count", "assign_fast_s"),
    "hull_oracle.build.self_s": ("s", "assign_fast_s on skyline-1e5 and random-1e5; idle elsewhere"),
    "hull_oracle.build.points": ("count", "assign_fast_s"),
    "hull_oracle.query_max.self_s": ("s", "assign_fast_s"),
    "hull_oracle.query_max.calls": ("count", "assign_fast_s"),
    "hull_oracle.blocks_per_query": ("count", "assign_fast_s"),
    "optimizer.dp.self_s": ("s", "cli_wall_s, auction_p50_ms"),
    "optimizer.dp.cells": ("count", "cli_wall_s, auction_p50_ms"),
    "optimizer.fast.self_s": ("s", "assign_fast_s"),
    "optimizer.fast.steps": ("count", "assign_fast_s"),
    "optimizer.solve.calls": ("count", "every latency"),
    "optimizer.solve.bidders": ("count", "every latency"),
    "pricing.vcg.self_s": ("s", "cli_wall_s, auction_p50_ms, auctions_per_s"),
    "pricing.vcg.resolves": ("count", "cli_wall_s, auction_p50_ms"),
    "pricing.vcg.failed": ("count", "failed_frac"),
    "cli.import_s": ("s", "cli_wall_s, setup_s"),
    "cli.load_instance.self_s": ("s", "cli_wall_s"),
    "cli.load_instance.bidders_per_s": ("1/s", "cli_wall_s"),
    "cli.main.self_s": ("s", "cli_wall_s"),
    "analysis.compare_gsp.self_s": ("s", "auction_p50_ms"),
    **{f"checks.failed.{kind}": ("count", "failed_frac") for kind in CHECK_KINDS},
    "trace.overhead_s": ("s", "none: traced minus untraced wall time per request"),
    "trace.overhead_frac": ("ratio", "none: tracing overhead over untraced wall time"),
    "trace.hash_mismatches": ("count", "none: traced selections that differ from untraced ones"),
}

# Span fields, stored as plain lists to keep tracing cheap.
_ID, _PARENT, _NAME, _REQ, _T0, _T1, _ATTRS, _ERROR = range(8)


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.request = -1
        self.paused = False
        self.cover_calls = 0
        self.cover_blocks = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        note: Callable[..., dict] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, label, tracer.request, 0.0, 0.0, None, False]
            spans.append(span)
            stack.append(span[_ID])
            span[_T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_ERROR] = True
                raise
            finally:
                span[_T1] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[_ATTRS] = note(result, *args, **kwargs)
            return result

        return traced

    def request_span(self, index: int, fn: Callable, *args):
        """Run one benchmark request as a root span that its layers share."""
        self.request = index
        try:
            return self._wrap(fn, "bench.request")(*args)
        finally:
            self.request = -1

    # -- installation -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, pkg: Any) -> None:
        """Wrap the package's lookup points; ``pkg`` holds its modules."""
        model, optimizer, hull_oracle = pkg.model, pkg.optimizer, pkg.hull_oracle
        pricing, analysis, cli = pkg.pricing, pkg.analysis, pkg.cli

        def solve_name(inst, slots=None, method="dp"):
            return f"optimizer.{method}"

        def solve_note(result, inst, slots=None, method="dp"):
            k = inst.slots if slots is None else slots
            return {"bidders": inst.n, "cells": inst.n * min(k, inst.n), "steps": len(result.order)}

        solve = self._wrap(optimizer.solve, solve_name, solve_note)
        for module in (optimizer, pricing, analysis, cli):
            self._patch(module, "solve", solve)
        self._patch(optimizer, "canonical_order", self._wrap(optimizer.canonical_order, "model.canonical_order"))
        self._patch(optimizer, "build", self._wrap(optimizer.build, "hull_oracle.build", lambda r, *a: {"points": r.n}))
        vcg = self._wrap(pricing.vcg_prices, "pricing.vcg")
        self._patch(pricing, "vcg_prices", vcg)
        self._patch(cli, "vcg_prices", vcg)
        self._patch(analysis, "compare_gsp", self._wrap(analysis.compare_gsp, "analysis.compare_gsp"))
        self._patch(
            cli,
            "load_instance",
            self._wrap(cli.load_instance, "cli.load_instance", lambda r, *a, **k: {"bidders": r.instance.n}),
        )
        self._patch(cli, "main", self._wrap(cli.main, "cli.main"))

        self._patch(model.AuctionInstance, "__init__", self._wrap(model.AuctionInstance.__init__, "model.instance"))
        from_bidders = model.Assignment.__dict__["from_bidders"].__func__
        self._patch(model.Assignment, "from_bidders", classmethod(self._wrap(from_bidders, "model.assignment")))
        self._patch(hull_oracle.HullIndex, "query_max", self._wrap(hull_oracle.HullIndex.query_max, "hull_oracle.query_max"))

        cover = hull_oracle.HullIndex.dyadic_cover
        tracer = self

        # Counted, not timed: its time is part of the query_max span around it.
        @functools.wraps(cover)
        def counted_cover(index, lo, hi):
            blocks = cover(index, lo, hi)
            if not tracer.paused:
                tracer.cover_calls += 1
                tracer.cover_blocks += len(blocks)
            return blocks

        self._patch(hull_oracle.HullIndex, "dyadic_cover", counted_cover)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer self times and counts, per request."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_T1] - s[_T0]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        attrs: dict[str, float] = defaultdict(float)
        errors: dict[str, int] = defaultdict(int)
        load_wall = 0.0
        vcg_solves = 0
        for s in self.spans:
            name = s[_NAME]
            self_s[name] += s[_T1] - s[_T0] - child_time[s[_ID]]
            calls[name] += 1
            errors[name] += s[_ERROR]
            for key, value in (s[_ATTRS] or {}).items():
                attrs[f"{name}.{key}"] += value
            if name == "cli.load_instance":
                load_wall += s[_T1] - s[_T0]
            if name.startswith("optimizer.") and s[_PARENT] >= 0 and self.spans[s[_PARENT]][_NAME] == "pricing.vcg":
                vcg_solves += 1
        solves = sum(n for name, n in calls.items() if name.startswith("optimizer."))
        solve_bidders = sum(v for key, v in attrs.items() if key.startswith("optimizer.") and key.endswith(".bidders"))
        per = 1.0 / max(requests, 1)
        out = {
            "model.canonical_order.self_s": self_s["model.canonical_order"] * per,
            "model.canonical_order.calls": calls["model.canonical_order"] * per,
            "model.instance.self_s": self_s["model.instance"] * per,
            "model.instance.calls": calls["model.instance"] * per,
            "model.assignment.self_s": self_s["model.assignment"] * per,
            "model.assignment.calls": calls["model.assignment"] * per,
            "hull_oracle.build.self_s": self_s["hull_oracle.build"] * per,
            "hull_oracle.build.points": attrs["hull_oracle.build.points"] * per,
            "hull_oracle.query_max.self_s": self_s["hull_oracle.query_max"] * per,
            "hull_oracle.query_max.calls": calls["hull_oracle.query_max"] * per,
            "hull_oracle.blocks_per_query": self.cover_blocks / self.cover_calls if self.cover_calls else 0.0,
            "optimizer.dp.self_s": self_s["optimizer.dp"] * per,
            "optimizer.dp.cells": attrs["optimizer.dp.cells"] * per,
            "optimizer.fast.self_s": self_s["optimizer.fast"] * per,
            "optimizer.fast.steps": attrs["optimizer.fast.steps"] * per,
            "optimizer.solve.calls": solves * per,
            "optimizer.solve.bidders": solve_bidders * per,
            "pricing.vcg.self_s": self_s["pricing.vcg"] * per,
            "pricing.vcg.resolves": (vcg_solves - calls["pricing.vcg"]) * per,
            "pricing.vcg.failed": errors["pricing.vcg"] * per,
            "cli.load_instance.self_s": self_s["cli.load_instance"] * per,
            "cli.load_instance.bidders_per_s": attrs["cli.load_instance.bidders"] / load_wall if load_wall else 0.0,
            "cli.main.self_s": self_s["cli.main"] * per,
            "analysis.compare_gsp.self_s": self_s["analysis.compare_gsp"] * per,
        }
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s[_ID],
                    "parent": s[_PARENT],
                    "name": s[_NAME],
                    "request": s[_REQ],
                    "start": s[_T0],
                    "end": s[_T1],
                }
                if s[_ATTRS]:
                    record["attrs"] = s[_ATTRS]
                if s[_ERROR]:
                    record["error"] = True
                fh.write(json.dumps(record) + "\n")
