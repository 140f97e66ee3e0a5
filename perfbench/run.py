"""Benchmark for the markov_auction package, run from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One workload runs per process, on one thread.  With ``--trace 0`` the run
times requests for ``--seconds`` seconds and reports the end-to-end
metrics; with ``--trace 1`` it runs each request twice in a row, untraced
and then with per-layer tracing installed, for ``--seconds`` seconds (and
at least half the workload's minimum count), and reports the per-layer
metrics and the tracing overhead.  ``--workload
all`` runs every workload, each in a fresh process, one after another.

Every output is checked (see ``checks.py``).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The package is imported from ``src/`` of the checkout; without it the run
exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_REPS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long to time requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the per-layer traced run")
    return parser.parse_args(argv)


def run_request(wl, pkg, checks, index: int, selections: dict[int, tuple], tracer=None) -> float:
    """Time one request, then check its output outside the timed interval.

    With a tracer the request runs as a traced root span, and tracing is
    paused for the check.  Records the selection by input; returns the
    latency.
    """
    started = time.perf_counter()
    try:
        out = tracer.request_span(index, wl.request, pkg, index) if tracer else wl.request(pkg, index)
    except Exception:  # a request that raises is a failure to count, never an abort
        traceback.print_exc(file=sys.stderr)
        out = None
    latency = time.perf_counter() - started
    checks.attempted += 1
    ok = False
    if out is None:
        checks.expect("raised", False)
    else:
        if tracer:
            tracer.paused = True
        try:
            ok, selection = wl.check(pkg, checks, index, out)
            selections.setdefault(wl.key(index), selection)
        except Exception:  # so is a check that cannot read the output
            traceback.print_exc(file=sys.stderr)
            checks.expect("raised", False)
        finally:
            if tracer:
                tracer.paused = False
    checks.requests_failed += not ok
    return latency


def selection_hash(selections: dict[int, tuple], inputs: int) -> str:
    text = "\n".join(f"{k}:{','.join(map(str, selections[k]))}" for k in sorted(selections) if k < inputs)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of the largest child process."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def result_line(checks, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": checks.requests_failed == 0,
            "attempted": checks.attempted,
            "failed": checks.requests_failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import markov_auction
    import markov_auction.cli

    import_s = time.perf_counter() - started
    if os.path.dirname(os.path.dirname(os.path.abspath(markov_auction.__file__))) != SRC:
        print(f"error: markov_auction was imported from {markov_auction.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from checks import Checks
    from tracing import LAYER_MAP, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    pkg = markov_auction
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        wl.setup(pkg, args.seed, OUT_DIR)
        setups.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setups)
    wl.prepare(pkg)
    checks = Checks()
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")

    if not args.trace:
        latencies: list[float] = []
        selections: dict[int, tuple] = {}
        deadline = time.perf_counter() + args.seconds
        while len(latencies) < wl.min_requests or time.perf_counter() < deadline:
            latencies.append(run_request(wl, pkg, checks, len(latencies), selections))
        print(f"selection_hash {selection_hash(selections, wl.hashed_inputs)}")
        n = len(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(children=not wl.in_process), "MB"),
        }
        rows = [(name, value, unit, n) for name, value, unit in wl.report(latencies)]
        rows += [
            ("setup_s", setup_s, "s", SETUP_REPS),
            ("latency_ms", metrics["latency_ms"][0], "ms", n),
            ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", 1),
            ("failed_frac", checks.requests_failed / checks.attempted, "ratio", checks.attempted),
        ]
        for name, value, unit, count in rows:
            print(f"metric {name} = {value:.6g} {unit} (n={count})")
        for kind, failed in checks.failed.items():
            print(f"check {kind}: {failed} failed")
        print(result_line(checks, metrics))
        return 0

    # Each request runs twice in a row, untraced and then traced, so both
    # timings see the same machine state and their difference is the
    # tracing overhead.
    wl.in_process = True
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    plain_sel: dict[int, tuple] = {}
    traced_sel: dict[int, tuple] = {}
    deadline = time.perf_counter() + args.seconds
    while len(plain) < max(1, wl.min_requests // 2) or time.perf_counter() < deadline:
        index = len(plain)
        plain.append(run_request(wl, pkg, checks, index, plain_sel))
        tracer.install(pkg)
        try:
            traced.append(run_request(wl, pkg, checks, index, traced_sel, tracer))
        finally:
            tracer.uninstall()
    n = len(plain)
    overhead = sum(traced) - sum(plain)
    layers = tracer.layer_metrics(n)
    layers["cli.import_s"] = import_s
    layers.update({f"checks.failed.{kind}": failed for kind, failed in checks.failed.items()})
    layers["trace.overhead_s"] = overhead / n
    layers["trace.overhead_frac"] = overhead / sum(plain)
    layers["trace.hash_mismatches"] = sum(plain_sel.get(k) != traced_sel.get(k) for k in plain_sel.keys() | traced_sel.keys())
    trace_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl")
    tracer.dump(trace_path)
    print(f"selection_hash untraced {selection_hash(plain_sel, wl.hashed_inputs)}")
    print(f"selection_hash traced   {selection_hash(traced_sel, wl.hashed_inputs)}")
    print(f"requests {n} per phase; untraced {sum(plain):.4f} s, traced {sum(traced):.4f} s; spans in {os.path.relpath(trace_path, ROOT)}")
    print("layer times and counts are per request; ratios, cli.import_s and checks.failed.* are per run")
    for name, (unit, moves) in LAYER_MAP.items():
        print(f"layer {name} = {layers[name]:.6g} {unit}; moves {moves}")
    print(result_line(checks, {name: (layers[name], unit) for name, (unit, _) in LAYER_MAP.items()}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one at a time; a summary line last."""
    from workloads import WORKLOADS

    results = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "markov_auction", "__init__.py")):
        print(f"error: no package source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
