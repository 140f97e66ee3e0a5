"""Command-line front end.

Instance files are JSON objects — ``{"slots": 2, "bidders": [{"id": "a",
"bid": 2.0, "ctr": 0.5, "cont": 0.75}, ...]}`` — or, with ``--format csv``,
a CSV table with header ``id,bid,ctr,cont`` (slots then come from
``--slots``).  String ids from the file are mapped to dense integers
internally and mapped back on output.

Only ``main`` loads the file, and only ``_emit`` writes records to stdout:
one sort-keyed JSON line of a result's fields, with ids mapped back.
Diagnostics go to stderr.  Exit codes: 0 success (also when the reader
closes stdout early), 2 invalid input, 3 instance too large for the
requested solver or a request (``--n``, ``--steps``) too large for memory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Any, Iterable, Sequence

import numpy as np

from .analysis import check_monotonicity, compare_gsp, sweep_bid
from .model import AuctionInstance, Bidder
from .optimizer import SizeLimitExceeded, solve
from .pricing import vcg_prices

__all__ = ["main", "load_instance", "random_instance", "SEED_ENV_VAR"]

SEED_ENV_VAR = "MARKOV_AUCTION_SEED"


class InputError(ValueError):
    """Any defect in an instance file or command arguments (exit code 2)."""


@dataclass
class NamedInstance:
    """An instance plus the file's string ids in row order; the dense
    bidder id of each is its row's index."""

    instance: AuctionInstance
    names: list[str]

    def dense(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"no bidder with id {name!r} in the instance") from None


# ---------------------------------------------------------------------------
# Instance loading
# ---------------------------------------------------------------------------


def _bidder(dense_id: int, name: str, where: str, bid: Any, ctr: Any, cont: Any) -> Bidder:
    """``Bidder(dense_id, bid, ctr, cont)``, with a field error naming the
    file's bidder and its row."""
    try:
        return Bidder(dense_id, bid, ctr, cont)
    except ValueError as exc:
        # Bidder's message reads "bidder <dense id>: <the rule broken>".
        raise InputError(f"bidder {name!r} ({where}): {str(exc).partition(': ')[2]}") from None


def _bidders(path: str, rows: Iterable[tuple[str, str, Any, Any, Any]]) -> tuple[list[Bidder], list[str]]:
    """The bidders of a file's ``(where, name, bid, ctr, cont)`` rows, with
    dense ids in row order, and their names in that order; names are unique."""
    dense: dict[str, int] = {}
    bidders: list[Bidder] = []
    for where, name, bid, ctr, cont in rows:
        if name in dense:
            raise InputError(f"{path}: bidder id {name!r} ({where}) appears more than once")
        bidders.append(_bidder(len(dense), name, where, bid, ctr, cont))
        dense[name] = len(dense)
    return bidders, list(dense)


def _csv_number(text: str) -> float | str:
    """``float(text)``, or the text itself, which ``Bidder`` rejects as no number."""
    try:
        return float(text)
    except ValueError:
        return text


def _load_json(path: str, slots_override: int | None) -> NamedInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError on arrays or objects nested too deep.
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    rows = doc.get("bidders")
    if not isinstance(rows, list):
        raise InputError(f"{path}: key 'bidders' must be a list")

    def file_rows() -> Iterable[tuple[str, str, Any, Any, Any]]:
        for entry, row in enumerate(rows):
            where = f"entry {entry}"
            if not isinstance(row, dict):
                raise InputError(f"{path}: bidder {where} must be an object, got {row!r}")
            if "id" not in row:
                raise InputError(f"{path}: bidder {where} is missing field 'id'")
            name = str(row["id"])
            for field in ("bid", "ctr", "cont"):
                if field not in row:
                    raise InputError(f"{path}: bidder {name!r} ({where}) is missing field {field!r}")
            yield where, name, row["bid"], row["ctr"], row["cont"]

    bidders, names = _bidders(path, file_rows())
    if slots_override is not None:
        slots = slots_override
    else:
        slots = doc.get("slots")
        if slots is None:
            raise InputError(f"{path}: key 'slots' is missing and --slots was not given")
        if isinstance(slots, bool) or not isinstance(slots, int) or slots < 1:
            raise InputError(f"{path}: 'slots' must be an integer >= 1, got {slots!r}")
    return NamedInstance(AuctionInstance(tuple(bidders), slots), names)


def _load_csv(path: str, slots_override: int | None) -> NamedInstance:
    if slots_override is None:
        raise InputError("--slots is required with --format csv (the table has no slots column)")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None or sorted(header) != ["bid", "cont", "ctr", "id"]:
                raise InputError(
                    f"{path}: CSV header must be exactly id,bid,ctr,cont, got {header!r}"
                )

            def file_rows() -> Iterable[tuple[str, str, Any, Any, Any]]:
                for line_no, row in enumerate(reader, start=2):
                    where = f"line {line_no}"
                    if row["id"] is None or any(row[f] is None for f in ("bid", "ctr", "cont")):
                        raise InputError(f"{path}: {where} has too few columns")
                    if None in row:
                        raise InputError(f"{path}: {where} has too many columns")
                    yield where, row["id"], *(_csv_number(row[field]) for field in ("bid", "ctr", "cont"))

            bidders, names = _bidders(path, file_rows())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        # An over-long field, or a NUL byte before Python 3.11.
        raise InputError(f"{path}: {exc}") from exc
    return NamedInstance(AuctionInstance(tuple(bidders), slots_override), names)


def load_instance(path: str, fmt: str = "json", slots_override: int | None = None) -> NamedInstance:
    """Parse an instance file; raises InputError on any defect."""
    if fmt == "json":
        return _load_json(path, slots_override)
    if fmt == "csv":
        return _load_csv(path, slots_override)
    raise InputError(f"unknown format {fmt!r}")


def random_instance(n: int, slots: int, seed: int) -> AuctionInstance:
    """Synthetic instance: bids log-uniform on [0.01, 10], ctr uniform on
    (0, 1], cont uniform on [0, 0.99]."""
    rng = np.random.default_rng(seed)
    bids = np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))
    ctrs = 1.0 - rng.random(n)
    conts = rng.uniform(0.0, 0.99, n)
    bidders = map(Bidder, range(n), bids.tolist(), ctrs.tolist(), conts.tolist())
    return AuctionInstance(tuple(bidders), slots)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


_ID_LISTS = ("order", "selected", "gsp_order", "optimal_order")


def _emit(kind: str, result: Any = None, named: NamedInstance | None = None, **extra: Any) -> None:
    """Write one record of type ``kind`` to stdout as a sort-keyed JSON
    line: the dataclass ``result``'s fields, with every dense id mapped to
    ``named``'s file name (``bidder_id`` becomes ``bidder``), plus ``extra``."""
    record = {} if result is None else {f.name: getattr(result, f.name) for f in fields(result)}
    if "bidder_id" in record:
        record["bidder"] = named.names[record.pop("bidder_id")]
    for key in _ID_LISTS:
        if key in record:
            record[key] = [named.names[i] for i in record[key]]
    record.update(extra, type=kind)
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _cmd_assign(ns: argparse.Namespace, named: NamedInstance) -> None:
    slate = solve(named.instance, method=ns.solver)
    _emit("assignment", slate, named, solver=ns.solver, slots=named.instance.slots)


def _cmd_price(ns: argparse.Namespace, named: NamedInstance) -> None:
    slate, schedule = vcg_prices(named.instance, solver=ns.solver)
    _emit("assignment", slate, named, solver=ns.solver, slots=named.instance.slots)
    for winner in schedule.winners:
        _emit("price", winner, named)


def _cmd_sweep(ns: argparse.Namespace, named: NamedInstance) -> None:
    if not (math.isfinite(ns.start) and math.isfinite(ns.stop)):
        raise InputError(f"bid grid bounds must be finite, got {ns.start} .. {ns.stop}")
    if ns.start < 0.0 or ns.stop < ns.start:
        raise InputError(f"bid grid must satisfy 0 <= from <= to, got {ns.start} .. {ns.stop}")
    dense = named.dense(ns.bidder)
    grid = [float(x) for x in np.linspace(ns.start, ns.stop, ns.steps)]
    swept = named.instance.bidders[dense]
    for bid in grid:
        _bidder(dense, ns.bidder, f"bid {bid!r}", bid, swept.ctr, swept.cont)
    report = sweep_bid(named.instance, dense, grid, solver=ns.solver)
    for point in report.points:
        _emit("sweep_point", point, named, bidder=ns.bidder)
    _emit("monotonicity", check_monotonicity(report), named, bidder=ns.bidder)


def _cmd_compare(ns: argparse.Namespace, named: NamedInstance) -> None:
    _emit("comparison", compare_gsp(named.instance, solver=ns.solver), named)


def _cmd_bench(ns: argparse.Namespace) -> None:
    seed = ns.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            seed = int(raw)
        except ValueError:
            raise InputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    inst = random_instance(ns.n, ns.k, seed)
    started = time.perf_counter()
    slate = solve(inst, method=ns.solver)
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256(",".join(str(i) for i in slate.order).encode()).hexdigest()
    sub_n = min(ns.n, 2000)
    sub = AuctionInstance(inst.bidders[:sub_n], inst.slots)
    checked = solve(sub, method=ns.solver)
    reference_name = "fast" if ns.solver == "dp" else "dp"
    reference = solve(sub, method=reference_name)
    diff = abs(checked.efficiency - reference.efficiency)
    cross_check = {
        "n": sub_n,
        "reference": reference_name,
        "reference_efficiency": reference.efficiency,
        "solver_efficiency": checked.efficiency,
        "abs_diff": diff,
        "within_tol": diff <= 1e-9,
    }
    _emit(
        "bench",
        n=ns.n,
        k=ns.k,
        seed=seed,
        solver=ns.solver,
        efficiency=slate.efficiency,
        selection_hash=digest,
        elapsed_s=elapsed,
        cross_check=cross_check,
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {raw}")
    return value


def _add_file_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="instance file")
    sub.add_argument("--format", choices=("json", "csv"), default="json", help="file format")
    sub.add_argument("--slots", type=_positive_int, default=None, help="override slot count")
    sub.add_argument("--solver", choices=("brute", "dp", "fast"), default="dp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-auction",
        description="Optimal slates, VCG prices, and diagnostics for cascade position auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assign", help="compute the optimal slate")
    _add_file_args(p)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("price", help="optimal slate plus VCG payments")
    _add_file_args(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("sweep", help="re-solve across a grid of bids for one bidder")
    _add_file_args(p)
    p.add_argument("--bidder", required=True, help="id of the bidder to sweep")
    p.add_argument("--from", dest="start", type=float, required=True, help="first bid")
    p.add_argument("--to", dest="stop", type=float, required=True, help="last bid")
    p.add_argument("--steps", type=_positive_int, default=50, help="number of grid points")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="ecpm ranking versus the optimizer")
    _add_file_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="time a solver on a synthetic instance")
    p.add_argument("--n", type=_positive_int, required=True, help="number of bidders")
    p.add_argument("--k", type=_positive_int, required=True, help="number of slots")
    p.add_argument("--seed", type=int, default=0, help=f"rng seed ({SEED_ENV_VAR} overrides)")
    p.add_argument("--solver", choices=("brute", "dp", "fast"), default="fast")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if "file" in ns:
            ns.func(ns, load_instance(ns.file, ns.format, ns.slots))
        else:
            ns.func(ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull, so the flush
        # at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (SizeLimitExceeded, MemoryError) as exc:  # numpy's MemoryError names the allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:  # InputError, UnknownBidder and any other library error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
