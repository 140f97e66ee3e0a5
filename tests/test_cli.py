"""End-to-end tests for the command-line front end.

Covers file parsing (JSON and CSV), the record stream each command emits,
exit codes for malformed input and oversized instances, the seed
environment override, and byte-for-byte determinism of repeated runs.
"""

import json
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from markov_auction import Bidder, evaluate
from markov_auction import analysis, cli
from markov_auction.cli import SEED_ENV_VAR, load_instance, main

PAGE_DOC = {
    "slots": 2,
    "bidders": [
        {"id": "a", "bid": 2.0, "ctr": 0.5, "cont": 0.75},
        {"id": "b", "bid": 4.0, "ctr": 0.5, "cont": 0.2},
        {"id": "c", "bid": 1.7, "ctr": 0.5, "cont": 0.8},
    ],
}

PAGE_CSV = "id,bid,ctr,cont\na,2.0,0.5,0.75\nb,4.0,0.5,0.2\nc,1.7,0.5,0.8\n"


@pytest.fixture
def page_file(tmp_path):
    path = tmp_path / "page.json"
    path.write_text(json.dumps(PAGE_DOC))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


class TestAssign:
    def test_json_instance(self, capsys, page_file):
        code, out, err = run(capsys, "assign", page_file)
        assert code == 0 and err == ""
        (rec,) = records(out)
        assert rec["type"] == "assignment"
        assert rec["order"] == ["a", "b"]
        assert rec["efficiency"] == pytest.approx(2.50, abs=1e-9)
        assert rec["click_probs"] == pytest.approx([0.5, 0.375])

    def test_csv_instance(self, capsys, tmp_path, page_file):
        path = tmp_path / "page.csv"
        path.write_text(PAGE_CSV)
        code, out, _ = run(capsys, "assign", str(path), "--format", "csv", "--slots", "2")
        assert code == 0
        _, json_out, _ = run(capsys, "assign", page_file)
        assert out == json_out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, fmt):
        # Spreadsheet exports start with a UTF-8 byte-order mark, which a
        # JSON parser may ignore (RFC 8259, section 8.1).
        text = json.dumps(PAGE_DOC) if fmt == "json" else PAGE_CSV
        plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        outs = [run(capsys, "assign", str(path), "--format", fmt, "--slots", "2") for path in (plain, marked)]
        assert outs[0][0] == 0 and outs[1] == outs[0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_crlf_line_ends_read_as_lf(self, capsys, tmp_path, fmt):
        # Files saved on Windows end each line with CRLF.
        text = json.dumps(PAGE_DOC, indent=1) if fmt == "json" else PAGE_CSV
        lf, crlf = tmp_path / f"lf.{fmt}", tmp_path / f"crlf.{fmt}"
        lf.write_bytes(text.encode("utf-8"))
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        outs = [run(capsys, "assign", str(path), "--format", fmt, "--slots", "2") for path in (lf, crlf)]
        assert outs[0][0] == 0 and outs[1] == outs[0]

    def test_integer_ids_print_as_decimal_text(self, capsys, tmp_path):
        doc = {"slots": 3, "bidders": [{**row, "id": i} for i, row in zip((10, 2, -3), PAGE_DOC["bidders"])]}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "assign", str(path))
        assert (code, err) == (0, "")
        (rec,) = records(out)
        assert rec["order"] == ["-3", "10", "2"]

    def test_slots_override(self, capsys, page_file):
        code, out, _ = run(capsys, "assign", page_file, "--slots", "3")
        assert code == 0
        (rec,) = records(out)
        assert rec["order"] == ["c", "a", "b"]
        assert rec["efficiency"] == pytest.approx(2.85, abs=1e-9)

    def test_every_solver_agrees(self, capsys, page_file):
        outs = {
            run(capsys, "assign", page_file, "--solver", s)[1].replace(f'"{s}"', '"X"')
            for s in ("brute", "dp", "fast")
        }
        assert len(outs) == 1

    def test_exact_round_trip(self, capsys, page_file):
        _, out, _ = run(capsys, "assign", page_file, "--slots", "3")
        (rec,) = records(out)
        named = load_instance(page_file, "json", 3)
        ordered = [named.instance.bidder(named.dense(n)) for n in rec["order"]]
        eff, _ = evaluate(ordered)
        assert eff == rec["efficiency"]


class TestPrice:
    def test_worked_payments(self, capsys, page_file):
        code, out, _ = run(capsys, "price", page_file)
        assert code == 0
        slate, first, second = records(out)
        assert slate["type"] == "assignment" and slate["order"] == ["a", "b"]
        assert first["type"] == second["type"] == "price"
        assert first["bidder"] == "a"
        assert first["expected_payment"] == pytest.approx(0.95, abs=1e-9)
        assert first["per_click_price"] == pytest.approx(1.9, abs=1e-9)
        assert second["bidder"] == "b"
        assert second["expected_payment"] == pytest.approx(0.65, abs=1e-9)
        assert second["utility"] == pytest.approx(1.5 - 0.65, abs=1e-9)

    def test_winner_above_zero_continuation(self, capsys, tmp_path):
        doc = {"slots": 3, "bidders": [
            {"id": "stop", "bid": 4.0, "ctr": 1.0, "cont": 0.0},
            {"id": "below", "bid": 2.0, "ctr": 0.5, "cont": 0.5},
        ]}
        path = tmp_path / "stop.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "price", str(path))
        assert code == 0 and err == ""
        slate, price = records(out)
        assert slate["order"] == ["stop"] and slate["click_probs"] == [1.0]
        assert price["bidder"] == "stop" and price["expected_payment"] == 1.0

    @pytest.mark.parametrize(
        "slots, rows",
        [
            # Unclamped, b1 would pay 0.9000000000000001 per click on a bid of 0.9.
            (1, [(0.9, 0.6, 0.6), (0.9, 0.6, 0.3)]),
            # Unclamped, b2 would pay -5.551115123125783e-17.
            (3, [(0.8, 0.3, 0.2), (0.4, 0.3, 0.9), (0.1, 0.9, 0.7)]),
        ],
        ids=["per-click-above-bid", "payment-below-zero"],
    )
    def test_payments_stay_in_vcg_range(self, capsys, tmp_path, slots, rows):
        bidders = [{"id": f"b{i}", "bid": b, "ctr": c, "cont": q} for i, (b, c, q) in enumerate(rows)]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"slots": slots, "bidders": bidders}))
        code, out, _ = run(capsys, "price", str(path))
        assert code == 0
        bids = {row["id"]: row["bid"] for row in bidders}
        for price in records(out)[1:]:
            assert 0.0 <= price["expected_payment"] <= price["value"]
            assert 0.0 <= price["per_click_price"] <= bids[price["bidder"]]

    def test_zero_click_winner_names_the_file_bidder(self, capsys, tmp_path):
        # Two conts of 1e-300 above b5 underflow its reach to 0.0, and dp
        # still places it, so VCG cannot price it per click.  The error
        # names the file's bidder, not its row index.
        rows = [(5e-324, 0.1, 0.0), (1e150, 0.1, 1e-300), (1e-300, 5e-324, 0.1),
                (5e-324, 1e-9, 0.1), (1e12, 1e-9, 1e-300), (1e-300, 1.0, 0.1)]
        bidders = [{"id": f"b{i}", "bid": b, "ctr": c, "cont": q} for i, (b, c, q) in enumerate(rows)]
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps({"slots": 4, "bidders": bidders}))
        code, out, err = run(capsys, "assign", str(path))
        assert code == 0 and records(out)[0]["click_probs"] == [0.1, 1e-309, 0.0]
        code, out, err = run(capsys, "price", str(path))
        assert code == 2 and out == ""
        assert err == "error: winner 'b5' has zero click probability\n"


class TestSweep:
    def test_points_and_verdict(self, capsys, page_file):
        code, out, _ = run(
            capsys, "sweep", page_file, "--bidder", "c",
            "--from", "0", "--to", "12", "--steps", "5",
        )
        assert code == 0
        recs = records(out)
        assert [r["type"] for r in recs] == ["sweep_point"] * 5 + ["monotonicity"]
        assert [r["bid"] for r in recs[:5]] == [0.0, 3.0, 6.0, 9.0, 12.0]
        assert recs[0]["position"] == 0 and recs[0]["click_prob"] == 0.0
        assert recs[4]["position"] == 1 and recs[4]["selected"][0] == "c"
        assert recs[5]["passed"] is True and recs[5]["first_violation"] is None

    def test_each_point_is_written_once_solved(self, monkeypatch, page_file):
        # The first record reaches stdout after one slate solve, not after
        # the whole grid, and the verdict follows the last point.
        solves, written = [], []
        solve = analysis.solve

        def counting(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        class Stdout:
            def write(self, text):
                written.append((len(solves), text))

            def flush(self):
                pass

        monkeypatch.setattr(analysis, "solve", counting)
        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["sweep", page_file, "--bidder", "c", "--from", "0", "--to", "12", "--steps", "5"]) == 0
        assert [n for n, _ in written] == [1, 2, 3, 4, 5, 5]
        assert [json.loads(text)["type"] for _, text in written] == ["sweep_point"] * 5 + ["monotonicity"]

    def test_unknown_bidder_exits_2(self, capsys, page_file):
        code, _, err = run(capsys, "sweep", page_file, "--bidder", "zz",
                           "--from", "0", "--to", "1")
        assert code == 2 and "zz" in err

    def test_bad_grid_exits_2(self, capsys, page_file):
        code, _, err = run(capsys, "sweep", page_file, "--bidder", "a",
                           "--from", "5", "--to", "1")
        assert code == 2 and "0 <= from <= to" in err

    @pytest.mark.parametrize("bounds", [("nan", "1"), ("0", "inf")], ids=["nan-from", "inf-to"])
    def test_non_finite_grid_exits_2(self, capsys, page_file, bounds):
        code, out, err = run(capsys, "sweep", page_file, "--bidder", "a",
                             "--from", bounds[0], "--to", bounds[1])
        assert code == 2 and out == "" and "must be finite" in err

    def test_grid_point_breaking_a_rule_names_the_file_bidder(self, capsys, tmp_path):
        # At bid 1e308, g's adjusted ecpm 0.5 * 1e308 / 0.2 overflows.
        doc = {"slots": 2, "bidders": [PAGE_DOC["bidders"][0], {"id": "g", "bid": 1.0, "ctr": 0.5, "cont": 0.8}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", str(path), "--bidder", "g", "--from", "0", "--to", "1e308", "--steps", "3")
        assert (code, out) == (2, "")
        assert err == "error: bidder 'g' (bid 1e+308): adjusted ecpm ctr * bid / (1 - cont) must be finite\n"

    def test_zero_steps_is_a_usage_error(self, capsys, page_file):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", page_file, "--bidder", "a", "--from", "0", "--to", "1", "--steps", "0"])
        assert exc.value.code == 2
        assert "--steps" in capsys.readouterr().err


class TestCompare:
    def test_worked_ratio(self, capsys, page_file):
        code, out, _ = run(capsys, "compare", page_file)
        assert code == 0
        (rec,) = records(out)
        assert rec["gsp_order"] == ["b", "a"]
        assert rec["optimal_order"] == ["a", "b"]
        assert rec["efficiency_ratio"] == pytest.approx(0.88, abs=1e-9)


SWEEP_GAMMA = ("--bidder", "gamma", "--from", "0", "--to", "12", "--steps", "4")


class TestSolverAndSlotFlags:
    @pytest.mark.parametrize(
        "args",
        [("compare",), ("compare", "--slots", "3"), ("sweep", *SWEEP_GAMMA), ("sweep", "--slots", "3", *SWEEP_GAMMA)],
        ids=["compare", "compare-3-slots", "sweep", "sweep-3-slots"],
    )
    def test_fast_agrees_with_dp_on_the_readme_page(self, capsys, tmp_path, args):
        path = tmp_path / "page.json"
        path.write_text(README_PAGE, encoding="utf-8")
        argv = [args[0], str(path), *args[1:]]
        dp = run(capsys, *argv, "--solver", "dp")
        assert dp[0] == 0
        assert run(capsys, *argv, "--solver", "fast") == dp
        assert run(capsys, *argv) == dp

    def test_sweep_slots_override(self, capsys, tmp_path):
        path = tmp_path / "page.json"
        path.write_text(README_PAGE, encoding="utf-8")
        code, out, _ = run(capsys, "sweep", str(path), "--slots", "3", *SWEEP_GAMMA)
        assert code == 0
        assert [len(r["selected"]) for r in records(out)[:4]] == [2, 3, 3, 3]


class TestBench:
    def test_record_shape_and_cross_check(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "50", "--k", "5", "--seed", "3")
        assert code == 0
        (rec,) = records(out)
        assert rec["type"] == "bench" and rec["seed"] == 3
        assert set(rec) == {
            "type", "n", "k", "seed", "solver", "efficiency", "selection_hash", "elapsed_s", "cross_check",
        }
        assert set(rec["cross_check"]) == {
            "n", "reference", "reference_efficiency", "solver_efficiency", "abs_diff", "within_tol",
        }
        assert rec["n"] == 50 and rec["k"] == 5
        assert len(rec["selection_hash"]) == 64
        assert rec["cross_check"]["within_tol"] is True
        assert rec["cross_check"]["reference"] == "dp"

    def test_dp_is_cross_checked_against_fast(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "50", "--k", "5", "--seed", "3", "--solver", "dp")
        assert code == 0
        (rec,) = records(out)
        assert rec["cross_check"]["reference"] == "fast"
        assert rec["cross_check"]["within_tol"] is True

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        _, plain, _ = run(capsys, "bench", "--n", "40", "--k", "4", "--seed", "7")
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        _, via_env, _ = run(capsys, "bench", "--n", "40", "--k", "4", "--seed", "0")
        a, b = records(plain)[0], records(via_env)[0]
        assert b["seed"] == 7
        assert b["selection_hash"] == a["selection_hash"]
        assert b["efficiency"] == a["efficiency"]

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, _, err = run(capsys, "bench", "--n", "10", "--k", "2")
        assert code == 2 and SEED_ENV_VAR in err

    def test_deterministic_apart_from_timing(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        runs = []
        for _ in range(2):
            _, out, _ = run(capsys, "bench", "--n", "60", "--k", "6", "--seed", "11")
            (rec,) = records(out)
            rec.pop("elapsed_s")
            runs.append(rec)
        assert runs[0] == runs[1]


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "assign", "/nonexistent/nope.json")
        assert code == 2 and out == "" and "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "assign", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_duplicate_id(self, capsys, tmp_path):
        doc = {"slots": 1, "bidders": [
            {"id": "x", "bid": 1.0, "ctr": 0.5, "cont": 0.5},
            {"id": "x", "bid": 2.0, "ctr": 0.5, "cont": 0.5},
        ]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "assign", str(path))
        assert code == 2 and "appears more than once" in err

    def test_out_of_range_field_names_the_bidder(self, capsys, tmp_path):
        doc = {"slots": 1, "bidders": [
            {"id": "ok", "bid": 1.0, "ctr": 0.5, "cont": 0.5},
            {"id": "bad", "bid": 1.0, "ctr": 1.5, "cont": 0.5},
        ]}
        path = tmp_path / "range.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "assign", str(path))
        assert code == 2
        assert "bidder 'bad' (entry 1)" in err and "'ctr'" in err and "(0.0, 1.0]" in err

    def test_missing_field(self, capsys, tmp_path):
        doc = {"slots": 1, "bidders": [{"id": "x", "bid": 1.0, "ctr": 0.5}]}
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "assign", str(path))
        assert code == 2 and "missing field 'cont'" in err

    def test_missing_slots_key(self, capsys, tmp_path):
        path = tmp_path / "noslots.json"
        path.write_text(json.dumps({"bidders": PAGE_DOC["bidders"]}))
        code, _, err = run(capsys, "assign", str(path))
        assert code == 2 and "slots" in err

    def test_csv_requires_slots_flag(self, capsys, tmp_path):
        path = tmp_path / "page.csv"
        path.write_text(PAGE_CSV)
        code, _, err = run(capsys, "assign", str(path), "--format", "csv")
        assert code == 2 and "--slots is required" in err

    def test_csv_bad_header(self, capsys, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,bid,rate,cont\na,1.0,0.5,0.5\n")
        code, _, err = run(capsys, "assign", str(path), "--format", "csv", "--slots", "1")
        assert code == 2 and "header" in err

    def test_csv_non_numeric_field(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,bid,ctr,cont\na,cheap,0.5,0.5\n")
        code, _, err = run(capsys, "assign", str(path), "--format", "csv", "--slots", "1")
        assert code == 2 and "bidder 'a' (line 2)" in err


# One bad bidder, written as a JSON value and as CSV text, and what the
# error must say about it; the rest of the row is valid.
BID = "'bid' must be a number in [0.0, inf)"
CTR = "'ctr' must be a number in (0.0, 1.0]"
CONT = "'cont' must be a number in [0.0, 1.0)"
BAD_FIELDS = [
    ("bool", {"bid": True}, {"bid": "true"}, BID),
    ("string", {"ctr": "0.5"}, {"ctr": "half"}, CTR),
    ("null", {"cont": None}, {"cont": ""}, CONT),
    ("400-digit-int", {"bid": 10**400}, {"bid": "1" + "0" * 400}, BID),
    ("nan", {"bid": float("nan")}, {"bid": "nan"}, BID),
    ("inf", {"ctr": float("inf")}, {"ctr": "inf"}, CTR),
    ("bid-below", {"bid": -5e-324}, {"bid": "-5e-324"}, BID),
    ("ctr-zero", {"ctr": 0.0}, {"ctr": "0"}, CTR),
    ("ctr-above", {"ctr": 1.0000000000000002}, {"ctr": "1.0000000000000002"}, CTR),
    ("cont-below", {"cont": -5e-324}, {"cont": "-5e-324"}, CONT),
    ("cont-one", {"cont": 1}, {"cont": "1"}, CONT),
    (
        "adjusted-ecpm-overflow",
        {"bid": 1.7e308, "ctr": 1, "cont": 0.9},
        {"bid": "1.7e308", "ctr": "1", "cont": "0.9"},
        "adjusted ecpm ctr * bid / (1 - cont) must be finite",
    ),
]

COMMANDS = [
    ("assign",),
    ("price",),
    ("compare",),
    ("sweep", "--bidder", "ok", "--from", "0", "--to", "1", "--steps", "2"),
]


class TestBadFieldTable:
    """Every field defect exits 2 with one error line naming the file's
    bidder and row, from every command and both formats."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("case, json_fields, csv_fields, message", BAD_FIELDS, ids=[c[0] for c in BAD_FIELDS])
    def test_exits_2_naming_the_bidder(self, capsys, tmp_path, fmt, case, json_fields, csv_fields, message):
        good = {"id": "ok", "bid": 2.0, "ctr": 0.5, "cont": 0.5}
        if fmt == "json":
            bad = {**good, "id": "bad", **json_fields}
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"slots": 3, "bidders": [good, bad]}))
            where, extra = "(entry 1)", ()
        else:
            bad = {**{k: str(v) for k, v in good.items()}, "id": "bad", **csv_fields}
            rows = [",".join(str(r[k]) for k in ("id", "bid", "ctr", "cont")) for r in (good, bad)]
            path = tmp_path / "bad.csv"
            path.write_text("id,bid,ctr,cont\n" + "\n".join(rows) + "\n")
            where, extra = "(line 3)", ("--format", "csv", "--slots", "3")
        for command, *rest in COMMANDS:
            code, out, err = run(capsys, command, str(path), *extra, *rest)
            assert (code, out) == (2, ""), (command, err)
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert f"bidder 'bad' {where}" in err and message in err
            assert "Traceback" not in err


# Defects of a whole file, or of a row's shape, with the format, the
# file's bytes and the error that must follow "error: ".
BAD_FILES = [
    ("json-top-level-list", "json", b"[]", "{path}: top level must be a JSON object"),
    ("json-bidders-not-list", "json", b'{"slots": 1, "bidders": {}}', "{path}: key 'bidders' must be a list"),
    ("json-entry-not-object", "json", b'{"slots": 1, "bidders": [3]}', "{path}: bidder entry 0 must be an object, got 3"),
    (
        "json-missing-id",
        "json",
        b'{"slots": 1, "bidders": [{"bid": 1, "ctr": 0.5, "cont": 0}]}',
        "{path}: bidder entry 0 is missing field 'id'",
    ),
    (
        "json-id-null",
        "json",
        b'{"slots": 1, "bidders": [{"id": null, "bid": 1, "ctr": 0.5, "cont": 0}]}',
        "{path}: bidder entry 0: 'id' must be a string or an integer, got None",
    ),
    (
        "json-id-bool",
        "json",
        b'{"slots": 1, "bidders": [{"id": true, "bid": 1, "ctr": 0.5, "cont": 0}]}',
        "{path}: bidder entry 0: 'id' must be a string or an integer, got True",
    ),
    (
        "json-id-float",
        "json",
        b'{"slots": 1, "bidders": [{"id": 1.5, "bid": 1, "ctr": 0.5, "cont": 0}]}',
        "{path}: bidder entry 0: 'id' must be a string or an integer, got 1.5",
    ),
    (
        "json-id-list",
        "json",
        b'{"slots": 1, "bidders": [{"id": [1], "bid": 1, "ctr": 0.5, "cont": 0}]}',
        "{path}: bidder entry 0: 'id' must be a string or an integer, got [1]",
    ),
    ("json-slots-zero", "json", b'{"slots": 0, "bidders": []}', "{path}: 'slots' must be an integer >= 1, got 0"),
    ("json-slots-bool", "json", b'{"slots": true, "bidders": []}', "{path}: 'slots' must be an integer >= 1, got True"),
    ("json-slots-float", "json", b'{"slots": 2.0, "bidders": []}', "{path}: 'slots' must be an integer >= 1, got 2.0"),
    (
        # Read with universal newlines, each CRLF counts as one character.
        "json-crlf-syntax-error",
        "json",
        b'{"slots": 2,\r\n "bidders": [\r\n{"id": "a", "bid": 2.0, "ctr": 0.5, "cont": 0.75},\r\n'
        b' {"id": "b" "bid": 4.0, "ctr": 0.5, "cont": 0.2}\r\n]}\r\n',
        "{path} is not valid JSON: Expecting ',' delimiter: line 4 column 13 (char 90)",
    ),
    ("json-not-utf8", "json", b"\xff\xfe\x00", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
    (
        "json-nested-too-deep",
        "json",
        b'{"slots": 1, "bidders": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        "{path}: JSON exceeds this reader's limits: maximum recursion depth exceeded",
    ),
    (
        # One digit over Python's limit for converting a string to an int.
        "json-id-over-digit-limit",
        "json",
        b'{"slots": 1, "bidders": [{"id": 1' + b"0" * sys.get_int_max_str_digits() + b', "bid": 1, "ctr": 0.5, "cont": 0}]}',
        "{path}: JSON exceeds this reader's limits: Exceeds the limit",
    ),
    (
        "json-bid-over-digit-limit",
        "json",
        b'{"slots": 1, "bidders": [{"id": "a", "bid": 1' + b"0" * sys.get_int_max_str_digits() + b', "ctr": 0.5, "cont": 0}]}',
        "{path}: JSON exceeds this reader's limits: Exceeds the limit",
    ),
    ("csv-too-few-columns", "csv", b"id,bid,ctr,cont\na,1,0.5\n", "{path}: line 2 has too few columns"),
    ("csv-too-many-columns", "csv", b"id,bid,ctr,cont\na,1,0.5,0.5,9\n", "{path}: line 2 has too many columns"),
    ("csv-not-utf8", "csv", b"\xff\xfe\x00", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
    (
        "csv-field-too-large",
        "csv",
        b"id,bid,ctr,cont\na," + b"1" * 131073 + b",0.5,0.5\n",
        "{path}: field larger than field limit (131072)",
    ),
]


class TestBadFileTable:
    @pytest.mark.parametrize("case, fmt, content, message", BAD_FILES, ids=[c[0] for c in BAD_FILES])
    def test_exits_2_naming_the_file(self, capsys, tmp_path, case, fmt, content, message):
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(content)
        extra = ("--format", "csv", "--slots", "1") if fmt == "csv" else ()
        code, out, err = run(capsys, "assign", str(path), *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message.format(path=path))
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b"id,bid,ctr,cont\na,1\x00,0.5,0.5\n", b"id,bid\x00,ctr,cont\na,1,0.5,0.5\n"],
        ids=["in-a-row", "in-the-header"],
    )
    def test_csv_nul_byte_exits_2(self, capsys, tmp_path, content):
        # Python 3.10's csv rejects the line; later versions read the NUL
        # into the field, which the loader then rejects.
        path = tmp_path / "nul.csv"
        path.write_bytes(content)
        code, out, err = run(capsys, "assign", str(path), "--format", "csv", "--slots", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreadable_csv_file(self, capsys, tmp_path):
        path = tmp_path / "absent.csv"
        code, out, err = run(capsys, "assign", str(path), "--format", "csv", "--slots", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")

    def test_unknown_format(self, page_file):
        with pytest.raises(cli.InputError, match="unknown format 'xml'"):
            load_instance(page_file, fmt="xml")

    @pytest.mark.parametrize("override", [0, True, "3", 2.0])
    def test_bad_slot_override(self, page_file, override):
        # The override meets the check a file's slots meet; the CLI's
        # --slots type rejects these values before the loader sees them.
        with pytest.raises(cli.InputError, match=r"'slots' must be an integer >= 1, got "):
            load_instance(page_file, "json", override)


class TestSizeLimit:
    def test_brute_guard_exits_3(self, capsys, tmp_path):
        doc = {"slots": 2, "bidders": [
            {"id": f"b{i}", "bid": 1.0 + i, "ctr": 0.5, "cont": 0.5}
            for i in range(23)
        ]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "assign", str(path), "--solver", "brute")
        assert code == 3 and out == "" and "error:" in err

    def test_price_brute_guard_exits_3(self, capsys, tmp_path):
        # Pricing prunes before it solves; the guard still sees all 30.
        doc = {"slots": 2, "bidders": [
            {"id": f"b{i}", "bid": 1.0 + i, "ctr": 0.5, "cont": 0.5}
            for i in range(30)
        ]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "price", str(path), "--solver", "brute")
        assert code == 3 and out == "" and "error:" in err


    def test_sweep_brute_guard_exits_3_before_any_record(self, capsys, tmp_path):
        doc = {"slots": 2, "bidders": [
            {"id": f"b{i}", "bid": 1.0 + i, "ctr": 0.5, "cont": 0.5}
            for i in range(30)
        ]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", str(path), "--bidder", "b0", "--from", "0", "--to", "1", "--solver", "brute")
        assert code == 3 and out == "" and "error:" in err

    def test_compare_brute_guard_exits_3(self, capsys, tmp_path):
        doc = {"slots": 2, "bidders": [
            {"id": f"b{i}", "bid": 1.0 + i, "ctr": 0.5, "cont": 0.5}
            for i in range(30)
        ]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compare", str(path), "--solver", "brute")
        assert code == 3 and out == "" and "error:" in err

    # 10**15 float64 values take 7.1 PiB, an allocation that fails at once.
    @pytest.mark.parametrize("args", (
        ("sweep", "{page}", "--bidder", "a", "--from", "0", "--to", "1", "--steps", str(10**15)),
        ("bench", "--n", str(10**15), "--k", "3"),
    ), ids=("sweep-steps", "bench-n"))
    def test_request_beyond_memory_exits_3(self, capsys, page_file, args):
        code, out, err = run(capsys, *(arg.format(page=page_file) for arg in args))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestLibraryErrors:
    def test_value_error_exits_2(self, capsys, monkeypatch, page_file):
        def fail(*args, **kwargs):
            raise ValueError("the library refused the instance")

        monkeypatch.setattr(cli, "vcg_prices", fail)
        code, out, err = run(capsys, "price", page_file)
        assert code == 2 and out == ""
        assert err == "error: the library refused the instance\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("assign", "--slots", "3"),
            ("price",),
            ("compare",),
            ("sweep", "--bidder", "c", "--from", "0", "--to", "12", "--steps", "7"),
        ],
        ids=["assign", "price", "compare", "sweep"],
    )
    def test_repeated_runs_are_byte_identical(self, capsys, page_file, args):
        first = run(capsys, args[0], page_file, *args[1:])
        second = run(capsys, args[0], page_file, *args[1:])
        assert first == second
        assert first[0] == 0


def readme_examples():
    """The page file and the ``(argv, stdout)`` examples of README.md's
    command-line section, with its ``bench`` example apart for its
    ``elapsed_s``."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = section.split("\n## Command line\n", 1)[1]
    console = section.split("```console\n", 1)[1].split("```", 1)[0]
    page = section.split("```json\n", 1)[1].split("```", 1)[0]
    examples, bench = [], None
    for chunk in console.split("$ markov-auction ")[1:]:
        command, _, stdout = chunk.partition("\n")
        argv, stdout = shlex.split(command), stdout.rstrip("\n") + "\n"
        if argv[0] == "bench":
            bench = argv, stdout
        else:
            examples.append(pytest.param(argv, stdout, id=command))
    return page, examples, bench


README_PAGE, README_EXAMPLES, README_BENCH = readme_examples()


class TestReadmeExamples:
    @pytest.mark.parametrize("argv, expected", README_EXAMPLES)
    def test_output_matches_readme(self, capsys, tmp_path, monkeypatch, argv, expected):
        (tmp_path / "page.json").write_text(README_PAGE, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (0, expected, "")

    def test_bench_matches_readme_but_for_its_time(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        argv, expected = README_BENCH
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        got, want = json.loads(out), json.loads(expected)
        del got["elapsed_s"], want["elapsed_s"]
        assert got == want

    def test_every_command_but_bench_is_shown(self):
        shown = {argv[0] for argv in (p.values[0] for p in README_EXAMPLES)}
        assert shown == {"assign", "price", "compare", "sweep"}
        assert len(README_EXAMPLES) == 5


class TestSubprocess:
    def test_module_entry_point(self, capsys, page_file):
        result = subprocess.run(
            [sys.executable, "-m", "markov_auction", "assign", page_file],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        _, in_process, _ = run(capsys, "assign", page_file)
        assert result.stdout == in_process

    def test_module_entry_point_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = subprocess.run(
            [sys.executable, "-m", "markov_auction", "assign", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(f"error: {path} is not valid JSON")

    def test_closed_stdout_exits_0_silently(self, page_file):
        # The reader takes one record and closes the pipe while the sweep
        # still has megabytes to write.
        argv = ["sweep", page_file, "--bidder", "c", "--from", "0", "--to", "12", "--steps", "20000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "markov_auction", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            assert proc.stdout.readline().startswith(b'{"bid": 0.0')
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (0, b"")

    def test_module_entry_point_in_process(self, capsys, monkeypatch, page_file):
        monkeypatch.setattr(sys, "argv", ["markov_auction", "assign", page_file])
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("markov_auction", run_name="__main__")
        assert exited.value.code == 0
        assert records(capsys.readouterr().out)[0]["order"] == ["a", "b"]
