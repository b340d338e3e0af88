import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from billzeta import cli
from billzeta.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SLOPE,
    EXIT_VALIDATION,
    OPTIONS,
    ROUTES,
    load_config,
    main,
    parse_args,
)
from billzeta.errors import ConfigError
from billzeta.sumrules import RationalOrderSpec


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    # coeffs writes its files into the working directory by default
    monkeypatch.chdir(tmp_path)


def write_config(tmp_path, **overrides):
    cfg = {
        "version": 1,
        "basis": {"kind": "string", "length": 1.0},
        "density": {
            "profile": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]},
            "lambda": 0.1,
        },
        "truncation": {"modes": 60},
        "orders": ["3/2"],
        "route": "all",
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


# a rectangle table: dense
RECT_BASIS = {"kind": "rectangle", "a": 1.0, "b": 1.0}
SRC = str(Path(__file__).resolve().parents[1] / "src")
COS = {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]}
COS_2D_DENSITY = {"profile": {"type": "separable", "terms": [{"x": COS, "y": COS}]}, "lambda": 0.1}
RECT_DENSITY = {
    "profile": {"type": "separable", "terms": [{
        "x": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]},
        "y": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]},
    }]},
    "lambda": 0.1,
}


# a sumrule record's CSV columns, in order, and its JSON keys: the second-order terms and their sum
RECORD_FIELDS = ["route", "order_label", "s", "lam", "z0", "z1", "z2", "z_total", "tail_estimate", "truncation"]


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_sumrule_all_routes_homogeneous(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        density={"profile": {"type": "fourier-cosine", "coeffs": []}, "lambda": 0.0},
        output={"format": "csv", "path": str(tmp_path / "out.csv")},
    )
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_OK
    rows = read_csv(tmp_path / "out.csv")
    routes = {r["route"] for r in rows}
    assert routes == {"closed-form", "trace-one-plus-inv", "oracle"}
    totals = {r["route"]: float(r["z_total"]) for r in rows}
    tails = {r["route"]: float(r["tail_estimate"]) for r in rows}
    for a in totals:
        for b in totals:
            assert abs(totals[a] - totals[b]) <= 2 * (tails[a] + tails[b])


def test_sumrule_direct_flags(tmp_path):
    out = tmp_path / "res.csv"
    rc = main(
        ["sumrule", "--s", "3/2", "--lambda", "0.1", "--route", "closed",
         "--modes", "60", "--out", str(out)]
    )
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == RECORD_FIELDS
    assert row["order_label"] == "1+1/2"
    assert float(row["z0"]) != 0.0 and float(row["z1"]) != 0.0
    assert float(row["z2"]) != 0.0
    assert float(row["z_total"]) == float(row["z0"]) + float(row["z1"]) + float(row["z2"])


def test_sumrule_json_output_with_differences(tmp_path):
    cfg = write_config(tmp_path, output={"format": "json", "path": str(tmp_path / "o.json")})
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_OK
    doc = json.loads((tmp_path / "o.json").read_text())
    assert {r["route"] for r in doc["results"]} == {
        "closed-form", "trace-one-plus-inv", "oracle",
    }
    assert all(sorted(r) == sorted(RECORD_FIELDS) for r in doc["results"])
    assert doc["differences"]
    pair_diffs = {d["pair"]: d["abs_difference"] for d in doc["differences"]}
    assert pair_diffs["closed-vs-trace1"] < 1e-12


@pytest.mark.parametrize("profile, lam", [
    (COS, "0"), ({"type": "fourier-cosine", "coeffs": []}, "-0.1"),
], ids=["zero-lambda", "zero-profile"])
def test_sumrule_csv_writes_no_negative_zero(tmp_path, capsys, profile, lam):
    # every zero term is +0.0 on every route: lam * 0.0 with a negative factor is -0.0, which
    # the trace routes printed as -0 for z1 and z2
    cfg = write_config(tmp_path, density={"profile": profile}, orders=["1+1/2", "1/2+1/3"])
    assert main(["sumrule", "--config", str(cfg), "--modes", "40", "--lambda", lam]) == EXIT_OK
    records = capsys.readouterr().out.split("pairwise")[0]
    rows = list(csv.DictReader(io.StringIO(records)))
    assert len(rows) == 6 and {row["z1"] for row in rows} == {"0"}
    assert all("-0" not in row.values() for row in rows)


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["sumrule", "--config", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "validation"


def test_unknown_keys_and_multiple_violations_reported_once(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        orders=["0.9"],
        density={
            "profile": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]},
            "lambda": 1.5,
        },
        extra_key=42,
    )
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().err.strip())
    text = " ".join(doc["problems"])
    assert "extra_key" in text
    assert "0.9" in text
    assert "lambda=1.5" in text
    # cache_dir is no config key: rejected like any other unknown key
    cfg = write_config(tmp_path, cache_dir=str(tmp_path / "dir"))
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION
    assert "cache_dir" in " ".join(problems_on_stderr(capsys))


def test_route_order_mismatch_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, route="trace2")  # 3/2 is not 1/N + 1/N'
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION


def test_a_command_checks_only_the_values_it_reads(tmp_path, capsys):
    # spectrum and coeffs read no order and no route, coeffs no lambda, verify no route
    rect = write_config(tmp_path, basis={"kind": "rectangle", "a": 1.0, "b": 1.3}, density=COS_2D_DENSITY)
    for argv in (
        ["spectrum", "--route", "trace2", "--modes", "5", "--lambda", "0.1"],
        ["verify", "--route", "trace2", "--modes", "40", "--lambda", "0.04,0.08,0.16"],
        ["coeffs", "--route", "trace2", "--modes", "4"],
        ["coeffs", "--lambda", "2", "--modes", "4"],
        ["spectrum", "--config", str(rect), "--s", "1/2+1/3", "--modes", "6"],
        ["coeffs", "--config", str(rect), "--s", "1/2+1/3", "--modes", "6"],
    ):
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    # a value that is no number is still a problem, and the commands that read a value check it
    for argv, problem in (
        (["coeffs", "--lambda", "abc", "--modes", "4"], "--lambda[0]: expected a finite number, got 'abc'"),
        (["sumrule", "--route", "trace2", "--modes", "5"], "order 1+1/2: route trace2 needs a 1/N+1/N' order"),
        (["verify", "--config", str(rect), "--s", "1/2+1/3", "--modes", "6", "--lambda", "0.01,0.02,0.03"],
         "order 1/2+1/3: s = 0.8333333333333334 diverges on a 2D rectangle (needs s > 1)"),
        (["spectrum", "--lambda", "2", "--modes", "4"],
         "lambda=2: density bound violated: sup|lambda*sigma| = 2, needs < 1"),
    ):
        assert main(argv) == EXIT_VALIDATION, argv
        assert problems_on_stderr(capsys) == [problem]


def test_coeffs_file_count_and_zero_profile(tmp_path):
    out = tmp_path / "coeffs"
    rc = main(
        ["coeffs", "--n-root", "2", "--max-order", "8", "--modes", "10",
         "--lambda", "0.1", "--out", str(out)]
    )
    assert rc == EXIT_OK
    files = sorted(out.glob("q_N2_order*.csv"))
    assert len(files) == 9
    summary = json.loads((out / "residuals_N2.json").read_text())
    assert len(summary["orders"]) == 9
    assert all("convolution_residual" in o for o in summary["orders"])

    cfg = write_config(
        tmp_path,
        density={"profile": {"type": "fourier-cosine", "coeffs": []}, "lambda": 0.0},
        truncation={"modes": 8},
    )
    out2 = tmp_path / "zero"
    assert main(["coeffs", "--config", str(cfg), "--max-order", "2", "--out", str(out2)]) == EXIT_OK
    for k in (1, 2):
        rows = read_csv(out2 / f"q_N2_order{k}.csv")
        assert all(float(r["value"]) == 0.0 for r in rows)


def test_coeffs_matches_closed_form_route(tmp_path):
    out = tmp_path / "n3"
    assert main(
        ["coeffs", "--n-root", "3", "--max-order", "2", "--modes", "12",
         "--lambda", "0.1", "--out", str(out)]
    ) == EXIT_OK
    from billzeta.basis import FourierCosine, ModeBasis, String1D, build_sigma_table
    from reference import q_closed_form

    basis = ModeBasis(String1D(1.0), 12)
    table = build_sigma_table(basis, FourierCosine((0.0, 0.0, 1.0)), 2)
    expected = q_closed_form(3, 2, table)
    rows = read_csv(out / "q_N3_order2.csv")
    got = np.zeros((12, 12))
    for r in rows:
        got[int(r["row"]) - 1, int(r["col"]) - 1] = float(r["value"])
    assert np.max(np.abs(got - expected)) < 1e-12


def test_verify_pass_fail_and_bounds(tmp_path, capsys):
    rc = main(["verify", "--s", "3/2", "--lambda", "0.04,0.08,0.16", "--modes", "120"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict,PASS" in out

    rc = main(
        ["verify", "--s", "3/2", "--lambda", "0.04,0.08,0.16", "--modes", "120",
         "--first-order-only"]
    )
    assert rc == EXIT_SLOPE
    assert "verdict,FAIL" in capsys.readouterr().out

    # density bound violated: validation failure before any numerics
    rc = main(["verify", "--s", "3/2", "--lambda", "0.1,0.5,1.5", "--modes", "40"])
    assert rc == EXIT_VALIDATION


def test_verify_excluded_lines_state_the_cut_the_fit_applied(capsys):
    # both small lambdas fall below 10 x floor, not below the floor itself (1.113e-10)
    argv = ["verify", "--modes", "200", "--s", "3/2", "--lambda", "0.005,0.01,0.02,0.04,0.08,0.16"]
    assert main(argv) == EXIT_OK
    excluded = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    assert excluded == [
        "# excluded lambda=0.005: error 6.247e-11 below 10 x floor 1.113e-10",
        "# excluded lambda=0.01: error 4.553e-10 below 10 x floor 1.113e-10",
    ]


def test_verify_writes_its_fit_table_to_out(tmp_path, capsys):
    # --out takes the whole table, verdict included, and stdout stays empty; without it the
    # same table goes to stdout
    out = tmp_path / "v.csv"
    argv = ["verify", "--s", "3/2", "--lambda", "0.04,0.08,0.16", "--modes", "60"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith("lambda,abs_error\n") and text.endswith("verdict,PASS\n")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == text


def test_verify_to_an_unwritable_path_exits_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "v.csv")
    argv = ["verify", "--s", "3/2", "--lambda", "0.04,0.08,0.16", "--modes", "60", "--out", out]
    assert main(argv) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert len(problems) == 1 and repr(out) in problems[0]


@pytest.mark.parametrize("lam, expected", [
    ("-1e-05", [-1e-05]), ("-.5", [-0.5]), ("-1E-2,3e-2", [-0.01, 0.03]), ("-0.1,-2e-3", [-0.1, -0.002]),
])
def test_negative_lambda_parses_after_a_space(tmp_path, lam, expected):
    # a token starting with "-" and a digit, or "-." and a digit, is a value: every form of a
    # negative strength list parses after a space, as it does after "="
    for argv in (["--lambda", lam], [f"--lambda={lam}"]):
        out = tmp_path / "r.json"
        assert main(["sumrule", "--modes", "20", "--s", "3/2", "--route", "closed", "--format", "json",
                     "--out", str(out), *argv]) == EXIT_OK
        assert [r["lam"] for r in json.loads(out.read_text())["results"]] == expected


def test_quadrature_node_key_is_unknown(tmp_path, capsys):
    # the tables are exact: truncation.quadrature_nodes is gone, and rejected like any unknown key
    cfg = write_config(tmp_path, truncation={"modes": 40, "quadrature_nodes": 512})
    assert main(["sumrule", "--config", str(cfg), "--route", "closed"]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == ["truncation: unknown keys"]


def test_lambda_list_is_an_unknown_key(tmp_path, capsys):
    # one strength setting: density.lambda takes one number or a list, and --lambda writes it
    cfg = write_config(tmp_path, density={"profile": COS, "lambda_list": [0.05, 0.1]})
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == ["density: unknown keys"]


def test_top_discard_fraction_key_is_unknown(tmp_path, capsys):
    # the oracle works out how many eigenvalues its basis resolves: there is no discard setting
    cfg = write_config(tmp_path, truncation={"modes": 40, "top_discard_fraction": 0.25})
    assert main(["sumrule", "--config", str(cfg), "--route", "oracle"]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == ["truncation: unknown keys"]


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(
        ["spectrum", "--modes", "30", "--lambda", "0.1", "--out", str(out)]
    )
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 30
    assert rows[0]["index"] == "1"
    values = [float(r["eigenvalue"]) for r in rows]
    assert values == sorted(values)


def test_deterministic_outputs_byte_identical(tmp_path):
    cfg = write_config(tmp_path, output={"format": "csv", "path": str(tmp_path / "a.csv")})
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_OK
    first = (tmp_path / "a.csv").read_bytes()
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == first


def test_2d_sumrule_writes_no_file(tmp_path, monkeypatch, capsys):
    # the ignored --cache-dir flag and BILLZETA_CACHE_DIR create nothing either
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = write_config(tmp_path, route="closed", basis=RECT_BASIS, density=RECT_DENSITY)
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    argv = ["sumrule", "--config", str(cfg), "--modes", "20"]
    assert main(argv) == EXIT_OK
    assert main(argv + ["--cache-dir", str(flag_dir)]) == EXIT_OK
    monkeypatch.setenv("BILLZETA_CACHE_DIR", str(env_dir))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.count("closed-form") == 3
    assert not any(work.iterdir())
    assert sorted(tmp_path.iterdir()) == [cfg, work]


def problems_on_stderr(capsys):
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "validation"
    return doc["problems"]


@pytest.mark.parametrize("argv, flag", [
    (["sumrule", "--route", "bogus"], "--route"),
    (["sumrule", "--modes", "abc"], "--modes"),
    (["sumrule", "--format", "xml"], "--format"),
    (["sumrule", "--no-such-flag"], "--no-such-flag"),
    (["coeffs", "--n-root", "x"], "--n-root"),
    ([], "command"),
], ids=["route", "modes", "format", "unknown-flag", "n-root", "no-command"])
def test_usage_errors_are_one_json_line(capsys, argv, flag):
    assert main(argv) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert len(problems) == 1 and flag in problems[0]  # one line: no usage text either


def test_every_bad_flag_value_is_listed_in_one_pass(capsys):
    # a setting's problem from its flag is listed with the others, as a config file's are
    argv = ["sumrule", "--modes", "abc", "--lambda", "xyz", "--route", "bogus", "--format", "xml"]
    assert main(argv) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    for flag in ("--modes", "--lambda", "--route", "--format"):
        assert len([p for p in problems if p.startswith(flag)]) == 1, problems


def test_help_still_exits_0(capsys):
    for argv in (["-h"], ["sumrule", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def _option_argv(flag, dest, joined):
    """Tokens giving an option sample text, each value after a space or after "=", and what parse_args reads.

    A choice option takes its last choice, --s two orders, any other "7"; a switch takes no value
    and reads True.
    """
    row = cli._SETTINGS[dest]
    if row.switch is not None:
        return [flag], True
    texts = [row.kind[-1] if isinstance(row.kind, tuple) else "7"]
    texts = ["3/2", "1+1/4"] if row.kind == "orders" else texts
    argv = [f"{flag}={t}" for t in texts] if joined else [token for t in texts for token in (flag, t)]
    return argv, texts if row.kind == "orders" else texts[0]


@pytest.mark.parametrize("command, flag", [(c, f) for c, table in OPTIONS.items() for f in table])
def test_every_option_parses_after_a_space_and_after_equals(capsys, command, flag):
    # parse_args converts nothing: a value stays the text given, and a flag not given is None
    dest = OPTIONS[command][flag]
    assert getattr(parse_args([command]), dest) is None
    for joined in (False, True):
        argv, text = _option_argv(flag, dest, joined)
        args = parse_args([command, *argv])
        assert args.command == command
        assert getattr(args, dest) == text
    # a switch given a value, or an option at the end of argv without one, is a usage error
    argv, message = ([f"{flag}=1"], f"argument {flag}: ignored explicit argument '1'") \
        if cli._SETTINGS[dest].switch is not None else ([flag], f"argument {flag}: expected one argument")
    assert main([command, *argv]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == [message]


@pytest.mark.parametrize("command", OPTIONS)
def test_unique_prefixes_abbreviate_and_shared_ones_exit_2(capsys, command):
    flags = [*OPTIONS[command], "--help"]
    for flag, dest in OPTIONS[command].items():
        for prefix in (flag[:end] for end in range(3, len(flag))):
            matches = [f for f in flags if f.startswith(prefix)]
            argv, text = _option_argv(prefix, dest, joined=False)
            argv = [command, *argv]
            if len(matches) == 1:
                assert getattr(parse_args(argv), dest) == text
            else:
                assert main(argv) == EXIT_VALIDATION
                assert problems_on_stderr(capsys) == [
                    f"ambiguous option: {prefix} could match {', '.join(matches)}"
                ]
    assert parse_args([command, "--lam", "-0.1"]).lam == "-0.1"
    assert main([command, "--c", "x"]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == ["ambiguous option: --c could match --config, --cache-dir"]


def test_unknown_subcommand_exits_2_listing_the_commands(capsys):
    assert main(["sumrules", "--modes", "20"]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == [
        "argument command: invalid choice: 'sumrules' "
        "(choose from 'sumrule', 'coeffs', 'verify', 'spectrum')"
    ]


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_each_commands_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: billzeta {command} ")
    listed = re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE)
    # --cache-dir is accepted and ignored, and not listed
    assert listed == [flag for flag, dest in OPTIONS[command].items() if cli._SETTINGS[dest].about]
    assert "--cache-dir" not in out
    with pytest.raises(SystemExit):
        main(["-h"])
    assert re.findall(r"^  ([a-z]+) ", capsys.readouterr().out, re.MULTILINE) == list(OPTIONS)


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command, argv", [
    ("spectrum", ["--lambda", "0.1"]),
    ("verify", ["--lambda", "0.02,0.04,0.08"]),
    ("coeffs", []),
])
def test_json_output_is_sumrules_only(tmp_path, capsys, command, argv, given):
    cfg = write_config(tmp_path, output={"format": "json" if given == "config" else "csv"})
    argv = [command, "--config", str(cfg), "--modes", "20", "--out", str(tmp_path / "out"), *argv]
    if given == "flag":
        argv += ["--format", "json"]
    assert main(argv) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == [f"{command} writes CSV only; JSON output is sumrule's"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out", [
    ("sumrule", "missing/r.csv"),
    ("spectrum", "."),
    ("coeffs", "afile"),
    ("coeffs", "afile/sub"),
], ids=["sumrule-missing-directory", "spectrum-directory", "coeffs-existing-file", "coeffs-below-a-file"])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, capsys, command, out):
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / out)
    assert main([command, "--modes", "20", "--lambda", "0.1", "--out", out]) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert len(problems) == 1 and repr(out) in problems[0]


@pytest.mark.parametrize("text, why", [
    ("1e99999999", "outside [1/32, 3/2]"), ("1e-400", "outside [1/32, 3/2]"),
    ("1+1/0", "denominator is zero"), ("3/000", "denominator is zero"), ("1_0/2", "not p/q"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_order_text_is_checked_before_exact_arithmetic(tmp_path, capsys, text, why, source):
    # every valid order lies in [1/32, 3/2]: an exponent past it once took minutes of exact
    # arithmetic (1e99999999) or printed a 400-digit denominator (1e-400), and 1+1/0 named
    # Fraction(1, 0); now each problem quotes the text as given and says why, at once
    start = time.perf_counter()
    if source == "flag":
        rc = main(["sumrule", "--s", text, "--lambda", "0.1", "--modes", "20"])
    else:
        rc = main(["sumrule", "--config", str(write_config(tmp_path, orders=[text]))])
    assert rc == EXIT_VALIDATION and time.perf_counter() - start < 1.0
    [problem] = problems_on_stderr(capsys)
    assert problem.startswith(f"order {text!r}: ") and why in problem and len(problem) < 80


@pytest.mark.parametrize("route", ["closed", "oracle"])
def test_non_finite_lambda_exits_2(tmp_path, capsys, route):
    rc = main(["sumrule", "--s", "3/2", "--lambda", "nan", "--route", route, "--modes", "20"])
    assert rc == EXIT_VALIDATION
    assert any("--lambda" in p for p in problems_on_stderr(capsys))


def test_modes_flag_zero_exits_2(tmp_path, capsys):
    assert main(["spectrum", "--modes", "0", "--lambda", "0.1"]) == EXIT_VALIDATION
    assert any("mode_count" in p for p in problems_on_stderr(capsys))


@pytest.mark.parametrize("discard", [50, 20, -1])
def test_inner_discard_out_of_range_exits_2_before_writing(tmp_path, capsys, discard):
    cfg = write_config(tmp_path, truncation={"modes": 20, "inner_discard": discard})
    out = tmp_path / "coeffs"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert any(p.startswith("truncation.inner_discard") for p in problems_on_stderr(capsys))
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("truncation", "modes", 40.9), ("truncation", "modes", True),
     ("truncation", "inner_discard", 2.5), ("density", "lambda", True),
     ("basis", "length", True)],
)
def test_boolean_or_fractional_integer_exits_2(tmp_path, capsys, section, key, value):
    sections = {
        "truncation": {"modes": 40},
        "density": {"profile": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]}},
        "basis": {"kind": "string"},
    }
    sections[section][key] = value
    cfg = write_config(tmp_path, **sections)
    assert main(["sumrule", "--config", str(cfg), "--route", "closed"]) == EXIT_VALIDATION
    assert any(p.startswith(f"{section}.{key}:") for p in problems_on_stderr(capsys))


def test_integral_float_modes_load(tmp_path):
    cfg = write_config(tmp_path, truncation={"modes": 40.0})
    loaded = load_config(str(cfg), argparse.Namespace(command="sumrule"))
    assert loaded.basis.mode_count == 40 and isinstance(loaded.basis.mode_count, int)


def test_coeffs_root_and_order_rejected_before_any_work(tmp_path, capsys):
    rc = main(["coeffs", "--n-root", "0", "--max-order", "-1", "--modes", "20",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert any(p.startswith("--n-root") for p in problems)
    assert any(p.startswith("--max-order") for p in problems)
    assert not (tmp_path / "out").exists()


def test_oversized_modes_exit_2_before_allocating(tmp_path, capsys):
    rc = main(["sumrule", "--modes", "100000000", "--route", "closed", "--lambda", "0.1"])
    assert rc == EXIT_VALIDATION
    assert any(p.startswith("--modes: ") for p in problems_on_stderr(capsys))


@pytest.mark.parametrize("given", ["flag", "config"])
def test_memory_problem_names_where_the_mode_count_came_from(tmp_path, capsys, given):
    # 2^53 + 1 modes from either source: an integer setting converts exactly, with no float between
    argv, where = ["sumrule", "--route", "closed", "--lambda", "0.1"], "--modes"
    if given == "flag":
        argv += ["--modes", "9007199254740993"]
    else:
        cfg = write_config(tmp_path, truncation={"modes": 2**53 + 1})
        argv, where = argv + ["--config", str(cfg)], "truncation.modes"
    assert main(argv) == EXIT_VALIDATION
    (problem,) = problems_on_stderr(capsys)
    assert problem.startswith(f"{where}: 9007199254740993 modes need ")


def test_a_bad_max_order_still_leaves_the_memory_check(capsys):
    # an unusable --max-order is counted at its default, so the mode count is checked too
    argv = ["coeffs", "--n-root", "x", "--max-order", "-1", "--modes", "1000000000000000000000000000000"]
    assert main(argv) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert [p.partition(" ")[0] for p in problems] == ["--n-root:", "--max-order", "--modes:"]
    assert problems[2].startswith("--modes: 1000000000000000000000000000000 modes need ")


def test_oversized_rectangle_modes_exit_2_before_listing_modes(tmp_path, capsys):
    # the rectangle table is counted from a bound on its side factors, no mode listed
    from billzeta.basis import _enumerate_rectangle_modes

    misses = _enumerate_rectangle_modes.cache_info().misses
    cfg = write_config(tmp_path, basis={"kind": "rectangle"}, density=RECT_DENSITY)
    for route, order in (("closed", "3/2"), ("trace1", "1+1/2")):
        rc = main(["sumrule", "--config", str(cfg), "--modes", "100000000", "--route", route, "--s", order])
        assert rc == EXIT_VALIDATION
        assert any(p.startswith("--modes: ") for p in problems_on_stderr(capsys))
    assert _enumerate_rectangle_modes.cache_info().misses == misses


def test_huge_rectangle_modes_exit_2_before_forming_side_bounds(tmp_path, monkeypatch, capsys):
    # the rectangle's side bounds take O(sqrt(M)) memory to form: the vectors' floor of the
    # need rejects 10^30 modes first
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**33)
    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 1.0, "b": 1.3}, density=COS_2D_DENSITY)
    rc = main(["sumrule", "--config", str(cfg), "--modes", "1000000000000000000000000000000",
               "--route", "closed"])
    assert rc == EXIT_VALIDATION
    assert any(p.startswith("--modes: ") for p in problems_on_stderr(capsys))


def test_a_cosine_rectangle_walk_is_counted_by_its_side_bands(tmp_path, monkeypatch):
    # a cosine side factor of S_1, highest harmonic b, has at most 2b + 1 nonzeros a row: the
    # closed form on COS_2D at M = 1.1e6 is counted 0.40 GiB, where every pair of side indices
    # up to the side bounds counted 8.4 GiB
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 * 2**30)
    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 1.0, "b": 1.3}, density=COS_2D_DENSITY)
    argv = ["sumrule", "--config", str(cfg), "--route", "closed", "--s", "3/2", "--lambda", "0.1",
            "--modes", "1100000"]
    assert load_config(str(cfg), parse_args(argv)).basis.mode_count == 1_100_000


def recorded_powers(monkeypatch, *names):
    """Each named cli function's max_power argument, per call, in the list the name keys."""
    powers = {name: [] for name in names}

    def recorder(name, fn):
        def recorded(*args):
            powers[name].append(args[-1])
            return fn(*args)
        return recorded

    for name in names:
        monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
    return powers


# run -> (argv, the power its table holds): the closed form and the oracle read S_1 alone, the
# trace routes S_2's diagonal too, and coeffs --max-order K reads S_1..S_K (a table holds S_1 at least)
BUILT_POWERS = {
    "closed": (["sumrule", "--route", "closed"], 1),
    "trace1": (["sumrule", "--route", "trace1"], 2),
    "trace2": (["sumrule", "--route", "trace2", "--s", "1/2+1/3"], 2),
    "oracle": (["sumrule", "--route", "oracle"], 1),
    "all": (["sumrule", "--route", "all"], 2),
    "verify": (["verify", "--lambda", "0.2,0.4,0.8"], 1),
    "spectrum": (["spectrum"], 1),
    "coeffs-0": (["coeffs", "--max-order", "0"], 1),
    "coeffs-1": (["coeffs", "--max-order", "1"], 1),
    "coeffs-3": (["coeffs", "--max-order", "3"], 3),
}


@pytest.mark.parametrize("route", BUILT_POWERS)
def test_sumrule_builds_the_powers_its_routes_read(tmp_path, monkeypatch, route):
    # every command and route, on the string
    argv, power = BUILT_POWERS[route]
    powers = recorded_powers(monkeypatch, "build_sigma_table")
    assert main([*argv, "--modes", "30", "--out", str(tmp_path / "out")]) == EXIT_OK
    assert powers["build_sigma_table"] == [power]


@pytest.mark.parametrize("route", [run for run in BUILT_POWERS if run != "trace2"])  # 1/N + 1/N' diverges in 2D
def test_the_memory_check_counts_the_table_the_command_builds(tmp_path, monkeypatch, route):
    # the pre-check counts a rectangle table at the power the command then builds
    argv, power = BUILT_POWERS[route]
    powers = recorded_powers(monkeypatch, "rectangle_table_doubles", "build_sigma_table")
    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 1.0, "b": 1.3}, density=COS_2D_DENSITY)
    argv = [*argv, "--config", str(cfg), "--modes", "30", "--out", str(tmp_path / "out")]
    assert main(argv) in (EXIT_OK, EXIT_SLOPE)
    assert powers["rectangle_table_doubles"] == powers["build_sigma_table"] == [power]


def test_working_set_counted_before_allocating(tmp_path, monkeypatch, capsys):
    from billzeta import cli

    def never(*args, **kwargs):
        raise AssertionError("build_sigma_table called")

    m = 100
    # one dense matrix fits; the oracle's pencil plus LAPACK's copy of it does not
    monkeypatch.setattr(cli, "_physical_memory", lambda: m * m * 8)
    monkeypatch.setattr(cli, "build_sigma_table", never)
    cfg = write_config(tmp_path)
    rc = main(["sumrule", "--config", str(cfg), "--modes", str(m), "--route", "oracle"])
    assert rc == EXIT_VALIDATION
    assert any(p.startswith("--modes: ") for p in problems_on_stderr(capsys))


def test_the_memory_check_counts_only_the_orders_a_command_reads(tmp_path, monkeypatch, capsys):
    # spectrum reads no order: at M = 1000 it is counted 16.28 MB with 48 orders as with
    # one, where each order's vectors would make 17.41 MB; a sumrule run reads them all
    monkeypatch.setattr(cli, "_physical_memory", lambda: 17.0e6)
    orders = [arg for n in range(2, 50) for arg in ("--s", f"1+1/{n}")]
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--modes", "1000", "--lambda", "0.1", "--out", str(out), *orders]) == EXIT_OK
    assert len(read_csv(out)) == 1000
    assert main(["sumrule", "--route", "oracle", "--modes", "1000", "--lambda", "0.1", *orders]) == EXIT_VALIDATION
    assert any(p.startswith("--modes: ") for p in problems_on_stderr(capsys))


def test_string_closed_form_counts_the_band_for_every_profile(tmp_path, monkeypatch):
    # a polynomial string table is cosine coefficients too: the closed form holds one
    # row block of S_1's couplings (every column), not a dense 3-matrix table plus its
    # working set
    from billzeta import cli

    m = 1000
    monkeypatch.setattr(cli, "_physical_memory", lambda: 3 * m * m * 8)
    cfg = write_config(tmp_path, density={
        "profile": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]}, "lambda": 0.1,
    })
    out = tmp_path / "r.csv"
    rc = main(["sumrule", "--config", str(cfg), "--modes", str(m), "--route", "closed",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert len(read_csv(out)) == 1


def test_banded_closed_form_runs_at_large_modes(tmp_path):
    # the cosine closed form holds O(M b) numbers, so M = 10^5 passes the memory check
    totals = {}
    for m in (10_000, 100_000):
        out = tmp_path / f"m{m}.json"
        rc = main(["sumrule", "--route", "closed", "--modes", str(m), "--lambda", "0.1",
                   "--format", "json", "--out", str(out)])
        assert rc == EXIT_OK
        (record,) = json.loads(out.read_text())["results"]
        assert record["truncation"] == m
        totals[m] = record
    # the remainder beyond M = 10^4 is the Weyl tail, ~M^{1-2s}, already counted in z0
    small, large = totals[10_000], totals[100_000]
    assert abs(large["z_total"] - small["z_total"]) < small["tail_estimate"]
    assert large["tail_estimate"] / small["tail_estimate"] == pytest.approx(10.0 ** (1 - 2 * 1.5), rel=1e-3)


@pytest.mark.parametrize("command, route, kind", [
    ("sumrule", "all", "string"), ("sumrule", "oracle", "string"), ("verify", "all", "string"),
    ("sumrule", "all", "rectangle"),
])
def test_dense_work_at_large_modes_exits_2_before_allocating(
    tmp_path, monkeypatch, capsys, command, route, kind
):
    from billzeta import cli

    def never(*args, **kwargs):
        raise AssertionError("build_sigma_table called")

    cos2 = {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]}
    profile = cos2 if kind == "string" else {
        "type": "separable", "terms": [{"x": cos2, "y": {"type": "fourier-cosine", "coeffs": [1.0]}}]
    }
    cfg = write_config(tmp_path, basis={"kind": kind}, route=route,
                       density={"profile": profile, "lambda": [0.04, 0.08, 0.16]})
    monkeypatch.setattr(cli, "build_sigma_table", never)
    assert main([command, "--config", str(cfg), "--modes", "100000"]) == EXIT_VALIDATION
    assert any(p.startswith("--modes: ") for p in problems_on_stderr(capsys))


def test_spectrum_rejects_extra_lambdas(tmp_path, capsys):
    rc = main(["spectrum", "--modes", "20", "--lambda", "0.1,0.5"])
    assert rc == EXIT_VALIDATION
    assert any("[0.5]" in p for p in problems_on_stderr(capsys))


def test_verify_rejects_extra_orders(tmp_path, capsys):
    rc = main(["verify", "--s", "3/2", "--s", "1+1/4", "--lambda", "0.04,0.08,0.16", "--modes", "40"])
    assert rc == EXIT_VALIDATION
    assert any("1+1/4" in p for p in problems_on_stderr(capsys))


def test_verify_too_few_lambdas_listed_with_other_problems(tmp_path, monkeypatch, capsys):
    from billzeta import cli

    def never(*args, **kwargs):
        raise AssertionError("build_sigma_table called")

    monkeypatch.setattr(cli, "build_sigma_table", never)
    rc = main(["verify", "--s", "3/2", "--s", "1+1/4", "--lambda", "0.04,0.08", "--modes", "40"])
    assert rc == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert any("at least 3 lambda" in p for p in problems)
    assert any("1+1/4" in p for p in problems)


@pytest.mark.parametrize("lambdas", ["0.1,0.1,0.1", "0.04,0.08,0.08", "-0.04,0.08,0.16", "0,0.08,0.16"])
def test_verify_needs_three_distinct_positive_lambdas(tmp_path, monkeypatch, capsys, lambdas):
    # the slope is a line through (log lambda, log error): repeated or non-positive lambdas
    # leave fewer than 3 usable abscissae
    from billzeta import cli

    def never(*args, **kwargs):
        raise AssertionError("build_sigma_table called")

    monkeypatch.setattr(cli, "build_sigma_table", never)
    rc = main(["verify", "--s", "3/2", f"--lambda={lambdas}", "--modes", "5"])
    assert rc == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert any("at least 3 lambda values, distinct and positive" in p for p in problems)


@pytest.mark.parametrize("coeffs", [[0.3, 0.0, 1.0], [0.0, 0.0, 1.0]], ids=["offset-cosine", "default"])
@pytest.mark.parametrize("order", ["1/2+1/2", "1"])
def test_verify_at_s_one_is_a_problem_before_any_solve(tmp_path, monkeypatch, capsys, coeffs, order):
    # Z(1) is the trace of the Green's operator, linear in lambda: second order is exact, so a
    # fit of the lambda^3 error would read rounding and tail noise as a slope
    from billzeta import cli

    def never(*args, **kwargs):
        raise AssertionError("build_sigma_table called")

    monkeypatch.setattr(cli, "build_sigma_table", never)
    cfg = write_config(tmp_path, density={"profile": {"type": "fourier-cosine", "coeffs": coeffs}})
    rc = main(["verify", "--config", str(cfg), "--s", order, "--modes", "400", "--lambda", "0.05,0.1,0.2,0.4,0.6"])
    assert rc == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == [
        "order 1/2+1/2: Z(1) is linear in lambda, so second order is exact and there is no lambda^3 term to fit"
    ]


ZERO = {"type": "polynomial", "coeffs": [0.0]}


@pytest.mark.parametrize("basis, profile", [
    ({"kind": "string", "length": 1.0}, ZERO),
    ({"kind": "rectangle", "a": 1.0, "b": 1.3}, {"type": "separable", "terms": [{"x": COS, "y": ZERO}]}),
    # here a lambda-free gap of 3.85e-3 at every lambda once read as slope -6.9e-16, FAIL (exit 4)
    ({"kind": "rectangle", "a": 10.0, "b": 1.0},
     {"type": "separable", "terms": [{"x": ZERO, "y": {"type": "polynomial", "coeffs": [1.0]}}]}),
], ids=["string", "rectangle-zero-factor", "rectangle-10x1"])
def test_verify_of_a_homogeneous_medium_is_a_problem_before_any_solve(
    tmp_path, monkeypatch, capsys, basis, profile
):
    # sigma = 0: Z does not depend on lambda, so the fit could read only the lambda-free
    # gap between the closed form's and the oracle's truncations as an error
    def never(*args, **kwargs):
        raise AssertionError("build_sigma_table called")

    monkeypatch.setattr(cli, "build_sigma_table", never)
    cfg = write_config(tmp_path, basis=basis, density={"profile": profile})
    rc = main(["verify", "--config", str(cfg), "--s", "3/2", "--modes", "20", "--lambda", "0.02,0.04,0.08"])
    assert rc == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == [
        "sigma is zero, so Z does not depend on lambda and there is no lambda^3 term to fit"
    ]


@pytest.mark.parametrize("flag, config", [
    ([], {}),
    (["--threshold", "-1"], {}),
    (["--threshold", "2.69"], {}),
    ([], {"slope_threshold": 2.5}),
], ids=["default", "flag-minus-one", "flag-just-below", "config-2.5"])
def test_a_run_cannot_loosen_the_slope_gate(tmp_path, capsys, flag, config):
    # cos 2 pi x cos 2 pi y on the 10 x 1 rectangle at M = 20: a lambda-independent gap, slope
    # 0.0116, fails the default gate; a gate below 2.7 once passed it (exit 0)
    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 10.0, "b": 1.0},
                       density={"profile": COS_2D_DENSITY["profile"]}, **config)
    argv = ["verify", "--config", str(cfg), "--s", "3/2", "--modes", "20", "--lambda", "0.02,0.04,0.08", *flag]
    if not (flag or config):
        assert main(argv) == EXIT_SLOPE and capsys.readouterr().out.endswith("verdict,FAIL\n")
        return
    assert main(argv) == EXIT_VALIDATION
    [problem] = problems_on_stderr(capsys)
    assert re.fullmatch(r"(--threshold|slope_threshold) must be in \[2\.7, inf\), got .*", problem)


def test_verify_too_few_usable_points_lists_the_problem(tmp_path, capsys):
    # the numerical floor depends on the solved spectra, so this check runs after them; it
    # still reports a problems list like every other exit-2 input
    term = {"x": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]},
            "y": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]}}
    cfg = write_config(
        tmp_path,
        basis={"kind": "rectangle", "a": 1.0, "b": 1.3},
        density={"profile": {"type": "separable", "terms": [term]}},
    )
    argv = ["verify", "--config", str(cfg), "--s", "3/2", "--lambda", "0.02,0.04,0.08,0.16",
            "--modes", "150"]
    assert main(argv) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert len(problems) == 1 and "usable points above the numerical floor" in problems[0]


def test_verify_fits_each_distinct_lambda_once(tmp_path, capsys):
    # 1e-4 falls below the floor, and the two rows of 0.08 once counted as two of the three
    # points the fit needs: slope 2.985, PASS, exit 0
    cfg = write_config(tmp_path, density={"profile": {"type": "polynomial", "coeffs": [0, 4, -4]}})
    argv = ["verify", "--config", str(cfg), "--modes", "300", "--s", "3/2", "--lambda", "0.0001,0.08,0.08,0.16"]
    assert main(argv) == EXIT_VALIDATION
    [problem] = problems_on_stderr(capsys)
    assert problem.startswith("only 2 usable points above the numerical floor")


@pytest.mark.parametrize("route", ["closed", "oracle"])
def test_high_frequency_profile_density_bound_exits_2(tmp_path, capsys, route):
    # cos(pi x) - cos(8191 pi x) has sup ~2 but vanishes at all 4097 evenly spaced points
    coeffs = [0.0] * 8192
    coeffs[1], coeffs[8191] = 1.0, -1.0
    cfg = write_config(
        tmp_path, density={"profile": {"type": "fourier-cosine", "coeffs": coeffs}, "lambda": 0.9}
    )
    rc = main(["sumrule", "--config", str(cfg), "--route", route, "--modes", "20"])
    assert rc == EXIT_VALIDATION
    assert any("density bound violated" in p for p in problems_on_stderr(capsys))


def test_high_frequency_2d_profile_density_bound_exits_2(tmp_path, capsys):
    # x-factor cos(pi x) - cos(1025 pi x) has sup 2 but vanishes on a 513-point grid
    coeffs = [0.0] * 1026
    coeffs[1], coeffs[1025] = 1.0, -1.0
    term = {"x": {"type": "fourier-cosine", "coeffs": coeffs},
            "y": {"type": "fourier-cosine", "coeffs": [1.0]}}
    cfg = write_config(
        tmp_path,
        basis={"kind": "rectangle", "a": 1.0, "b": 1.0},
        density={"profile": {"type": "separable", "terms": [term]}, "lambda": 0.9},
    )
    rc = main(["sumrule", "--config", str(cfg), "--route", "closed", "--modes", "20"])
    assert rc == EXIT_VALIDATION
    assert any("sup|lambda*sigma| = 1.8" in p for p in problems_on_stderr(capsys))


def test_memory_error_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    from billzeta import sumrules

    def exhausted(lo, hi, s, weights=None):
        raise MemoryError()  # numpy's own can stringify to ""

    monkeypatch.setattr(sumrules, "kernel_pairs", exhausted)
    rc = main(["sumrule", "--s", "3/2", "--lambda", "0.1", "--route", "closed", "--modes", "20"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err.strip()
    assert json.loads(err) == {"error": "numerical", "detail": "out of memory"}


def test_sumrule_sweep_forms_each_invariant_once(tmp_path, monkeypatch):
    from billzeta import coefficients, oracle, sumrules
    from billzeta.basis import SigmaPowerTable

    calls = {
        "kernel_pairs": 0, "Q_trace_terms": 0, "trace_terms": [], "solve_spectrum": 0,
        "build_Q_series": 0, "q_generic_recursion": 0,
    }
    kernel_orders = set()

    def counted(fn):
        def wrapper(*args, **kwargs):
            if fn.__name__ == "trace_terms":
                calls["trace_terms"].append(args[0])
            else:
                calls[fn.__name__] += 1
            if fn.__name__ == "kernel_pairs":
                kernel_orders.add(args[2])  # s
            return fn(*args, **kwargs)
        return wrapper

    for module, name in (
        (sumrules, "kernel_pairs"), (sumrules, "Q_trace_terms"), (sumrules, "trace_terms"),
        (oracle, "solve_spectrum"), (coefficients, "build_Q_series"),
        (coefficients, "q_generic_recursion"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    found = []  # every SigmaPowerTable.blocks result
    blocks = SigmaPowerTable.blocks
    monkeypatch.setattr(SigmaPowerTable, "blocks", lambda self: found.append(blocks(self)) or found[-1])
    argv = ["sumrule", "--route", "all", "--modes", "24", "--lambda", "0.02,0.04,0.08,0.16,0.04"]
    for order in ("3/2", "1+1/4", "1/2+1/3"):
        argv += ["--s", order]
    assert main(argv) == EXIT_OK
    # M = 24 is one row block: one kernel evaluation per distinct s over its pairs, one set
    # of Q terms (N = 1), one q set per distinct N (2, 4, 3), one spectrum per distinct
    # lambda, S_1's blocks found once for the table, and no dense coefficient series at all
    assert len(kernel_orders) == 3
    assert len(found) == 4 and all(b is found[0] for b in found)
    assert calls == {
        "kernel_pairs": 3, "Q_trace_terms": 1, "trace_terms": [2, 4, 3], "solve_spectrum": 4,
        "build_Q_series": 0, "q_generic_recursion": 0,
    }


COS_STRING = {"profile": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]}}
POLY_STRING = {"profile": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]}}
ROUTE_ORDERS = {"closed": ("3/2", "1+1/8", "1/2+1/3"), "trace1": ("1+1/2", "1+1/8"),
                "trace2": ("1/2+1/3", "1/3+1/4")}
PEAK_RUNS = {  # (basis kind, density, M); 1/N + 1/N' diverges in two dimensions
    "rectangle": ("rectangle", RECT_DENSITY, 400),
    "cosine-string": ("string", COS_STRING, 20_000),
    "polynomial-string": ("string", POLY_STRING, 800),
}


@pytest.mark.parametrize("run, route", [
    (run, route) for run in PEAK_RUNS for route in ROUTE_ORDERS
    if not (run == "rectangle" and route == "trace2")
])
def test_runs_peak_below_the_counted_need(tmp_path, run, route):
    # the memory pre-check's count of the table and the route's working set is an upper bound
    import tracemalloc

    from billzeta.cli import _memory_need

    kind, density, m = PEAK_RUNS[run]
    orders = [o for o in ROUTE_ORDERS[route] if kind == "string" or o != "1/2+1/3"]
    cfg = write_config(tmp_path, basis={"kind": kind}, density=density)
    argv = ["sumrule", "--config", str(cfg), "--route", route, "--modes", str(m),
            "--lambda", "0.05,0.1", "--out", str(tmp_path / "r.csv")]
    for order in orders:
        argv += ["--s", order]
    loaded = load_config(str(cfg), parse_args(argv))
    need = _memory_need("sumrule", route, loaded.basis.domain, loaded.profile, m, loaded.orders, 2)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need


@pytest.mark.parametrize("run, m", [("rectangle", 400), ("cosine-string", 800), ("polynomial-string", 800)])
@pytest.mark.parametrize("command", ["sumrule", "spectrum"])
def test_oracle_peaks_below_the_counted_need(tmp_path, run, m, command):
    # the oracle counts its pencil and LAPACK's untraced copy: the traced peak, table
    # included, stays below the count
    import tracemalloc

    from billzeta.cli import _memory_need

    kind, density, _ = PEAK_RUNS[run]
    cfg = write_config(tmp_path, basis={"kind": kind}, density=density)
    argv = [command, "--config", str(cfg), "--modes", str(m), "--lambda", "0.1",
            "--out", str(tmp_path / "r.csv")]
    if command == "sumrule":
        argv += ["--route", "oracle", "--s", "3/2"]
    loaded = load_config(str(cfg), parse_args(argv))
    need = _memory_need(command, "oracle", loaded.basis.domain, loaded.profile, m, loaded.orders, 2)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need


@pytest.mark.parametrize("max_order", [0, 1, 2, 8])
def test_coeffs_peaks_below_the_counted_need(tmp_path, max_order):
    # coeffs holds the dense S_j, both series and the recursion's chain: the traced peak,
    # table included, stays below the count (at M=120 and N=3, 13.1 and 41.7 M^2 against
    # 15.3 and 45.3 counted)
    import tracemalloc

    from billzeta.cli import _memory_need

    m = 120
    cfg = write_config(tmp_path)
    argv = ["coeffs", "--config", str(cfg), "--modes", str(m), "--n-root", "3",
            "--max-order", str(max_order), "--out", str(tmp_path / "q")]
    loaded = load_config(str(cfg), parse_args(argv))
    need = _memory_need("coeffs", loaded.route, loaded.basis.domain, loaded.profile, m, loaded.orders,
                        max_order)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need


def test_coeffs_on_a_cosine_rectangle_peaks_below_the_counted_need(tmp_path):
    # coeffs scatters each dense S_j, j <= max_order, from walk(j): a cosine side factor of
    # S_j has at most 2 j b + 1 nonzeros a row, and the count takes j = max_order (1.24x the
    # traced peak at M = 300)
    import tracemalloc

    from billzeta.cli import _memory_need

    m, max_order = 300, 6
    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 1.0, "b": 1.3}, density=COS_2D_DENSITY)
    argv = ["coeffs", "--config", str(cfg), "--modes", str(m), "--n-root", "3",
            "--max-order", str(max_order), "--out", str(tmp_path / "q")]
    loaded = load_config(str(cfg), parse_args(argv))
    need = _memory_need("coeffs", loaded.route, loaded.basis.domain, loaded.profile, m, loaded.orders,
                        max_order)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need


@pytest.mark.parametrize("argv", [
    ["sumrule", "--route", "closed"], ["sumrule", "--route", "oracle"], ["verify", "--lambda", "0.2,0.4,0.8"],
    ["spectrum"], ["coeffs", "--max-order", "0"], ["coeffs", "--max-order", "1"],
], ids=["closed", "oracle", "verify", "spectrum", "coeffs-0", "coeffs-1"])
def test_a_rectangle_table_of_s1_peaks_below_the_counted_need(tmp_path, argv):
    # these commands build and count a rectangle table of S_1 alone: the traced peak, table
    # included, stays below the count on COS_2D at M = 400
    import tracemalloc

    from billzeta.cli import _memory_need

    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 1.0, "b": 1.3}, density=COS_2D_DENSITY)
    argv = [*argv, "--config", str(cfg), "--modes", "400", "--s", "3/2", "--out", str(tmp_path / "out")]
    args = parse_args(argv)
    loaded = load_config(str(cfg), args)
    need = _memory_need(args.command, loaded.route, loaded.basis.domain, loaded.profile, 400, loaded.orders,
                        loaded.max_order)
    tracemalloc.start()
    try:
        assert main(argv) in (EXIT_OK, EXIT_SLOPE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need


def test_rectangle_trace_need_grows_like_its_row_blocks(tmp_path):
    # the rectangle table is side factors and the route reads S_1 in row blocks, so
    # nothing it counts grows like M^2
    from billzeta.cli import _memory_need

    cfg = write_config(tmp_path, basis={"kind": "rectangle"}, density=RECT_DENSITY)
    argv = ["sumrule", "--config", str(cfg), "--route", "trace1", "--s", "1+1/2", "--s", "1+1/8"]
    loaded = load_config(str(cfg), parse_args(argv))
    need = {m: _memory_need("sumrule", "trace1", loaded.basis.domain, loaded.profile, m, loaded.orders, 2)
            for m in (2000, 4000)}
    assert need[4000] / need[2000] < 3


@pytest.mark.parametrize("route, orders", [
    ("trace1", ("1+1/2", "1+1/8")), ("trace2", ("1/2+1/3",)),
], ids=["trace1", "trace2"])
def test_trace_routes_run_at_large_modes(tmp_path, route, orders):
    # the trace routes walk the cosine string's S_1 in row blocks: M = 10^5 passes the
    # memory check and agrees with the closed form
    argv = ["sumrule", "--modes", "100000", "--lambda", "0.1", "--format", "json"]
    for order in orders:
        argv += ["--s", order]
    records = {}
    for which in (route, "closed"):
        out = tmp_path / f"{which}.json"
        assert main(argv + ["--route", which, "--out", str(out)]) == EXIT_OK
        records[which] = json.loads(out.read_text())["results"]
    assert len(records[route]) == len(orders)
    for trace, closed in zip(records[route], records["closed"]):
        assert trace["truncation"] == 100_000 and trace["order_label"] == closed["order_label"]
        assert trace["z_total"] == pytest.approx(closed["z_total"], rel=1e-12)


def test_rectangle_routes_run_at_large_modes(tmp_path):
    # on the rectangle both routes walk S_1's couplings and count one row block of them:
    # M = 10^5 passes the memory check, and the closed form and the trace route agree
    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 1.0, "b": 1.3}, density=COS_2D_DENSITY)
    argv = ["sumrule", "--config", str(cfg), "--modes", "100000", "--lambda", "0.1", "--format", "json",
            "--s", "1+1/2", "--s", "1+1/8"]
    records = {}
    for route in ("closed", "trace1"):
        out = tmp_path / f"{route}.json"
        assert main(argv + ["--route", route, "--out", str(out)]) == EXIT_OK
        records[route] = json.loads(out.read_text())["results"]
    assert len(records["trace1"]) == 2
    for trace, closed in zip(records["trace1"], records["closed"]):
        assert trace["truncation"] == 100_000 and trace["order_label"] == closed["order_label"]
        assert trace["z2"] != 0.0
        assert trace["z_total"] == pytest.approx(closed["z_total"], rel=1e-12)


# z_total of `sumrule --route all` on 4x(1-x) at M = 300, recorded to 17 digits while
# quadrature still left S_1's parity-forbidden entries (n + m odd) as rounding noise:
# (closed form, oracle) per order and lambda.  Exact zeros there change no record beyond
# rounding.
POLY_RECORDS = {
    ("1+1/2", 0.05): (0.04124114073813644, 0.04124096169354229),
    ("1+1/2", 0.1): (0.043766693594324974, 0.043765230991315573),
    ("1+1/4", 0.05): (0.08066488462535688, 0.08066496558848209),
    ("1+1/4", 0.1): (0.08468673709841305, 0.08468558261284197),
    ("1/2+1/3", 0.05): (0.32508922796524514, 0.32522716869471574),
    ("1/2+1/3", 0.1): (0.3349904960225585, 0.33526882111523454),
}


def test_mirror_even_polynomial_keeps_its_recorded_sums(tmp_path):
    # the closed form and the trace routes agree with the record to rounding; the oracle,
    # now solved as odd and even blocks, to a few rounding units of its eigenvalues
    density = {"profile": {"type": "polynomial", "coeffs": [0.0, 4.0, -4.0]}}
    cfg = write_config(tmp_path, density=density)
    out = tmp_path / "all.json"
    argv = ["sumrule", "--config", str(cfg), "--route", "all", "--modes", "300",
            "--lambda", "0.05,0.1", "--format", "json", "--out", str(out)]
    for order in ("3/2", "1+1/4", "1/2+1/3"):
        argv += ["--s", order]
    assert main(argv) == EXIT_OK
    records = json.loads(out.read_text())["results"]
    assert len(records) == 3 * len(POLY_RECORDS)
    for record in records:
        closed, oracle = POLY_RECORDS[record["order_label"], record["lam"]]
        if record["route"] == "oracle":
            assert record["z_total"] == pytest.approx(oracle, rel=1e-12, abs=0.0)
        else:
            assert record["z_total"] == pytest.approx(closed, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kind", ["string", "rectangle"])
def test_cosine_runs_leave_numpy_polynomial_unimported(tmp_path, kind):
    # cosine tables are exact convolutions, with no quadrature: numpy.polynomial, whose import
    # costs start-up time and memory on every run, is not needed
    cfg = write_config(tmp_path, basis={"kind": kind}, density=COS_2D_DENSITY if kind == "rectangle" else {})
    script = (
        "import sys\n"
        "from billzeta.cli import main\n"
        "for route, order in (('closed', '3/2'), ('trace1', '1+1/2')):\n"
        f"    assert main(['sumrule', '--config', {str(cfg)!r}, '--modes', '100', '--route', route,\n"
        "                 '--s', order, '--lambda', '0.1', '--out', 'r.csv']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "r.csv").exists()


def test_main_freezes_the_start_up_heap_and_still_collects_the_runs_cycles(tmp_path):
    enabled = gc.isenabled()
    assert main(["sumrule", "--modes", "20", "--s", "3/2", "--lambda", "0.1",
                 "--route", "closed", "--out", str(tmp_path / "r.csv")]) == EXIT_OK
    assert gc.isenabled() == enabled
    assert gc.get_freeze_count() > 0

    class Node:
        pass

    node = Node()
    node.self = node  # a reference cycle made after the freeze
    watched = weakref.ref(node)
    del node
    gc.collect()
    assert watched() is None


def test_module_entry_point_writes_finite_csv(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "billzeta.cli", "sumrule", "--modes", "40", "--s", "3/2",
         "--s", "1+1/2", "--lambda", "0.1", "--out", "r.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = read_csv(tmp_path / "r.csv")
    assert len(rows) == 6  # two orders on three routes
    assert all(math.isfinite(float(r["z_total"])) and float(r["z_total"]) > 0 for r in rows)


def test_module_entry_point_usage_error_is_one_json_line(tmp_path):
    # a usage error leaves main as exit code 2, which the console-script wrapper passes on
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "billzeta.cli", "sumrule", "--no-such-flag"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_VALIDATION
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "validation", "problems": ["unrecognized arguments: --no-such-flag"]}


@pytest.mark.parametrize("basis, density, where", [
    ({"kind": "string", "length": 1e150}, {}, "order 1+1/2"),  # eps^-s overflows
    ({"kind": "string", "length": 1e-150}, {}, "order 1+1/2"),  # eps^-s underflows
    ({"kind": "rectangle", "a": 1e-200, "b": 1.0}, COS_2D_DENSITY, "basis: pi^2/a^2"),
    ({"kind": "rectangle", "a": 1e200, "b": 1.0}, COS_2D_DENSITY, "basis: pi^2/a^2"),
], ids=["long-string", "short-string", "thin-rectangle", "long-rectangle"])
def test_extreme_geometry_exits_2(tmp_path, capsys, basis, density, where):
    cfg = write_config(tmp_path, basis=basis, density=density)
    argv = ["sumrule", "--config", str(cfg), "--modes", "40", "--s", "1+1/2", "--lambda", "0.1"]
    assert main(argv) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)
    assert len(problems) == 1 and problems[0].startswith(where) and "normal doubles" in problems[0]


def test_polynomial_factor_on_a_huge_side_exits_2_with_one_stderr_line(tmp_path, capsys):
    # sampling the factor overflows to inf; the density bound rejects it with no numpy warning
    poly = {"type": "polynomial", "coeffs": [0, 0.85, -0.82]}
    density = {"profile": {"type": "separable", "terms": [{"x": poly, "y": {"type": "fourier-cosine",
                                                                              "coeffs": [1.0]}}]},
               "lambda": 0.1}
    cfg = write_config(tmp_path, basis={"kind": "rectangle", "a": 1e200, "b": 1.0}, density=density)
    assert main(["sumrule", "--config", str(cfg), "--modes", "40"]) == EXIT_VALIDATION
    problems = problems_on_stderr(capsys)  # exactly one JSON line
    assert any(p.startswith("lambda=0.1: density bound violated") for p in problems)


def test_short_string_inside_the_normal_doubles_still_runs(tmp_path):
    cfg = write_config(tmp_path, basis={"kind": "string", "length": 1e-100},
                       output={"path": str(tmp_path / "r.csv")})
    assert main(["sumrule", "--config", str(cfg), "--modes", "40", "--s", "1+1/2"]) == EXIT_OK
    assert all(float(r["z_total"]) > 0 for r in read_csv(tmp_path / "r.csv"))


def test_non_finite_length_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, basis={"kind": "string", "length": "inf"})
    assert main(["sumrule", "--config", str(cfg), "--route", "closed"]) == EXIT_VALIDATION
    assert any("basis.length" in p for p in problems_on_stderr(capsys))


@pytest.mark.parametrize(
    "override, where",
    [
        ({"basis": {"kind": "string", "length": "abc"}}, "basis.length"),
        ({"slope_threshold": "x"}, "slope_threshold"),
        ({"truncation": [1, 2]}, "truncation"),
        ({"density": 5}, "density"),
        ({"orders": []}, "no orders given"),
    ],
)
def test_config_type_errors_exit_2(tmp_path, capsys, override, where):
    cfg = write_config(tmp_path, **override)
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION
    assert any(p.startswith(where) for p in problems_on_stderr(capsys))


def test_config_type_errors_reported_in_one_pass(tmp_path, capsys):
    cfg = write_config(
        tmp_path, basis={"kind": "string", "length": "abc"}, slope_threshold="x", density=5
    )
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION
    text = " ".join(problems_on_stderr(capsys))
    assert "basis.length" in text and "slope_threshold" in text and "density" in text


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["string", "rectangle", "fourier-cosine", "polynomial", "tabulated",
                       "separable", "3/2", "1/2+1/3", "inf", "nan", "0.1", "closed", "csv"])
)
_json = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _sub_object(keys):
    return st.fixed_dictionaries({}, optional={k: _json for k in keys}) | _json


_profile = st.fixed_dictionaries(
    {"type": st.sampled_from(["fourier-cosine", "polynomial", "tabulated", "separable"])},
    optional={"coeffs": _json, "x": _json, "y": _json, "terms": _json},
)
_configs = st.fixed_dictionaries(
    {},
    optional={
        "version": _json,
        "basis": _sub_object(["kind", "length", "a", "b"]),
        "density": st.fixed_dictionaries(
            {}, optional={"profile": _profile | _json, "lambda": _json}
        ) | _json,
        "truncation": _sub_object(["modes", "inner_discard"]),
        "orders": _json,
        "route": _json,
        "output": _sub_object(["format", "path"]),
        "slope_threshold": _json,
    },
) | st.dictionaries(st.text(max_size=6), _json, max_size=4)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_configs)
def test_any_json_object_loads_or_raises_config_error(config):
    class NoOverrides:
        pass

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))
        try:
            load_config(str(path), NoOverrides())
        except ConfigError as exc:
            assert exc.problems


def _side_profile(draw, length):
    """A 1D profile dict on [0, length] and an upper bound of its sup there."""
    kind = draw(st.sampled_from(["fourier-cosine", "polynomial", "tabulated"]))
    unit = st.floats(-1.0, 1.0)
    if kind == "fourier-cosine":
        coeffs = draw(st.lists(unit, min_size=1, max_size=4))
        return {"type": kind, "coeffs": coeffs}, sum(map(abs, coeffs))
    if kind == "polynomial":  # sum_p b_p (x / L)^p, whose coefficients may leave the doubles
        scaled = draw(st.lists(unit, min_size=1, max_size=8))
        with np.errstate(all="ignore"):
            coeffs = [float(np.float64(b) / np.float64(length) ** p) for p, b in enumerate(scaled)]
        return {"type": kind, "coeffs": coeffs}, sum(map(abs, scaled))
    # samples reach past both ends of [0, L]; np.interp holds the end values beyond them
    fractions = draw(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=5, unique=True))
    ys = draw(st.lists(unit, min_size=len(fractions), max_size=len(fractions)))
    return {"type": kind, "x": [f * length for f in sorted(fractions)], "y": ys}, max(map(abs, ys))


# flag text no setting takes: not a number, not integral, not finite, empty, no order or route
_wrong_text = st.sampled_from(["abc", "40.9", "-1", "nan", "1e999", "", ",", "3/0", "1+1/0", "bogus",
                               "1e99999999", "1e-400"])


@st.composite
def _runs(draw):
    """argv for any subcommand on a valid-looking config, with extreme sizes and strengths.

    Each setting with both a flag and a JSON path is drawn from one of the two; now and then a
    flag is given text of the wrong type or out of range instead.
    """
    length = (st.floats(-3.0, 3.0) | st.floats(-300.0, 300.0)).map(lambda e: 10.0**e)
    if draw(st.booleans()):
        side = draw(length)
        basis = {"kind": "string", "length": side}
        profile, sup = _side_profile(draw, side)
    else:
        a, b = draw(length), draw(length)
        (px, sup_x), (py, sup_y) = _side_profile(draw, a), _side_profile(draw, b)
        basis = {"kind": "rectangle", "a": a, "b": b}
        profile, sup = {"type": "separable", "terms": [{"x": px, "y": py}]}, sup_x * sup_y
    ratio = draw(st.floats(-1.0, 1.0))  # lambda * sup|sigma|, up to the bound
    lam = ratio / sup if 0.0 < sup < math.inf else ratio
    # 1/2 + 1/64 and 1 + 1/64 are next to the 1D and 2D divergences; 1/N + 1/N' may pass them
    n, n2 = draw(st.integers(2, 64)), draw(st.integers(2, 64))
    order = draw(st.sampled_from([f"1+1/{n}", f"1/2+1/{n}", f"1/{n}+1/{n2}"]))
    command = draw(st.sampled_from(["sumrule", "verify", "spectrum", "coeffs"]))
    lams = [abs(lam) / 4, abs(lam) / 2, abs(lam)] if command == "verify" else [lam]
    config, argv = {"basis": basis, "density": {"profile": profile}}, [command]
    modes = draw(st.integers(1, 40))
    shared = [("--modes", str(modes), "truncation.modes", modes), ("--s", order, "orders", [order]),
              ("--lambda", ",".join(repr(x) for x in lams), "density.lambda", lams)]
    if command == "sumrule":
        route = draw(st.sampled_from(ROUTES))
        shared.append(("--route", route, "route", route))
    if draw(st.booleans()):  # output.path, set where the run's directory is known
        config["output"] = {}
    for flag, token, path, value in shared:  # (flag, its token, JSON path, its value)
        if draw(st.booleans()):
            argv += [flag, draw(_wrong_text) if draw(st.integers(0, 7)) == 0 else token]
        else:
            section, _, key = path.rpartition(".")
            (config.setdefault(section, {}) if section else config)[key] = value
    if command == "coeffs":  # sigma^j up to j = 6: degree 7 polynomials to degree 42
        order = str(draw(st.integers(0, 6)))
        argv += ["--max-order", order if draw(st.integers(0, 7)) else draw(_wrong_text)]
    return config, argv


HUGE_POLYNOMIAL = {"type": "polynomial", "coeffs": [1e300]}
HUGE_TABULATED = {"type": "tabulated", "x": [0.0, 1.0], "y": [1e300, 1e300]}
HUGE_LAMBDA = ["--modes", "20", "--lambda", "1e-301"]
HUGE_LAMBDAS = ["--modes", "20", "--lambda", "1e-301,2e-301,4e-301"]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_runs())
# lambda^2 overflows while <sigma^2> underflows: z2 once was inf * 0, a NaN with exit 0
@example(({"basis": {"kind": "string", "length": 1.0},
           "density": {"profile": {"type": "tabulated", "x": [0.0, 1.0], "y": [0.0, 1.4681182666877972e-189]}}},
          ["sumrule", "--modes", "1", "--s", "1+1/2", "--route", "closed", "--lambda", "6.811440349802929e+188"]))
# lambda sigma is 0.0125, but lambda^2 overflows: the verify errors were once inf and the slope NaN
@example(({"basis": {"kind": "string", "length": 1.0}, "truncation": {"modes": 1}, "orders": ["1+1/2"],
           "density": {"profile": {"type": "tabulated", "x": [0.0, 1.0], "y": [0.0, 4.8659371951592836e-161]},
                       "lambda": [2.5688782034497304e+159, 5.137756406899461e+159, 1.0275512813798922e+160]}},
          ["verify"]))
# lambda sigma is 0.1, but sigma^2 overflows: the table of S_2 exits 3 with one JSON line,
# where numpy's warnings once came first, and the closed form and the fit scale S_1 first
@example(({"density": {"profile": HUGE_POLYNOMIAL}}, ["sumrule", "--route", "all", *HUGE_LAMBDA]))
@example(({"density": {"profile": HUGE_POLYNOMIAL}}, ["sumrule", "--route", "closed", *HUGE_LAMBDA]))
@example(({"density": {"profile": HUGE_POLYNOMIAL}}, ["verify", *HUGE_LAMBDAS]))
@example(({"density": {"profile": HUGE_TABULATED}}, ["sumrule", "--route", "all", *HUGE_LAMBDA]))
@example(({"density": {"profile": HUGE_TABULATED}}, ["sumrule", "--route", "closed", *HUGE_LAMBDA]))
@example(({"density": {"profile": HUGE_TABULATED}}, ["verify", *HUGE_LAMBDAS]))
@pytest.mark.filterwarnings("error")  # a warning would print before the one JSON line
def test_any_valid_looking_run_exits_cleanly(run):
    config, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path, target = Path(tmp) / "run.json", str(Path(tmp) / "out")
        if "output" in config:
            config = {**config, "output": {"path": target}}
        else:
            argv = [*argv, "--out", target]
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(path)])
        written = [p.read_text() for p in Path(tmp).rglob("*") if p.is_file() and p != path]
    if code == EXIT_SLOPE:  # a verify fit below the threshold: a verdict on stdout, not an error
        assert argv[0] == "verify" and err.getvalue() == ""
    elif code != EXIT_OK:
        assert code in (EXIT_VALIDATION, EXIT_NUMERICAL)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] in ("validation", "numerical")
    else:
        for text in [out.getvalue(), *written]:
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", text), text


@pytest.mark.parametrize("density, argv", [
    ({"profile": HUGE_POLYNOMIAL}, ["sumrule", "--route", "closed", *HUGE_LAMBDA]),
    ({"profile": HUGE_POLYNOMIAL}, ["verify", *HUGE_LAMBDAS]),
    ({"profile": HUGE_TABULATED}, ["verify", *HUGE_LAMBDAS]),
    ({"profile": {"type": "tabulated", "x": [0.0, 1.0], "y": [0.0, 4.8659371951592836e-161]},
      "lambda": [2.5688782034497304e+159, 5.137756406899461e+159, 1.0275512813798922e+160]},
     ["verify", "--modes", "1", "--s", "1+1/2"]),
], ids=["closed", "verify", "verify-tabulated", "verify-tiny-profile"])
def test_a_huge_profile_at_a_tiny_lambda_is_no_numerical_failure(tmp_path, capsys, density, argv):
    # sigma = 1e300 at lambda = 1e-301 is lambda sigma = 0.1: the closed form squares S_1 2^-e and
    # lambda 2^e, so it gives finite terms and verify a verdict, where S_1^2 once exited 3.  The
    # fit takes logs near -693 (and +367 for the tiny profile) in plain floats, with no warning
    cfg = write_config(tmp_path, density=density)
    code = main([*argv, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code in ((EXIT_OK,) if argv[0] == "sumrule" else (EXIT_OK, EXIT_SLOPE))
    assert out and not re.search(r"(?i)\b(nan|inf|infinity)\b", out), out


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_verify_exits_3_without_a_traceback_when_an_error_is_not_finite(tmp_path, monkeypatch, capsys, bad):
    # an oracle value outside the doubles makes that lambda's error, and so the fitted slope,
    # not finite: one JSON line on stderr and exit 3, never a ValueError from the logs
    from billzeta import oracle

    solve = oracle.oracle_sum_rule

    def spoiled(orders, table, lams):
        results = solve(orders, table, lams)
        results[1] = oracle.SumRuleResult(**{**vars(results[1]), "z0": bad})
        return results

    monkeypatch.setattr(oracle, "oracle_sum_rule", spoiled)
    code = main(["verify", "--lambda", "0.1,0.2,0.4",
                 "--config", str(write_config(tmp_path))])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert json.loads(err) == {"error": "numerical", "detail": "a verify error or slope is not finite"}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_quietly_with_its_exit_code(tmp_path, unbuffered):
    # stdout's reader has gone before the run writes (a `| head` that has read enough): the
    # run ends with the documented code and nothing on stderr, whether stdout is buffered or not
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "billzeta.cli", "sumrule", "--modes", "40", "--s", "1+1/2", "--lambda=0"],
            cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_BROKEN_PIPE, "")


COS_PROFILE = {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]}
# every JSON path that holds a number -> a config holding a numeric string there
NUMERIC_STRINGS = {
    "truncation.modes": {"truncation": {"modes": "20"}},
    "truncation.inner_discard": {"truncation": {"modes": 20, "inner_discard": "2"}},
    "density.lambda": {"density": {"profile": COS_PROFILE, "lambda": "0.1"}},
    "density.lambda[1]": {"density": {"profile": COS_PROFILE, "lambda": [0.05, "0.1"]}},
    "slope_threshold": {"slope_threshold": "2.7"},
    "basis.length": {"basis": {"kind": "string", "length": "1.0"}},
    "basis.a": {"basis": {"kind": "rectangle", "a": "1.0"}, "density": COS_2D_DENSITY},
    "basis.b": {"basis": {"kind": "rectangle", "b": "1.3"}, "density": COS_2D_DENSITY},
    "density.profile.coeffs[2]": {"density": {"profile": {"type": "fourier-cosine", "coeffs": [0, 0, "1"]}}},
    "density.profile.coeffs[0]": {"density": {"profile": {"type": "polynomial", "coeffs": ["0.5", 1]}}},
    "density.profile.x[1]": {"density": {"profile": {"type": "tabulated", "x": [0, "1"], "y": [0, 1]}}},
    "density.profile.y[0]": {"density": {"profile": {"type": "tabulated", "x": [0, 1], "y": ["0", 1]}}},
    "density.profile.terms[0].y.coeffs[0]": {"basis": {"kind": "rectangle"}, "density": {"profile": {
        "type": "separable", "terms": [{"x": COS_PROFILE, "y": {"type": "polynomial", "coeffs": ["1"]}}]}}},
}


def _numbers_for_strings(node):
    """node with each numeric string made the number it spells."""
    if isinstance(node, dict):
        return {key: _numbers_for_strings(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_numbers_for_strings(value) for value in node]
    return float(node) if isinstance(node, str) and node[:1].isdigit() else node


@pytest.mark.parametrize("where", NUMERIC_STRINGS)
def test_a_json_string_is_no_number(tmp_path, capsys, where):
    # a JSON value of the wrong type is a validation failure, however it spells a number; the
    # same config with the number itself loads
    sections = {"density": {"profile": COS_PROFILE}, **NUMERIC_STRINGS[where]}
    sections.setdefault("truncation", {"modes": 20})
    cfg = write_config(tmp_path, **sections)
    assert main(["sumrule", "--config", str(cfg), "--route", "closed", "--s", "1+1/2"]) == EXIT_VALIDATION
    assert [p for p in problems_on_stderr(capsys) if p.startswith(f"{where}: expected")]
    write_config(tmp_path, **_numbers_for_strings(sections))
    load_config(str(cfg), parse_args(["sumrule", "--route", "closed", "--s", "1+1/2"]))


def test_a_command_line_number_is_still_text(tmp_path):
    cfg = write_config(tmp_path, slope_threshold=2.7)
    args = parse_args(["verify", "--config", str(cfg), "--lambda", "0.02,0.04,0.08", "--threshold", "3.5"])
    loaded = load_config(str(cfg), args)
    assert (loaded.lam_list, loaded.slope_threshold) == ([0.02, 0.04, 0.08], 3.5)


def test_rectangle_side_bounds_bisect_once_per_geometry(tmp_path):
    # the memory pre-check counts the table and a walk step from the side bounds, and the
    # basis lists its modes from them: one bisection serves all three
    from billzeta.basis import _rectangle_side_bounds, build_sigma_table

    basis = {"kind": "rectangle", "a": 1.0, "b": 1.0 + 2.0**-20}  # a geometry no other test bisects
    cfg = write_config(tmp_path, basis=basis, density=COS_2D_DENSITY)
    before = _rectangle_side_bounds.cache_info()
    args = parse_args(["sumrule", "--config", str(cfg), "--modes", "137", "--route", "closed"])
    loaded = load_config(str(cfg), args)
    build_sigma_table(loaded.basis, loaded.profile, 2)
    after = _rectangle_side_bounds.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


ALL_COMMANDS = tuple(OPTIONS)
ORDER = RationalOrderSpec.parse
# a setting's kind -> (flag token, the value it gives, JSON value, the value it gives, wrong JSON value)
KIND_SAMPLES = {
    int: ("7", 7, 9, 9, "9"),
    float: ("3.5", 3.5, 3.75, 3.75, "3.75"),  # inside the slope gate's span [2.7, inf)
    str: ("x", "x", "y", "y", 5),
    "orders": ("1+1/4", [ORDER("1+1/4")], ["1/3+1/4"], [ORDER("1/3+1/4")], "3/2"),
    "numbers": ("0.1,0.2", [0.1, 0.2], [0.3], [0.3], ["0.3"]),
    None: (None, None, {"kind": "sample"}, {"kind": "sample"}, None),  # parsed by load_config's own code
}
WRONG_FLAG = {int: "x", float: "nan", "numbers": "nan"}  # a wrong value each kind's flag can be given
# a kind -> JSON values whose text, given to the flag, must read the same or fail the same; a
# choice takes each of its values and "bogus"
EQUAL_TEXT = {
    int: [7, -1, 40.0, 40.9, 2**53 + 1, 1e300, math.inf],
    float: [0.5, 3, 1e-320, 1e300, math.nan],
    str: ["x", ""],
    "orders": [["3/2", "1+1/4"], ["0.9"]],
    "numbers": [[0.1, 0.2], [40, 2.5e-3, math.nan], [], 0.5],
}


def _samples(row):
    if isinstance(row.kind, tuple):  # a choice: the flag takes the last, JSON the first
        samples = (row.kind[-1], row.kind[-1], row.kind[0], row.kind[0], "bogus")
    else:
        samples = KIND_SAMPLES[row.kind]
    if row.switch is not None:  # the flag takes no value
        samples = (None, row.switch, *samples[2:])
    wrong = "bogus" if isinstance(row.kind, tuple) and row.switch is None else WRONG_FLAG.get(row.kind)
    return (*samples, wrong)


def _text(value):
    """The command-line text of a JSON value: a string as it is, a list comma-joined, a number as JSON."""
    if isinstance(value, str):
        return value
    return ",".join(map(_text, value)) if isinstance(value, list) else json.dumps(value)


def _json_at(path, value):
    section, _, key = path.rpartition(".")
    return {section: {key: value}} if section else {key: value}


@pytest.mark.parametrize("dest", list(cli._SETTINGS))
def test_each_setting_takes_its_flag_then_its_json_then_its_default(dest):
    # one pass over the settings table: a row added later is covered with no new test
    row = cli._SETTINGS[dest]
    token, from_flag, json_value, from_json, wrong_json, wrong_flag = _samples(row)

    def read(argv, data):
        problems = []
        nodes = {"": data, **{name: data.get(name, {}) for name in cli._KEYS if name}}
        return cli._setting(dest, parse_args([row.commands[0], *argv]), nodes, problems), problems

    default = [ORDER(t) for t in row.default] if row.kind == "orders" else row.default
    flag = [row.flag] if row.switch is not None else [row.flag, token]
    assert read([], {}) == (default, [])
    if row.flag:
        assert read(flag, {}) == (from_flag, [])
    if row.path:
        assert read([], _json_at(row.path, json_value)) == (from_json, [])
    if row.flag and row.path:
        assert read(flag, _json_at(row.path, json_value)) == (from_flag, [])
    if row.path and wrong_json is not None:
        _, problems = read([], _json_at(row.path, wrong_json))
        assert problems and problems[0].startswith(row.path)
    if row.span:  # just outside the range: its upper end, or below one with no upper end
        outside = row.span[1] if math.isfinite(row.span[1]) else row.span[0] - 1
        argv, data = ([row.flag, str(outside)], {}) if row.flag else ([], _json_at(row.path, outside))
        _, problems = read(argv, data)
        assert problems and problems[0].startswith(row.flag or row.path)
    if row.flag and wrong_flag is not None:
        _, problems = read([row.flag, wrong_flag], {})
        assert problems and problems[0].startswith(row.flag)
    if row.flag and row.path and row.switch is None:
        # one rule for both sources: the flag's text and the JSON value agree, on the value or the problem
        for value in EQUAL_TEXT[row.kind] if row.kind in EQUAL_TEXT else [*row.kind, "bogus"]:
            texts = value if row.kind == "orders" else [_text(value)]
            from_text, text_problems = read([token for t in texts for token in (row.flag, t)], {})
            from_value, value_problems = read([], _json_at(row.path, value))
            assert from_text == from_value
            assert [p.replace(row.flag, row.path).split(", got ")[0] for p in text_problems] == [
                p.split(", got ")[0] for p in value_problems
            ]


def test_readme_settings_table_lists_every_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = ["| Flag | JSON path | Default | Commands |", "| --- | --- | --- | --- |"]
    for row in cli._SETTINGS.values():
        default = "" if row.default is None else f"`{json.dumps(row.default)}`"
        commands = "" if not row.flag else "all" if row.commands == ALL_COMMANDS else ", ".join(row.commands)
        cells = [f"`{row.flag}`" if row.flag else "", f"`{row.path}`" if row.path else "", default, commands]
        lines.append("|" + "|".join(f" {cell} " if cell else " " for cell in cells) + "|")
    assert "\n".join(lines) in readme


def test_the_resummed_mode_is_gone(tmp_path, capsys):
    assert main(["sumrule", "--modes", "20", "--resummed"]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == ["unrecognized arguments: --resummed"]
    cfg = write_config(tmp_path, diagonal_mode="truncated")
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION
    assert problems_on_stderr(capsys) == ["unknown config keys ['diagonal_mode']"]


def test_readme_example_config_and_command_lines_load():
    # a key or flag removed from the program but left in README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration files", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = Path("run.json")
    path.write_text(example)
    assert load_config(str(path), parse_args(["sumrule"])).orders
    lines = [line.split() for line in readme.splitlines() if line.startswith("billzeta ")]
    assert [words[1] for words in lines] == list(OPTIONS)
    for words in lines:
        args = parse_args(words[1:])
        assert load_config(args.config, args).basis is not None
