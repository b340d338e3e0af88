import argparse
import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from billzeta.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SLOPE,
    EXIT_VALIDATION,
    _build_parser,
    load_config,
    main,
)
from billzeta.errors import ConfigError


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
RECT_DENSITY = {
    "profile": {"type": "separable", "terms": [{
        "x": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]},
        "y": {"type": "fourier-cosine", "coeffs": [0.0, 0.0, 1.0]},
    }]},
    "lambda": 0.1,
}


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
    assert row["order_label"] == "1+1/2"
    assert float(row["z0"]) != 0.0 and float(row["z1"]) != 0.0
    assert float(row["z2"]) != 0.0


def test_sumrule_json_output_with_differences(tmp_path):
    cfg = write_config(tmp_path, output={"format": "json", "path": str(tmp_path / "o.json")})
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_OK
    doc = json.loads((tmp_path / "o.json").read_text())
    assert {r["route"] for r in doc["results"]} == {
        "closed-form", "trace-one-plus-inv", "oracle",
    }
    assert doc["differences"]
    pair_diffs = {d["pair"]: d["abs_difference"] for d in doc["differences"]}
    assert pair_diffs["closed-vs-trace1"] < 1e-12


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
    from billzeta.coefficients import q_closed_form

    basis = ModeBasis(String1D(1.0), 12)
    table = build_sigma_table(basis, FourierCosine((0.0, 0.0, 1.0)), 2)
    expected = q_closed_form(3, 2, table, basis)
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


def test_quadrature_failure_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        density={"profile": {"type": "polynomial", "coeffs": [0.0, 1.0]}, "lambda": 0.1},
        truncation={"modes": 64, "quadrature_nodes": 48},
        route="closed",
    )
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_NUMERICAL
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["error"] == "numerical"


def problems_on_stderr(capsys):
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "validation"
    return doc["problems"]


@pytest.mark.parametrize("route", ["closed", "oracle"])
def test_non_finite_lambda_exits_2(tmp_path, capsys, route):
    rc = main(["sumrule", "--s", "3/2", "--lambda", "nan", "--route", route, "--modes", "20"])
    assert rc == EXIT_VALIDATION
    assert any("--lambda" in p for p in problems_on_stderr(capsys))


def test_modes_flag_zero_exits_2(tmp_path, capsys):
    assert main(["spectrum", "--modes", "0", "--lambda", "0.1"]) == EXIT_VALIDATION
    assert any("mode_count" in p for p in problems_on_stderr(capsys))


@pytest.mark.parametrize("nodes", [-5, 0])
def test_nonpositive_quadrature_nodes_exit_2(tmp_path, capsys, nodes):
    # such a plan would defeat the quadrature self-check (see test_basis)
    cfg = write_config(
        tmp_path,
        density={"profile": {"type": "polynomial", "coeffs": [0.0, 1.0, -1.0]}, "lambda": 0.1},
        truncation={"modes": 40, "quadrature_nodes": nodes},
        route="closed",
    )
    assert main(["sumrule", "--config", str(cfg)]) == EXIT_VALIDATION
    assert any(p.startswith("truncation.quadrature_nodes") for p in problems_on_stderr(capsys))


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
     ("truncation", "quadrature_nodes", 1.9), ("truncation", "inner_discard", 2.5),
     ("truncation", "top_discard_fraction", False), ("density", "lambda", True),
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
    assert any(p.startswith("truncation.modes") for p in problems_on_stderr(capsys))


def test_oversized_rectangle_modes_exit_2_before_listing_modes(tmp_path, capsys):
    # the rectangle table is counted from a bound on its side factors, no mode listed
    from billzeta.basis import _enumerate_rectangle_modes

    misses = _enumerate_rectangle_modes.cache_info().misses
    cfg = write_config(tmp_path, basis={"kind": "rectangle"}, density=RECT_DENSITY)
    rc = main(["sumrule", "--config", str(cfg), "--modes", "100000000", "--route", "closed"])
    assert rc == EXIT_VALIDATION
    assert any(p.startswith("truncation.modes") for p in problems_on_stderr(capsys))
    assert _enumerate_rectangle_modes.cache_info().misses == misses


def test_working_set_counted_before_allocating(tmp_path, monkeypatch, capsys):
    from billzeta import cli

    def never(*args, **kwargs):
        raise AssertionError("build_sigma_table called")

    m = 100
    # the dense 3-matrix table fits; table plus the oracle's working set does not
    monkeypatch.setattr(cli, "_physical_memory", lambda: 4 * m * m * 8)
    monkeypatch.setattr(cli, "build_sigma_table", never)
    cfg = write_config(tmp_path)
    rc = main(["sumrule", "--config", str(cfg), "--modes", str(m), "--route", "oracle"])
    assert rc == EXIT_VALIDATION
    assert any(p.startswith("truncation.modes") for p in problems_on_stderr(capsys))


def test_string_closed_form_counts_the_band_for_every_profile(tmp_path, monkeypatch):
    # a polynomial string table is cosine coefficients too: the closed form holds
    # about 2 M^2 doubles of band, not a dense 3-matrix table plus its working set
    from billzeta import cli

    m = 100
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
    ("sumrule", "closed", "rectangle"),
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
                       density={"profile": profile, "lambda_list": [0.04, 0.08, 0.16]})
    monkeypatch.setattr(cli, "build_sigma_table", never)
    assert main([command, "--config", str(cfg), "--modes", "100000"]) == EXIT_VALIDATION
    assert any(p.startswith("truncation.modes") for p in problems_on_stderr(capsys))


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

    def exhausted(eps, d, s, weights=None):
        raise MemoryError()  # numpy's own can stringify to ""

    monkeypatch.setattr(sumrules, "kernel_diagonal", exhausted)
    rc = main(["sumrule", "--s", "3/2", "--lambda", "0.1", "--route", "closed", "--modes", "20"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err.strip()
    assert json.loads(err) == {"error": "numerical", "detail": "out of memory"}


def test_sumrule_sweep_forms_each_invariant_once(tmp_path, monkeypatch):
    from billzeta import coefficients, oracle, sumrules

    calls = {
        "kernel_diagonal": 0, "Q_trace_terms": 0, "trace_terms": [], "solve_spectrum": 0,
        "build_Q_series": 0, "q_generic_recursion": 0,
    }
    kernel_pairs = set()

    def counted(fn):
        def wrapper(*args, **kwargs):
            if fn.__name__ == "trace_terms":
                calls["trace_terms"].append(args[0])
            else:
                calls[fn.__name__] += 1
            if fn.__name__ == "kernel_diagonal":
                kernel_pairs.add((args[2], args[1]))  # (s, d)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in (
        (sumrules, "kernel_diagonal"), (sumrules, "Q_trace_terms"), (sumrules, "trace_terms"),
        (oracle, "solve_spectrum"), (coefficients, "build_Q_series"),
        (coefficients, "q_generic_recursion"),
    ):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    argv = ["sumrule", "--route", "all", "--modes", "24", "--lambda", "0.02,0.04,0.08,0.16"]
    for order in ("3/2", "1+1/4", "1/2+1/3"):
        argv += ["--s", order]
    assert main(argv) == EXIT_OK
    # one kernel diagonal per distinct (s, d), d = 0..2 for cos(2 pi x), one set of Q terms
    # (N = 1), one q set per distinct N (2, 4, 3), one spectrum per lambda, and no dense
    # coefficient series at all
    assert len(kernel_pairs) == 9
    assert calls == {
        "kernel_diagonal": 9, "Q_trace_terms": 1, "trace_terms": [2, 4, 3], "solve_spectrum": 4,
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
    loaded = load_config(str(cfg), _build_parser().parse_args(argv))
    need = _memory_need("sumrule", route, loaded.basis.domain, loaded.profile, m, loaded.orders, 2)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
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
    loaded = load_config(str(cfg), _build_parser().parse_args(argv))
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
            {}, optional={"profile": _profile | _json, "lambda": _json, "lambda_list": _json}
        ) | _json,
        "truncation": _sub_object(
            ["modes", "quadrature_nodes", "inner_discard", "top_discard_fraction"]
        ),
        "orders": _json,
        "route": _json,
        "diagonal_mode": _json,
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
