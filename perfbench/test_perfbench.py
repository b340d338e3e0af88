"""The benchmark's own tests, at a tiny truncation M.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import make_references
import run
import tracer
from workloads import WORKLOADS

TINY_M = {"sweep-1d": 24, "trace-2d": 30, "closed-large-1d": 40, "verify-poly-1d": 100}

# Useful-work ratios as (distinct, calls); they do not depend on M.
EXPECTED_KEYS = {
    "sweep-1d": {"oracle.spectrum": (4, 12), "coefficients.q_set": (3, 16), "sumrules.kernel": (3, 12)},
    "trace-2d": {"coefficients.q_set": (2, 4)},
    "closed-large-1d": {"sumrules.kernel": (3, 12)},
    "verify-poly-1d": {"oracle.spectrum": (4, 4)},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], modes=TINY_M[name])


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    out = {}
    for name in WORKLOADS:
        work = tmp_path_factory.mktemp(f"ref-{name}")
        out[name] = make_references.reference_for(tiny(name), work)
    return out


def bench(name, trace, reference, out_dir):
    return run.run(tiny(name), 7, 0, trace, reference, out_dir, run.now() + 120)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_reports_every_metric_with_its_unit(name, references, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = bench(name, trace, references[name], tmp_path)["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_INVOCATIONS
        units = run.declared(kind)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_and_cache_state(name, references, tmp_path):
    record = bench(name, True, references[name], tmp_path)
    measured = record["measured"]
    for prefix, (distinct, calls) in EXPECTED_KEYS[name].items():
        assert measured[f"{prefix}_distinct"] == distinct
        assert measured[f"{prefix}_useful_ratio"] == pytest.approx(distinct / calls)
    warm = WORKLOADS[name].warm
    assert measured["basis.table_cache_hit_ratio"] == (1.0 if warm else 0.0)
    assert (measured["basis.cache_bytes_written"] == 0) == warm
    assert record["absent"] == []
    assert measured["trace.self_sum_s"] + measured["trace.untraced_s"] == pytest.approx(
        measured["trace.wall_s"], rel=0.05
    )


def test_wrong_reference_is_an_error_not_a_pass(references, tmp_path):
    wrong = json.loads(json.dumps(references["sweep-1d"]))
    key = sorted(wrong["z_total"])[0]
    wrong["z_total"][key] *= 1 + 1e-7
    result = bench("sweep-1d", False, wrong, tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_verify_reference_is_checked(references, tmp_path):
    wrong = json.loads(json.dumps(references["verify-poly-1d"]))
    lam = sorted(wrong["abs_error"])[0]
    wrong["abs_error"][lam] *= 1.5
    result = bench("verify-poly-1d", False, wrong, tmp_path)["result"]
    assert result["failed"] == result["attempted"] > 0


def test_child_patches_every_binding_site(tmp_path):
    out = tmp_path / "trace.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKLOADS["sweep-1d"].config))
    args = ["sumrule", "--config", str(config), "--cache-dir", str(tmp_path / "cache"),
            "--modes", "12", "--route", "all", "--s", "1/2+1/3", "--lambda", "0.1"]
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "child.py"), str(out), "layers", *args],
        env=run.child_env(), cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    for site in ("cli.build_sigma_table", "oracle.build_sigma_table", "oracle.cholesky_lower",
                 "oracle.solve_lower", "oracle.z_closed_form", "coefficients.eta_matrix",
                 "coefficients.delta_matrix"):
        assert f"billzeta.{site}" in doc["sites"]
    names = {span[0] for span in doc["spans"]}
    assert {"eigensolve.cholesky_lower", "kernels.eta_matrix", "oracle.solve_spectrum"} <= names
    assert min(tracer.self_times(doc["spans"])) >= 0.0


def test_absent_targets_are_reported(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("no_such_layer",))
    t = tracer.Tracer(only={"eigensolve.no_such_function"})
    t.install()
    assert t.wrapped == []
    assert "no_such_layer" in t.absent
    assert "eigensolve.no_such_function" in t.absent


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_seed_permutes_inputs_only():
    w = WORKLOADS["sweep-1d"]

    def parts(args):
        at = args.index("--lambda")
        return sorted(args[:at]), sorted(args[at + 1].split(","))

    a, b = w.argv(1, "c.json", "cache"), w.argv(2, "c.json", "cache")
    assert a == w.argv(1, "c.json", "cache")
    assert parts(a) == parts(b)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_to_the_reference_speed():
    def inv(wall_s):
        return run.Invocation("setup", 0, wall_s, wall_s, 50.0, 0, [], 0.0, None, 0.5)

    w = WORKLOADS["sweep-1d"]
    runs = [inv(2.0), inv(3.0), inv(4.0)]
    scaled, unscaled = run.end_to_end(w, runs), run.end_to_end(w, runs, scaled=False)
    assert (scaled["wall_s"], unscaled["wall_s"]) == (1.5, 3.0)
    assert (scaled["cpu_s"], unscaled["cpu_s"]) == (1.5, 3.0)
    assert scaled["zeta_per_s"] == w.zeta_values / 1.5
    assert scaled["peak_rss_mib"] == unscaled["peak_rss_mib"] == 50.0


def test_calibration_process_times_the_task_and_ends():
    with run.Calibration() as calibrate:
        assert calibrate.environment["blas_threads"]["OPENBLAS_NUM_THREADS"] == run.BLAS_THREADS
        assert calibrate() > 0.0
    assert calibrate.proc.returncode == 0
