"""The benchmark's workloads: CLI arguments made from a seed, and output checks.

Every workload is a fixed set of `billzeta` CLI invocations.  The seed only
permutes the order in which the `--s` and `--lambda` values are given, so
each seed does the same work and yields the same records (checked by key,
not by position).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

COS_1D = {
    "basis": {"kind": "string", "length": 1.0},
    "density": {"profile": {"type": "fourier-cosine", "coeffs": [0, 0, 1]}},
}
COS_2D = {
    "basis": {"kind": "rectangle", "a": 1.0, "b": 1.3},
    "density": {
        "profile": {
            "type": "separable",
            "terms": [
                {
                    "x": {"type": "fourier-cosine", "coeffs": [0, 0, 1]},
                    "y": {"type": "fourier-cosine", "coeffs": [0, 0, 1]},
                }
            ],
        }
    },
}
POLY_1D = {
    "basis": {"kind": "string", "length": 1.0},
    "density": {"profile": {"type": "polynomial", "coeffs": [0, 4, -4]}},
}

# Stored references must match to this relative tolerance.  It is tighter
# than the acceptance suite's route agreement (1e-8) and still admits
# rounding-level changes (about 1e-13) in the library.
REFERENCE_RTOL = 1e-10
# Closed form against a trace route in one run (acceptance criterion 5).
ROUTE_RTOL = 1e-8
# Oracle against the closed form, used only when references are generated:
# the oracle differs by O(lambda^3) (acceptance criterion 7's bound).
ORACLE_RTOL = 1e-3
SLOPE_MIN = 2.7

CLOSED = "closed-form"
TRACE_ROUTES = ("trace-one-plus-inv", "trace-inv-sum")
ORACLE = "oracle"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sumrule" or "verify"
    route: str | None
    orders: tuple
    lambdas: tuple
    modes: int
    config: dict
    warm: bool  # True: one shared cache filled before timing; False: an empty cache per invocation
    zeta_values: int  # Z(s) values one invocation computes

    def argv(self, seed: int, config_path: str, cache_dir: str) -> list:
        """CLI arguments; the seed permutes the order of the orders and lambdas."""
        orders, lambdas = list(self.orders), list(self.lambdas)
        rng = random.Random(seed)
        rng.shuffle(orders)
        rng.shuffle(lambdas)
        args = [self.command, "--config", config_path, "--cache-dir", cache_dir]
        args += ["--modes", str(self.modes)]
        if self.route is not None:
            args += ["--route", self.route]
        for order in orders:
            args += ["--s", order]
        args += ["--lambda", ",".join(lambdas)]
        return args


LAMBDAS_1D = ("0.02", "0.04", "0.08", "0.16")

# Why each workload exists is in BENCHMARK.json.  M is chosen so that one
# invocation takes about 2 s on a 2-core x86-64 VM, which gives several
# invocations per run.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-1d",
            "sumrule", "all", ("3/2", "1+1/4", "1/2+1/3"), LAMBDAS_1D, 200, COS_1D,
            warm=True, zeta_values=36,
        ),
        Workload(
            "trace-2d",
            "sumrule", "trace1", ("1+1/2", "1+1/8"), ("0.05", "0.1"), 500, COS_2D,
            warm=True, zeta_values=4,
        ),
        Workload(
            "closed-large-1d",
            "sumrule", "closed", ("3/2", "1+1/8", "1/2+1/3"), LAMBDAS_1D, 1500, COS_1D,
            warm=False, zeta_values=12,
        ),
        Workload(
            "verify-poly-1d",
            "verify", None, ("3/2",), LAMBDAS_1D, 300, POLY_1D,
            warm=False, zeta_values=8,
        ),
    )
}


def write_config(workload: Workload, path) -> None:
    with open(path, "w") as fh:
        json.dump(workload.config, fh)


def record_key(route: str, order: str, lam: float) -> str:
    return f"{route}|{order}|{lam:g}"


def parse_sumrule(stdout: str) -> dict:
    """Map record_key -> z_total for the CSV records of a sumrule run."""
    lines = stdout.splitlines()
    if not lines:
        return {}
    header = lines[0].split(",")
    out = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            break  # the pairwise-difference summary follows the records
        row = dict(zip(header, fields))
        out[record_key(row["route"], row["order_label"], float(row["lam"]))] = float(row["z_total"])
    return out


def parse_verify(stdout: str) -> tuple:
    """(lambda -> abs_error, slope, verdict) from a verify run."""
    errors, slope, verdict = {}, None, None
    for line in stdout.splitlines():
        key, _, value = line.partition(",")
        if key == "slope":
            slope = float(value)
        elif key == "verdict":
            verdict = value
        elif value and key not in ("lambda", "threshold") and not key.startswith("#"):
            errors[f"{float(key):g}"] = float(value)
    return errors, slope, verdict


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def route_problems(records: dict) -> list:
    """Closed form and trace routes of the same (order, lambda) must agree."""
    problems = []
    for key, z in records.items():
        route, rest = key.split("|", 1)
        closed = records.get(f"{CLOSED}|{rest}")
        if route in TRACE_ROUTES and closed is not None and _rel(z, closed) > ROUTE_RTOL:
            problems.append(f"{key}: {z!r} vs closed form {closed!r}")
    return problems


def check_output(workload: Workload, stdout: str, reference: dict) -> list:
    """Every way an invocation's output is wrong, as a list of messages."""
    if reference.get("modes") != workload.modes:
        return [f"reference is for M={reference.get('modes')}, run uses M={workload.modes}"]
    if workload.command == "verify":
        errors, slope, verdict = parse_verify(stdout)
        problems = []
        if verdict != "PASS" or slope is None or not slope >= SLOPE_MIN:
            problems.append(f"verdict {verdict}, slope {slope}")
        expected = reference["abs_error"]
        if set(errors) != set(expected):
            problems.append(f"lambda set {sorted(errors)} != {sorted(expected)}")
        tol = REFERENCE_RTOL * reference["z_scale"]
        for lam, err in errors.items():
            if lam in expected and not abs(err - expected[lam]) <= tol:
                problems.append(f"abs_error at lambda={lam}: {err!r} vs {expected[lam]!r}")
        return problems
    records = parse_sumrule(stdout)
    expected = reference["z_total"]
    problems = route_problems(records)
    if set(records) != set(expected):
        problems.append(f"records {sorted(records)} != {sorted(expected)}")
    for key, z in records.items():
        if key in expected and not _rel(z, expected[key]) <= REFERENCE_RTOL:
            problems.append(f"{key}: {z!r} vs reference {expected[key]!r}")
    return problems
