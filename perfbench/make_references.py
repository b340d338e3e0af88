"""Write references.json: the expected output of every workload.

    python3 perfbench/make_references.py

Runs each workload once and checks every value against the closed-form
route before anything is written: trace routes to ROUTE_RTOL, oracle values
to ORACLE_RTOL, and each verify error against |closed - oracle| from a
sumrule run of the same inputs.  The references pin the program's output at
the commit they were made on; remake them only for a change that is meant to
move results by more than REFERENCE_RTOL.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, child_env
from workloads import (
    CLOSED,
    ORACLE,
    ORACLE_RTOL,
    REFERENCE_RTOL,
    ROUTE_RTOL,
    WORKLOADS,
    Workload,
    check_output,
    parse_sumrule,
    parse_verify,
    record_key,
    write_config,
)


def _cli(workload: Workload, work: Path) -> str:
    config = work / "config.json"
    write_config(workload, config)
    args = workload.argv(0, str(config), str(work / "cache"))
    proc = subprocess.run(
        [sys.executable, "-m", "billzeta.cli", *args],
        cwd=work, env=child_env(), capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload.name}: exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _checked(name: str, value: float, expected: float, tol: float) -> None:
    if not abs(value - expected) <= tol:
        raise RuntimeError(f"{name}: {value!r} differs from the closed-form route's {expected!r}")


def reference_for(workload: Workload, work: Path) -> dict:
    """The workload's reference, cross-checked against the closed-form route."""
    own = _cli(workload, work)
    as_sumrule = dataclasses.replace(workload, command="sumrule")
    closed = parse_sumrule(_cli(dataclasses.replace(as_sumrule, route="closed"), work))
    if workload.command == "verify":
        errors, _, _ = parse_verify(own)
        oracle = parse_sumrule(_cli(dataclasses.replace(as_sumrule, route="oracle"), work))
        z_scale = max(abs(z) for z in closed.values())
        for key, z in closed.items():
            _, order, lam = key.split("|")
            gap = abs(z - oracle[record_key(ORACLE, order, float(lam))])
            _checked(f"verify error at lambda={lam}", errors[lam], gap, REFERENCE_RTOL * z_scale)
        reference = {"modes": workload.modes, "abs_error": errors, "z_scale": z_scale}
    else:
        records = parse_sumrule(own)
        for key, z in records.items():
            route, order, lam = key.split("|")
            expected = closed[record_key(CLOSED, order, float(lam))]
            rtol = ORACLE_RTOL if route == ORACLE else ROUTE_RTOL
            _checked(key, z, expected, rtol * abs(expected))
        reference = {"modes": workload.modes, "z_total": records}
    problems = check_output(workload, own, reference)
    if problems:
        raise RuntimeError(f"{workload.name}: {problems}")
    return reference


def main() -> int:
    references = {}
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=BENCH) as work:
            references[workload.name] = reference_for(workload, Path(work))
    (BENCH / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
