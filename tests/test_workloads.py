"""The benchmark's workload invocations, run in-process, still print their reference outputs.

Each workload's argv from ``perfbench/workloads.py``, at seeds 0, 1 and 2,
goes through ``cli.main``, and its stdout is checked by that module's
``check_output`` against ``perfbench/references.json``; neither file is
written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from billzeta import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through it
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCES = json.loads((BENCH / "references.json").read_text())


# the benchmark picks the seed, which permutes the order of --s and --lambda; seed 0 keeps the bare name
CASES = [pytest.param(name, seed, id=name if seed == 0 else f"{name}-seed{seed}")
         for name in sorted(WORKLOADS.WORKLOADS) for seed in (0, 1, 2)]


@pytest.mark.parametrize("name, seed", CASES)
def test_workload_output_matches_its_reference(tmp_path, capsys, name, seed):
    workload = WORKLOADS.WORKLOADS[name]
    config = tmp_path / "config.json"
    WORKLOADS.write_config(workload, config)
    argv = workload.argv(seed, str(config), str(tmp_path / "cache"))
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert WORKLOADS.check_output(workload, out, REFERENCES[name]) == []
