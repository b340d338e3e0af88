"""The benchmark's workload invocations, run in-process, still print their reference outputs.

Each workload's argv from ``perfbench/workloads.py`` goes through ``cli.main``,
and its stdout is checked by that module's ``check_output`` against
``perfbench/references.json``; neither file is written.
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


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_output_matches_its_reference(tmp_path, capsys, name):
    workload = WORKLOADS.WORKLOADS[name]
    config = tmp_path / "config.json"
    WORKLOADS.write_config(workload, config)
    argv = workload.argv(0, str(config), str(tmp_path / "cache"))
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert WORKLOADS.check_output(workload, out, REFERENCES[name]) == []
