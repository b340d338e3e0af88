import json
import os
import subprocess
import sys
import types
from pathlib import Path

import billzeta


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(billzeta).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(billzeta.__all__) == sorted(public)
    assert len(set(billzeta.__all__)) == len(billzeta.__all__)
    for name in billzeta.__all__:
        assert getattr(billzeta, name) is not None


def test_sumrule_and_verify_leave_numpy_polynomial_unimported(tmp_path):
    # the quadrature's Gauss-Legendre panel is a literal rule: no run imports numpy.polynomial,
    # whose import costs memory on every run
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"density": {"profile": {"type": "polynomial", "coeffs": [0, 4, -4]}}}))
    script = (
        "import sys\n"
        "from billzeta.cli import main\n"
        "assert main(['sumrule', '--route', 'all', '--modes', '60', '--s', '3/2', '--s', '1+1/4',\n"
        "             '--s', '1/2+1/3', '--lambda', '0.05,0.1', '--out', 'r.csv']) == 0\n"
        f"assert main(['verify', '--config', {str(poly)!r}, '--modes', '100', '--s', '3/2',\n"
        "             '--lambda', '0.02,0.04,0.08,0.16']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(billzeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
