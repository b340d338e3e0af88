import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import billzeta
from billzeta import (
    DensityPerturbation,
    FourierCosine,
    ModeBasis,
    Polynomial,
    RationalOrderSpec,
    Rectangle2D,
    Separable2D,
    String1D,
    SumRuleResult,
    Tabulated,
    ValidationError,
    build_Q_series,
    build_sigma_table,
    q_generic_recursion,
)
from billzeta.cli import RunConfig


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
    # the oracle's Gauss-Legendre panel is a literal rule: no run imports numpy.polynomial,
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
    assert _last_line_of_fresh_run(script, tmp_path) == "[]"


def test_piecewise_tables_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (about 1.3 MiB of peak RSS): the exact tables cut their
    # pieces without it, tabulated samples past both ends included
    table = tmp_path / "table.json"
    profile = {"type": "tabulated", "x": [-0.5, 0.25, 0.5, 1.5], "y": [0.0, 1.0, -0.5, 0.3]}
    table.write_text(json.dumps({"density": {"profile": profile}}))
    script = (
        "import sys\n"
        "from billzeta.cli import main\n"
        f"assert main(['sumrule', '--config', {str(table)!r}, '--route', 'all', '--modes', '60',\n"
        "             '--s', '3/2', '--lambda', '0.1', '--out', 'r.csv']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _last_line_of_fresh_run(script, tmp_path) == "False"


def _last_line_of_fresh_run(script, cwd):
    """Run script in a new interpreter that imports this checkout's billzeta; its last stdout line."""
    src = str(Path(billzeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_cli_run_leaves_dataclasses_unimported(tmp_path):
    # the classes take their methods from billzeta._record, which compiles no code at import
    script = (
        "import sys\n"
        "from billzeta.cli import main\n"
        "assert main(['sumrule', '--route', 'all', '--modes', '40', '--s', '3/2', '--s', '1/2+1/3',\n"
        "             '--lambda', '0.05,0.1', '--out', 'r.csv']) == 0\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert _last_line_of_fresh_run(script, tmp_path) == "False"


def test_cli_runs_leave_argparse_gettext_and_locale_unimported(tmp_path):
    # the options are parsed from one table: argparse, and the gettext and locale it loads,
    # would cost every run a few milliseconds of start-up
    script = (
        "import sys\n"
        "from billzeta.cli import main\n"
        "assert main(['sumrule', '--route', 'all', '--modes', '40', '--s', '3/2', '--s', '1/2+1/3',\n"
        "             '--lambda', '0.05,0.1', '--out', 'r.csv']) == 0\n"
        "assert main(['verify', '--modes', '60', '--s', '3/2', '--lambda', '0.02,0.04,0.08,0.16',\n"
        "             '--out', 'v.csv']) == 0\n"
        "print(sorted(name for name in ('argparse', 'gettext', 'locale') if name in sys.modules))\n"
    )
    assert _last_line_of_fresh_run(script, tmp_path) == "[]"


COS = FourierCosine((0, 0, 1))
RESULT_FIELDS = {
    "s": 1.5, "lam": 0.1, "z0": 1.0, "z1": 0.5, "z2": 0.25,
    "tail_estimate": 0.01, "truncation": 40, "route": "closed-form", "order_label": "1+1/2",
}

# class, fields without a default, fields with one (given values, then the defaults),
# repr with the given values, and invalid fields with the ValidationError each raises
VALUE_CLASSES = [
    (String1D, {}, {"length": 2.0}, {"length": 1.0}, "String1D(length=2.0)",
     [({"length": 0.0}, "string length must be finite"), ({"length": math.inf}, "string length")]),
    (Rectangle2D, {}, {"a": 1.0, "b": 1.3}, {"a": 1.0, "b": 1.0}, "Rectangle2D(a=1.0, b=1.3)",
     [({"a": -1.0}, "rectangle sides must be finite"), ({"b": math.nan}, "rectangle sides")]),
    (ModeBasis, {"domain": String1D(), "mode_count": 20}, {}, {},
     "ModeBasis(domain=String1D(length=1.0), mode_count=20)",
     [({"domain": String1D(), "mode_count": 0}, "mode_count must be >= 1")]),
    (FourierCosine, {}, {"coeffs": [0, 0, 1]}, {"coeffs": ()}, "FourierCosine(coeffs=(0.0, 0.0, 1.0))", []),
    (Polynomial, {}, {"coeffs": (0, 4, -4)}, {"coeffs": ()}, "Polynomial(coeffs=(0.0, 4.0, -4.0))", []),
    (Tabulated, {"xs": (0, 0.5, 1), "ys": (1, 2, 1)}, {}, {}, "Tabulated(xs=(0.0, 0.5, 1.0), ys=(1.0, 2.0, 1.0))",
     [({"xs": (0,), "ys": (1,)}, "needs >= 2 matching samples"),
      ({"xs": (0, 1), "ys": (1, 2, 3)}, "needs >= 2 matching samples"),
      ({"xs": (1, 0), "ys": (0, 1)}, "strictly increasing")]),
    (Separable2D, {"terms": [(COS, Polynomial((1,)))]}, {}, {},
     "Separable2D(terms=((FourierCosine(coeffs=(0.0, 0.0, 1.0)), Polynomial(coeffs=(1.0,))),))", []),
    (DensityPerturbation, {"profile": COS}, {"lam": 0.1}, {"lam": 0.0},
     "DensityPerturbation(profile=FourierCosine(coeffs=(0.0, 0.0, 1.0)), lam=0.1)", []),
    (RationalOrderSpec, {"kind": "one_plus_inv", "n_root": 4}, {}, {"n_root2": None},
     "RationalOrderSpec(kind='one_plus_inv', n_root=4, n_root2=None)",
     [({"kind": "bogus", "n_root": 2}, "unknown decomposition kind"),
      ({"kind": "one_plus_inv", "n_root": 1}, "root orders N >= 2"),
      ({"kind": "one_plus_inv", "n_root": 2, "n_root2": 3}, "takes a single root order"),
      ({"kind": "inv_sum", "n_root": 2}, "needs a second root order")]),
    (RationalOrderSpec, {"kind": "inv_sum", "n_root": 2, "n_root2": 3}, {}, {},
     "RationalOrderSpec(kind='inv_sum', n_root=2, n_root2=3)", []),
    (SumRuleResult, RESULT_FIELDS, {}, {},
     "SumRuleResult(s=1.5, lam=0.1, z0=1.0, z1=0.5, z2=0.25, tail_estimate=0.01, truncation=40, "
     "route='closed-form', order_label='1+1/2')", []),
]


@pytest.mark.parametrize("cls, required, given, defaults, text, invalid", VALUE_CLASSES,
                         ids=[case[-2].split("(")[0] for case in VALUE_CLASSES])
def test_value_classes_construct_compare_hash_and_repr(cls, required, given, defaults, text, invalid):
    fields = {**required, **given}
    value = cls(*fields.values())
    assert repr(value) == text
    same = cls(**fields)
    assert same == value and hash(same) == hash(value) and same is not value
    assert value != tuple(fields.values())  # only instances of the same class compare equal
    short = cls(*required.values())
    assert short == cls(**required, **defaults) and hash(short) == hash(cls(**required, **defaults))
    if given:
        assert short != value
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(TypeError):
        cls(*{**required, **defaults, **given}.values(), None)  # one more than every field
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    for bad, message in invalid:
        with pytest.raises(ValidationError, match=message):
            cls(**bad)


def test_array_holders_compare_by_identity():
    basis = ModeBasis(String1D(), 20)
    tables = [build_sigma_table(basis, COS, 2) for _ in range(2)]
    sets = [q_generic_recursion(2, build_Q_series(2, tables[0], basis), basis) for _ in range(2)]
    for first, second in (tables, sets):
        assert first == first and first != second  # equal arrays, distinct objects
        assert len({first, second, first}) == 2


def test_run_config_is_mutable_and_unhashable():
    cfg = RunConfig(ModeBasis(String1D(), 20), COS, [0.1], [RationalOrderSpec.parse("3/2")])
    assert cfg.route == "all" and cfg.out_path is None
    cfg.route = "closed"
    assert cfg == RunConfig(ModeBasis(String1D(), 20), COS, [0.1], [RationalOrderSpec.parse("3/2")],
                            route="closed")
    with pytest.raises(TypeError):
        hash(cfg)
