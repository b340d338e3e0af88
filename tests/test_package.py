import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import billzeta
from billzeta import (
    ConfigError,
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
from billzeta.cli import RunConfig, load_config, parse_args


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(billzeta).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(billzeta.__all__) == sorted(public)
    assert len(set(billzeta.__all__)) == len(billzeta.__all__)
    for name in billzeta.__all__:
        assert getattr(billzeta, name) is not None


def test_no_public_call_takes_a_table_with_a_basis_or_a_density():
    # a table carries its basis and profile: a call that took either beside it could mix two media
    calls = {name: getattr(billzeta, name) for name in billzeta.__all__}
    calls |= {f"SigmaPowerTable.{name}": method for name, method in vars(billzeta.SigmaPowerTable).items()
              if inspect.isfunction(method) and not name.startswith("_")}
    # a record class takes its fields (its __init__ reads *args), a function its parameters
    params = {name: set(call.__annotations__ if isinstance(call, type) else inspect.signature(call).parameters)
              for name, call in calls.items() if callable(call)}
    assert {"z_closed_form", "SigmaPowerTable", "SigmaPowerTable.restrict"} <= set(params)
    mixed = [name for name, names in params.items() if "table" in names and names & {"basis", "density", "densities"}]
    assert mixed == []
    # the medium is a profile and a plain lambda: no public function or method of a layer takes a density
    layers = (billzeta.basis, billzeta.sumrules, billzeta.oracle)
    owners = [*layers, *(cls for m in layers for cls in vars(m).values()
                         if isinstance(cls, type) and cls.__module__ == m.__name__)]
    takes_density = [f"{owner.__name__}.{name}" for owner in owners for name, fn in vars(owner).items()
                     if inspect.isfunction(fn) and fn.__module__.startswith("billzeta.") and not name.startswith("_")
                     and "density" in inspect.signature(fn).parameters]
    assert takes_density == []
    assert "DensityPerturbation" not in billzeta.__all__ and not hasattr(billzeta, "DensityPerturbation")


@pytest.mark.parametrize("kind, profile, lam", [
    ("string", {"type": "polynomial", "coeffs": [0, 4, -4]}, "1.5"),
    ("string", {"type": "fourier-cosine", "coeffs": [0, 0, 1]}, "-2"),
    ("rectangle", {"type": "separable", "terms": [{"x": {"type": "fourier-cosine", "coeffs": [0, 0, 1]},
                                                  "y": {"type": "polynomial", "coeffs": [0, 1, -1]}}]}, "5"),
], ids=["polynomial-string", "cosine-string", "rectangle"])
def test_the_config_and_the_table_reject_a_strength_with_one_text(tmp_path, kind, profile, lam):
    # one check decides the density bound, before any table exists and on a table
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"basis": {"kind": kind}, "density": {"profile": profile}}))
    argv = ["sumrule", "--config", str(config), "--modes", "10", "--lambda"]
    loaded = load_config(str(config), parse_args([*argv, "0.1"]))
    with pytest.raises(ConfigError) as problem:
        load_config(str(config), parse_args([*argv, lam]))
    with pytest.raises(ValidationError, match="density bound") as check:
        build_sigma_table(loaded.basis, loaded.profile, 1).check_strength(float(lam))
    assert problem.value.problems == [f"lambda={float(lam):g}: {check.value}"]


def test_readme_names_every_public_name():
    # each name a code span of its own, so a longer name or plain prose does not count
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [name for name in billzeta.__all__ if not re.search(rf"`{name}\b", readme)]
    assert missing == []


def test_sumrule_and_verify_leave_numpy_polynomial_unimported(tmp_path):
    # the oracle's Gauss-Legendre panel is a literal rule: no run imports numpy.polynomial,
    # whose import costs memory on every run; orders and mirror parity are exact in integers,
    # so no run imports fractions or the decimal it loads either
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"density": {"profile": {"type": "polynomial", "coeffs": [0, 4, -4]}}}))
    table = tmp_path / "table.json"
    profile = {"type": "tabulated", "x": [0.0, 0.25, 0.5, 0.75, 1.0], "y": [0.0, 1.0, 2.0, 1.0, 0.0]}
    table.write_text(json.dumps({"density": {"profile": profile}}))
    script = (
        "import sys\n"
        "from billzeta.cli import main\n"
        "assert main(['sumrule', '--route', 'all', '--modes', '60', '--s', '3/2', '--s', '1+1/4',\n"
        "             '--s', '1/2+1/3', '--s', '0.0125e2', '--lambda', '0.05,0.1', '--out', 'r.csv']) == 0\n"
        f"assert main(['verify', '--config', {str(poly)!r}, '--modes', '100', '--s', '3/2',\n"
        "             '--lambda', '0.02,0.04,0.08,0.16']) == 0\n"
        f"assert main(['spectrum', '--config', {str(table)!r}, '--modes', '40', '--out', 's.csv']) == 0\n"
        f"assert main(['coeffs', '--config', {str(poly)!r}, '--modes', '20', '--out', 'coeffs']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n"
        "print(sorted(name for name in ('fractions', 'decimal', '_decimal') if name in sys.modules))\n"
    )
    assert _fresh_run(script, tmp_path)[-2:] == ["[]", "[]"]


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
    assert _fresh_run(script, tmp_path)[-1] == "False"


def _fresh_run(script, cwd):
    """Run script in a new interpreter that imports this checkout's billzeta; its stdout lines."""
    src = str(Path(billzeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_readme_session_runs_and_its_routes_agree(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    session = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = _fresh_run(session, tmp_path)
    assert len(lines) == 4  # two orders by two densities
    for line in lines:
        closed, trace = map(float, line.split()[-2:])
        assert abs(closed - trace) <= 1e-8 * abs(closed), line


def test_cli_run_leaves_dataclasses_unimported(tmp_path):
    # the classes take their methods from billzeta._record, which compiles no code at import
    script = (
        "import sys\n"
        "from billzeta.cli import main\n"
        "assert main(['sumrule', '--route', 'all', '--modes', '40', '--s', '3/2', '--s', '1/2+1/3',\n"
        "             '--lambda', '0.05,0.1', '--out', 'r.csv']) == 0\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert _fresh_run(script, tmp_path)[-1] == "False"


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
    assert _fresh_run(script, tmp_path)[-1] == "[]"


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
     [({"domain": String1D(), "mode_count": 0}, "mode_count must be >= 1"),
      ({"domain": String1D(), "mode_count": 2.5}, "mode_count must be an integer, got 2.5"),
      ({"domain": String1D(), "mode_count": True}, "mode_count must be an integer, got True")]),
    (FourierCosine, {}, {"coeffs": [0, 0, 1]}, {"coeffs": ()}, "FourierCosine(coeffs=(0.0, 0.0, 1.0))", []),
    (Polynomial, {}, {"coeffs": (0, 4, -4)}, {"coeffs": ()}, "Polynomial(coeffs=(0.0, 4.0, -4.0))", []),
    (Tabulated, {"xs": (0, 0.5, 1), "ys": (1, 2, 1)}, {}, {}, "Tabulated(xs=(0.0, 0.5, 1.0), ys=(1.0, 2.0, 1.0))",
     [({"xs": (0,), "ys": (1,)}, "needs >= 2 matching samples"),
      ({"xs": (0, 1), "ys": (1, 2, 3)}, "needs >= 2 matching samples"),
      ({"xs": (1, 0), "ys": (0, 1)}, "strictly increasing")]),
    (Separable2D, {"terms": [(COS, Polynomial((1,)))]}, {}, {},
     "Separable2D(terms=((FourierCosine(coeffs=(0.0, 0.0, 1.0)), Polynomial(coeffs=(1.0,))),))", []),
    (RationalOrderSpec, {"roots": (1, 4)}, {}, {}, "RationalOrderSpec(roots=(1, 4))",
     [({"roots": (1, 1)}, "second root order must be >= 2"),
      ({"roots": (2,)}, "needs two root orders"),
      ({"roots": (0, 2)}, r"root order must be in \[1, 64\]")]),
    (RationalOrderSpec, {"roots": (2, 3)}, {}, {}, "RationalOrderSpec(roots=(2, 3))", []),
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
    sets = [q_generic_recursion(2, build_Q_series(2, tables[0]), basis) for _ in range(2)]
    for first, second in (tables, sets):
        assert first == first and first != second  # equal arrays, distinct objects
        assert len({first, second, first}) == 2


def test_run_config_is_frozen_and_unhashable():
    settings = {"inner_discard": None, "route": "all", "out_format": "csv",
                "out_path": None, "slope_threshold": 2.7, "n_root": 2, "max_order": 2,
                "first_order_only": False}
    cfg = RunConfig(ModeBasis(String1D(), 20), COS, [0.1], [RationalOrderSpec.parse("3/2")], **settings)
    assert cfg == RunConfig(ModeBasis(String1D(), 20), COS, [0.1], [RationalOrderSpec.parse("3/2")], **settings)
    with pytest.raises(AttributeError):
        cfg.route = "closed"
    with pytest.raises(TypeError):
        hash(cfg)  # its lambda and order lists are unhashable
    with pytest.raises(TypeError):
        RunConfig(ModeBasis(String1D(), 20), COS, [0.1], [RationalOrderSpec.parse("3/2")])  # no defaults
