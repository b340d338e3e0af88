"""Command-line front end: sumrule, coeffs, verify and spectrum subcommands.

Configuration comes from a JSON file (fail-closed: unknown keys are rejected
and every validation problem is reported in one pass) with command-line flags
overriding individual entries.  Outputs are CSV or JSON records with floats
printed to 17 significant digits; errors are single-line JSON on stderr.

Exit codes: 0 success, 2 validation failure, 3 numerical failure (out of
memory included), 4 convergence slope below threshold (verify), 141 stdout
closed before the output was written (nothing more is printed).
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import coefficients, oracle, sumrules
from ._record import dataclass
from .basis import (
    DensityPerturbation,
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    String1D,
    Tabulated,
    build_sigma_table,
    rectangle_table_doubles,
    walk_step_bound,
)
from .errors import (
    ConfigError,
    FactorizationError,
    InsufficientDataError,
    NumericalError,
    ValidationError,
)
from .kernels import MAX_ROOT_ORDER
from .sumrules import CSV_FIELDS, RationalOrderSpec, SumRuleResult

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_SLOPE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer the signal ended

ROUTES = ("closed", "trace1", "trace2", "oracle", "all")

# profile type -> (class, keys holding its number lists); separable has "terms"
_PROFILES = {
    "fourier-cosine": (FourierCosine, ("coeffs",)),
    "polynomial": (Polynomial, ("coeffs",)),
    "tabulated": (Tabulated, ("x", "y")),
    "separable": (Separable2D, ("terms",)),
}

_BASIS_SIDES = {"string": ("length",), "rectangle": ("a", "b")}
_COMMANDS = ("sumrule", "coeffs", "verify", "spectrum")


@dataclass
class _Setting:
    """One setting: its flag, JSON path, kind, default and range.  A given flag wins, then JSON.

    A kind is int or float (a finite number), str, a tuple (one of these values), "orders"
    (--s, repeated, or a JSON array), "numbers" (--lambda's X[,X...], a JSON number or array) or None
    (parsed by load_config's own code).  A flag's value is the text given, checked by the same
    rule as the JSON value, which must not be text where a number is due.  JSON null is the
    default where that is None (unset), else wrong.
    """

    flag: str | None  # None: the config file's only
    path: str | None  # "key" or "section.key"; None: the command line's only
    kind: object
    default: object = None
    span: tuple | None = None  # a number's range [lo, hi)
    switch: object = None  # set: the flag takes no value and stands for this one
    commands: tuple = _COMMANDS  # those that take the flag
    about: str | None = None  # -h text; a flag without it is left out of -h


# Every setting, one row each, by the destination parse_args gives its flag.
_SETTINGS = {
    "config": _Setting("--config", None, str, about="JSON run configuration"),
    "version": _Setting(None, "version", (1,)),
    "basis": _Setting(None, "basis", None, {"kind": "string"}),
    "s": _Setting("--s", "orders", "orders", ["3/2"],
                  about="rational order, e.g. 3/2, 1+1/4 or 1/2+1/3 (repeatable)"),
    "lam": _Setting("--lambda", "density.lambda", "numbers", [0.1], about="density strength(s), X[,X...]"),
    "profile": _Setting(None, "density.profile", None),  # unset: the reference cos(2 pi x / L)
    "route": _Setting("--route", "route", ROUTES, "all", about="the routes sumrule computes"),
    # ignored; kept only because perfbench/workloads.py passes it on every invocation
    "cache_dir": _Setting("--cache-dir", None, str),
    "out": _Setting("--out", "output.path", str, about="output file (coeffs: output directory)"),
    "format": _Setting("--format", "output.format", ("csv", "json"), "csv", about="sumrule's output format"),
    "modes": _Setting("--modes", "truncation.modes", int, 200, about="basis truncation M"),
    "inner_discard": _Setting(None, "truncation.inner_discard", int),  # unset: modes // 4
    "n_root": _Setting("--n-root", None, int, 2, span=(1, MAX_ROOT_ORDER + 1), commands=("coeffs",),
                       about="root order N"),
    "max_order": _Setting("--max-order", None, int, 2, span=(0, math.inf), commands=("coeffs",),
                          about="highest coefficient order"),
    "threshold": _Setting("--threshold", "slope_threshold", float, 2.7, commands=("verify",),
                          about="minimum slope"),
    "first_order_only": _Setting("--first-order-only", None, (False, True), False, switch=True,
                                 commands=("verify",),
                                 about="drop the second-order term (harness self-check)"),
}
_PATHS = [row.path.rpartition(".") for row in _SETTINGS.values() if row.path]  # (section, ".", key)
# each JSON object holding settings -> the keys it may hold; "" is the root
_KEYS = {"": {section or key for section, _, key in _PATHS}}
_KEYS |= {section: {k for s, _, k in _PATHS if s == section} for section, _, _ in _PATHS if section}


@dataclass
class RunConfig:
    """Validated run configuration shared by all subcommands; ``load_config`` gives every field."""

    basis: ModeBasis
    profile: object
    lam_list: list
    orders: list
    inner_discard: int | None
    route: str
    out_format: str
    out_path: str | None
    slope_threshold: float
    n_root: int
    max_order: int
    first_order_only: bool


def _typed(node, kind, where, problems, fallback):
    """node if it is an instance of kind; otherwise record a problem, return fallback."""
    if isinstance(node, kind):
        return node
    problems.append(f"{where}: unexpected {type(node).__name__} {node!r}")
    return fallback


def _convert(value, kind):
    """value as a finite kind, or None; for int, integer text and ints exactly, else an integral float."""
    if kind is int and not isinstance(value, float):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return kind(number) if math.isfinite(number) and (kind is float or number.is_integer()) else None


def _number(value, where, problems, kind=float, text=False):
    """value as a finite kind, never a bool, text if and only if text is set; else a problem and None."""
    number = None if isinstance(value, bool) or isinstance(value, str) != text else _convert(value, kind)
    if number is None:
        expected = "an integer" if kind is int else "a finite number"
        problems.append(f"{where}: expected {expected}, got {value!r}")
    return number


def _numbers(values, where, problems, text=False) -> list:
    """The finite entries of a JSON array; each other entry is recorded as a problem."""
    entries = _typed(values, list, where, problems, [])
    numbers = [_number(v, f"{where}[{i}]", problems, text=text) for i, v in enumerate(entries)]
    return [v for v in numbers if v is not None]


def _source(dest: str, overrides) -> str | None:
    """Where a setting is read from: its flag if given, else its JSON path (None: its default)."""
    row = _SETTINGS[dest]
    return row.flag if row.flag and getattr(overrides, dest, None) is not None else row.path


def _setting(dest: str, overrides, nodes: dict, problems: list):
    """A setting's value: its flag's text if given, else its JSON path's, else its default, checked by kind.

    A wrong one is a problem naming its source and reads as None (a choice: the default).
    """
    row = _SETTINGS[dest]
    where, kind = _source(dest, overrides), row.kind
    text = where == row.flag  # read from the flag: its text, or a switch's one value
    if text:
        value = getattr(overrides, dest) if row.switch is None else row.switch
    elif where:
        section, _, key = where.rpartition(".")
        value = nodes[section].get(key, row.default)
    else:
        value = row.default
    if kind is None or value is None and row.default is None:
        return value
    if isinstance(kind, tuple):
        if value in kind:
            return value
        problems.append(f"{where} must be one of {kind}, got {value!r}")
        return row.default
    if kind is str:
        return _typed(value, str, where, problems, None)
    if kind == "numbers":
        if not text and not isinstance(value, list):  # one JSON number
            number = _number(value, where, problems)
            return [] if number is None else [number]
        tokens = [tok for tok in value.split(",") if tok] if text else value
        return _numbers(tokens, where, problems, text)
    if kind == "orders":
        orders = []
        for tok in _typed(value, list, where, problems, []):
            try:
                orders.append(RationalOrderSpec.parse(str(tok)))
            except ValidationError as exc:  # it quotes the text
                problems.append(str(exc))
        if value == []:
            problems.append("no orders given")
        return orders
    number = _number(value, where, problems, kind, text)
    if number is not None and row.span and not row.span[0] <= number < row.span[1]:
        problems.append(f"{where} must be in [{row.span[0]:g}, {row.span[1]:g}), got {number!r}")
        return None
    return number


def _parse_profile(node, problems, where="density.profile"):
    node = _typed(node, dict, where, problems, None)
    if node is None:
        return None
    kind = node.get("type")
    if not isinstance(kind, str) or kind not in _PROFILES:
        problems.append(f"{where}: unknown profile type {kind!r}")
        return None
    cls, keys = _PROFILES[kind]
    unknown = set(node) - {"type", *keys}
    if unknown:
        problems.append(f"{where}: unknown keys {sorted(unknown)}")
        return None
    if cls is not Separable2D:
        before = len(problems)
        lists = [tuple(_numbers(node.get(k, []), f"{where}.{k}", problems)) for k in keys]
        try:
            return cls(*lists) if len(problems) == before else None
        except ValidationError as exc:
            problems.append(f"{where}: {exc}")
            return None
    terms = []
    for i, term in enumerate(_typed(node.get("terms", []), list, f"{where}.terms", problems, [])):
        if not isinstance(term, dict) or set(term) != {"x", "y"}:
            problems.append(f"{where}.terms[{i}]: expected an object with keys x and y")
            return None
        px = _parse_profile(term["x"], problems, f"{where}.terms[{i}].x")
        py = _parse_profile(term["y"], problems, f"{where}.terms[{i}].y")
        if px is None or py is None:
            return None
        terms.append((px, py))
    return Separable2D(tuple(terms))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# Dense M x M float64 matrices the oracle holds at most: the largest exact
# block of S_1, graded in place from a fresh S_1 on it, and LAPACK's untraced
# copy of it (1.03 traced at M=800 for one block).  The blocks are formed,
# solved and dropped one at a time, so this stays an upper bound whatever the
# blocks (0.32 M^2 traced for the cosine string's two at M=400).
_ORACLE_MATRICES = 2
# The closed form and the trace routes form no matrix: they read S_1 one step
# of SigmaPowerTable.walk at a time, at most walk_step_bound entries.  Counted
# in arrays of that many pairs: this many while S_1's couplings are listed or
# the closed form sums them, plus this many per series (Q and each q[1/N]) on
# a trace route.  A dense rectangle S_j (the oracle's S_1 or a coefficient
# series' S_j) is scattered from the walk, which adds _PAIR_ARRAYS more.
_PAIR_ARRAYS, _SERIES_PAIR_ARRAYS = 12, 6
# Length-M vectors: a fixed number, this many per order (the closed form
# keeps each order's eps^-s), and on a trace route this many per series
# (its order-0 and order-2 diagonals and row sums).
_VECTORS, _ORDER_VECTORS, _SERIES_VECTORS = 32, 3, 6


# natural logs of the least normal and the greatest finite double
_LOG_NORMAL = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _geometry_problems(domain, modes, orders) -> list:
    """Problems with a geometry whose eigenvalues, or their powers eps^-s, are no normal doubles.

    Worked in logs, so no extreme side overflows here.  The ends are eps_1
    and eps_M, the latter (M pi / L)^2 on the string and bounded by the
    k x k corner k^2 eps_1, k = ceil(sqrt(M)), on the rectangle, whose side
    terms pi^2 / a^2 and pi^2 / b^2 must be normal as well.  The string
    tail's power (L / pi)^{2s} is eps_1^{-s}; the rectangle tail's powers of
    an eigenvalue near eps_M have exponents 1 - s and 1/2 - s, smaller than s.
    """
    if isinstance(domain, String1D):
        log_1 = 2.0 * (math.log(math.pi) - math.log(domain.length))
        log_m, sides = log_1 + 2.0 * math.log(modes), {}
    else:
        sides = {f"pi^2/{k}^2": 2.0 * (math.log(math.pi) - math.log(getattr(domain, k))) for k in "ab"}
        big, small = max(sides.values()), min(sides.values())
        log_1 = big + math.log1p(math.exp(small - big))
        log_m = log_1 + 2.0 * math.log(math.isqrt(modes - 1) + 1)
    lo, hi = _LOG_NORMAL
    named = {**sides, "eps_1": log_1, "eps_M": log_m}
    bad = [f"{name} = e^{v:.4g}" for name, v in named.items() if not lo <= v <= hi]
    if bad:
        return [f"basis: {', '.join(bad)}, outside the normal doubles"]
    return [
        f"order {spec.label()}: eps^-s runs from e^{-spec.s * log_1:.4g} to e^{-spec.s * log_m:.4g}, "
        "outside the normal doubles for this geometry"
        for spec in orders
        if not lo <= -spec.s * log_m <= -spec.s * log_1 <= hi
    ]


def _memory_need(command, route, domain, profile, modes, orders, max_order) -> int:
    """Bytes a command holds at its peak, the table and the working set, counted from above."""
    m = modes
    max_power = max(2, max_order)
    string = isinstance(domain, String1D)
    oracle = command in ("verify", "spectrum") or (command == "sumrule" and route in ("oracle", "all"))
    # the dense S_j formed: every one the coefficient series read; the oracle's S_1 is its pencil
    dense = max_power if command == "coeffs" else 0
    work = 4 * (max_order + 1) + 1 if command == "coeffs" else _ORACLE_MATRICES * oracle
    vectors = _VECTORS + _ORDER_VECTORS * len(orders)
    arrays = 0
    if command == "verify" or (command == "sumrule" and route != "oracle"):  # a closed form or trace
        arrays = _PAIR_ARRAYS
    if command == "sumrule" and route in ("trace1", "trace2", "all"):
        series = {n for o in orders for n in (1, *o.roots)}
        arrays += _SERIES_PAIR_ARRAYS * len(series)
        vectors += _SERIES_VECTORS * len(series)
    if not string and (dense or oracle):  # a rectangle S_j scattered from its couplings
        arrays += _PAIR_ARRAYS
    # coeffs scatters each S_j it reads, j <= max_order, from walk(j); every other walk is S_1's
    pairs = arrays * walk_step_bound(domain, profile, m, max_order if command == "coeffs" else 1)
    table = 0 if string else rectangle_table_doubles(domain, profile, m, max_power)
    return ((dense + work) * m * m + vectors * m + pairs + table) * 8


def load_config(path: str | None, overrides) -> RunConfig:
    """Parse and validate configuration; raise ConfigError listing every problem.

    overrides holds the flags' text by destination (parse_args gives it); a
    missing or None one reads as unset.  Every node's type and every value is
    checked here, so any JSON object either loads or raises ConfigError.
    """
    problems: list[str] = []
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError([f"cannot read config {path}: {exc}"])
        if not isinstance(data, dict):
            raise ConfigError(["config root must be a JSON object"])
    nodes = {"": data}  # each JSON object holding settings, by name
    for name, keys in _KEYS.items():
        if name:
            nodes[name] = _typed(data.get(name, {}), dict, name, problems, {})
        unknown = set(nodes[name]) - keys
        if unknown:
            problems.append(f"{name}: unknown keys" if name else f"unknown config keys {sorted(unknown)}")
    values = {dest: _setting(dest, overrides, nodes, problems) for dest in _SETTINGS}
    modes, lam_list, orders, route = values["modes"], values["lam"], values["s"], values["route"]

    # --- basis and profile ---
    basis_node = _typed(values["basis"], dict, "basis", problems, {})
    basis = None
    kind = basis_node.get("kind")
    sides = _BASIS_SIDES.get(kind) if isinstance(kind, str) else None
    if sides is None:
        problems.append(f"basis.kind must be 'string' or 'rectangle', got {kind!r}")
    else:
        if set(basis_node) - {"kind", *sides}:
            problems.append("basis: unknown keys")
        sizes = [_number(basis_node.get(side, 1.0), f"basis.{side}", problems) for side in sides]
        if None not in sizes:
            try:
                domain = (String1D if kind == "string" else Rectangle2D)(*sizes)
                basis = None if modes is None else ModeBasis(domain, modes)
            except ValidationError as exc:
                problems.append(f"basis: {exc}")
    inner_discard = values["inner_discard"]
    if basis is not None and inner_discard is not None and not 0 <= inner_discard < modes:
        problems.append(f"truncation.inner_discard must be in [0, {modes}), got {inner_discard}")
    profile = values["profile"]  # unset: the reference profile cos(2 pi x / L)
    profile = FourierCosine((0.0, 0.0, 1.0)) if profile is None else _parse_profile(profile, problems)

    # --- cross validation (one pass, everything reported) ---
    command = getattr(overrides, "command", None)
    # an unusable --max-order is counted at its default, so that the memory check still runs
    max_order = _SETTINGS["max_order"].default if values["max_order"] is None else values["max_order"]
    # spectrum and coeffs read no order, coeffs no lambda: neither is checked or counted for them
    read_orders = orders if command in (None, "sumrule", "verify") else []
    read_lams = [] if command == "coeffs" else lam_list
    geometry = [] if basis is None else _geometry_problems(basis.domain, modes, read_orders)
    problems += geometry
    memory = _physical_memory()
    # an extreme side overflows the rectangle's side bounds, and forming them costs O(sqrt(M)):
    # the fixed vectors, a floor of the need, are compared first
    if basis is not None and not geometry and memory is not None:
        need = _VECTORS * modes * 8
        if need <= memory:
            need = _memory_need(command, route, basis.domain, profile, modes, read_orders, max_order)
        if need > memory:
            gib = f"{need / 2**30:.3g} GiB for the table and working set, more than the {memory / 2**30:.3g}"
            problems.append(f"{_source('modes', overrides)}: {modes} modes need {gib} GiB of physical memory")
    if command not in (None, "sumrule") and values["format"] == "json":
        problems.append(f"{command} writes CSV only; JSON output is sumrule's")
    if command == "spectrum" and len(lam_list) > 1:
        problems.append(f"spectrum takes one lambda; extra values {lam_list[1:]}")
    if command == "verify" and len(orders) > 1:
        problems.append(f"verify fits one order; extra orders {[o.label() for o in orders[1:]]}")
    if command == "verify" and (len(set(lam_list)) < 3 or min(lam_list, default=0.0) <= 0.0):
        # the fit is a line through (log lambda, log error): 3 distinct abscissae, each defined
        problems.append(f"verify needs at least 3 lambda values, distinct and positive, got {lam_list}")
    if basis is not None and profile is not None:
        for lam in read_lams:
            density = DensityPerturbation(profile, lam)
            try:
                density.validate(basis.domain)
            except ValidationError as exc:
                problems.append(f"lambda={lam:g}: {exc}")
        for spec in read_orders:
            try:
                spec.validate_for(basis)
            except ValidationError as exc:
                problems.append(f"order {spec.label()}: {exc}")
            if command == "verify" and spec.fraction == 1 and basis.dimension == 1:  # 2D: diverges
                problems.append(f"order {spec.label()}: {oracle._LINEAR_AT_ONE}")
            if command == "sumrule" and route == "trace1" and spec.roots[0] != 1:
                problems.append(f"order {spec.label()}: route trace1 needs a 1+1/N order")
            if command == "sumrule" and route == "trace2" and spec.roots[0] == 1:
                problems.append(f"order {spec.label()}: route trace2 needs a 1/N+1/N' order")
    if command != "coeffs" and not lam_list:
        problems.append("no usable lambda values given")
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        basis=basis, profile=profile, lam_list=lam_list, orders=orders, inner_discard=inner_discard,
        route=route, out_format=values["format"], out_path=values["out"],
        slope_threshold=values["threshold"], n_root=values["n_root"], max_order=max_order,
        first_order_only=values["first_order_only"],
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_records(records: list[SumRuleResult], cfg: RunConfig, extra: dict | None = None) -> None:
    if cfg.out_format == "json":
        doc = {"results": [r.to_dict() for r in records]}
        if extra:
            doc.update(extra)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join([",".join(CSV_FIELDS)] + [r.csv_row() for r in records]) + "\n"
    _emit(text, cfg)


def _emit(text: str, cfg: RunConfig) -> None:
    """Write text to the configured output path, or to stdout."""
    if cfg.out_path:
        try:
            with open(cfg.out_path, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _unwritable(cfg.out_path, exc) from exc
    else:
        sys.stdout.write(text)


def _require_finite(values, what: str) -> None:
    """A result outside the doubles is a numerical failure (exit 3): exit 0 prints only finite numbers."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} is not finite")


def _unwritable(path: str, exc: OSError) -> ValidationError:
    """An output path the run cannot write to is a usage error (exit 2) that names the path."""
    return ValidationError(f"output path {path!r} cannot be written: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sumrule(cfg: RunConfig) -> int:
    table = build_sigma_table(cfg.basis, cfg.profile, 1 if cfg.route == "oracle" else 2)  # the oracle reads S_1
    shared = (cfg.orders, table, cfg.lam_list)
    # route -> one result per (order, lambda), order-major; each route runs once
    by_route = {}
    if cfg.route in ("all", "closed"):
        by_route["closed"] = sumrules.z_closed_form(*shared)
    if cfg.route in ("all", "trace1", "trace2"):
        by_route["trace"] = sumrules.z_via_trace(*shared)
    if cfg.route in ("all", "oracle"):
        by_route["oracle"] = oracle.oracle_sum_rule(*shared)
    records: list[SumRuleResult] = []
    diffs: list[dict] = []
    for i, (spec, lam) in enumerate(itertools.product(cfg.orders, cfg.lam_list)):
        trace = "trace1" if spec.roots[0] == 1 else "trace2"
        group = {trace if name == "trace" else name: found[i] for name, found in by_route.items()}
        records.extend(group.values())
        for a, b in itertools.combinations(sorted(group), 2):
            diffs.append({
                "order": spec.label(), "lambda": lam, "pair": f"{a}-vs-{b}",
                "abs_difference": abs(group[a].z_total - group[b].z_total),
            })
    for r in records:
        _require_finite([r.z0, r.z1, r.z2, r.z_total, r.tail_estimate],
                        f"{r.route} Z({r.order_label}) at lambda={r.lam:g}")
    _require_finite([d["abs_difference"] for d in diffs], "a pairwise difference")
    extra = {"differences": diffs} if diffs else None
    _write_records(records, cfg, extra)
    if diffs and (cfg.out_path or cfg.out_format == "csv"):
        sys.stdout.write("pairwise |dZ|:\n")
        for d in diffs:
            sys.stdout.write(
                f"  s={d['order']} lambda={d['lambda']:g} {d['pair']}: {d['abs_difference']:.3e}\n"
            )
    return EXIT_OK


def cmd_coeffs(cfg: RunConfig) -> int:
    n_root, max_order = cfg.n_root, cfg.max_order
    table = build_sigma_table(cfg.basis, cfg.profile, max(max_order, 1))
    big_q = coefficients.build_Q_series(max_order, table)
    cset = coefficients.q_generic_recursion(n_root, big_q, cfg.basis)
    residuals = coefficients.verify_convolution(cset, discard=cfg.inner_discard)
    out_dir = Path(cfg.out_path or ".")
    summary = {"n_root": n_root, "max_order": max_order, "modes": cfg.basis.mode_count, "orders": []}
    summary_path = out_dir / f"residuals_N{n_root}.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for k, residual in enumerate(residuals):
            path = out_dir / f"q_N{n_root}_order{k}.csv"
            coefficients.export_coefficients_csv(cset.q_orders[k], path)
            summary["orders"].append({"order": k, "file": path.name, "convolution_residual": residual})
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise _unwritable(str(out_dir), exc) from exc
    sys.stdout.write(f"wrote {max_order + 1} coefficient files and {summary_path.name}\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    table = build_sigma_table(cfg.basis, cfg.profile, 2)
    fit = oracle.convergence_order_fit(
        cfg.orders[0], table, cfg.lam_list, drop_second_order=cfg.first_order_only
    )
    _require_finite([fit.slope, *sum(fit.pairs + fit.excluded, ())], "a verify error or slope")
    failed = fit.slope < cfg.slope_threshold
    lines = ["lambda,abs_error"] + [f"{lam:.17g},{err:.17g}" for lam, err in fit.pairs]
    cut = f"{oracle.FLOOR_FACTOR:g} x floor"  # the rule the fit applied
    for lam, err, floor in fit.excluded:
        lines.append(f"# excluded lambda={lam:g}: error {err:.3e} below {cut} {floor:.3e}")
    lines += [f"slope,{fit.slope:.17g}", f"threshold,{cfg.slope_threshold:.17g}"]
    _emit("\n".join([*lines, f"verdict,{'FAIL' if failed else 'PASS'}"]) + "\n", cfg)
    return EXIT_SLOPE if failed else EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    table = build_sigma_table(cfg.basis, cfg.profile, 1)
    values = oracle.solve_spectrum(table, cfg.lam_list[0])
    lines = ["index,eigenvalue"] + [f"{i + 1},{v:.17g}" for i, v in enumerate(values)]
    _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


# Each subcommand's view of the settings it takes a flag for: flag -> the row's destination.
OPTIONS = {
    command: {row.flag: dest for dest, row in _SETTINGS.items() if row.flag and command in row.commands}
    for command in _COMMANDS
}
_ABOUT = {
    None: "Spectral zeta functions of rational order for heterogeneous billiards",
    "sumrule": "compute Z(s) by the requested routes",
    "coeffs": "dump q^(k) coefficient matrices as CSV",
    "verify": "lambda-scaling validation against the oracle",
    "spectrum": "export the heterogeneous spectrum as CSV",
}
_HELP = _Setting("--help", None, None, switch=True, about="show this help message and exit")


def _is_value(token: str) -> bool:
    """A token is a value unless it starts with "-": "-1e-05", "-.5" and "-0.5,0.1" are values too."""
    return not token.startswith("-") or token[1:].removeprefix(".")[:1].isdecimal()


def _help(command: str | None) -> str:
    if command is None:
        lines = [f"usage: billzeta [-h] {{{','.join(OPTIONS)}}} ...", "", _ABOUT[None], "", "commands:"]
        lines += [f"  {name:<10}{_ABOUT[name]}" for name in OPTIONS]
    else:
        lines = [f"usage: billzeta {command} [-h] [options]", "", _ABOUT[command], "", "options:"]
        for flag, dest in {"-h, --help": "help", **OPTIONS[command]}.items():
            row = _SETTINGS.get(dest, _HELP)
            if row.switch is None:
                flag += f" {{{','.join(row.kind)}}}" if isinstance(row.kind, tuple) else f" {dest.upper()}"
            if row.about is not None:
                lines.append(f"  {flag:<28}  {row.about}")
    return "\n".join(lines) + "\n"


def _flag(name: str, table: dict) -> str | None:
    """The flag a name stands for: itself, or one a "--" prefix abbreviates ("--lam" is "--lambda")."""
    if name == "-h":
        return "--help"
    found = [name] if name in table else [
        flag for flag in table if len(name) > 2 and name.startswith("--") and flag.startswith(name)
    ]
    if len(found) > 1:
        raise ValidationError(f"ambiguous option: {name} could match {', '.join(found)}")
    return found[0] if found else None


def _parse_options(tokens: list, command: str | None) -> tuple[dict, list]:
    """Each option's text by destination (None: not given), and the tokens no option takes.

    A value stays the text given: --s's are listed, a switch reads True.
    load_config converts and checks them.  A usage error raises
    ValidationError; -h prints the command's help and exits 0.  Every flag
    is matched before any is read, so an ambiguous prefix is reported
    whatever comes before it.
    """
    options = OPTIONS.get(command, {})
    table = {**options, "--help": "help"}
    values = dict.fromkeys(options.values())
    pairs = iter([(token, _flag(token.partition("=")[0], table)) for token in tokens])
    extras = []
    for token, flag in pairs:
        if flag is None:
            extras.append(token)
            continue
        _, eq, value = token.partition("=")
        dest = table[flag]
        row = _SETTINGS.get(dest, _HELP)
        if row.switch is not None:
            if eq:
                raise ValidationError(f"argument {flag}: ignored explicit argument {value!r}")
            if row is _HELP:
                sys.stdout.write(_help(command))
                raise SystemExit(EXIT_OK)
            values[dest] = True
            continue
        if not eq:
            value = next(pairs, (None,))[0]
            if value is None or not _is_value(value):
                raise ValidationError(f"argument {flag}: expected one argument")
        values[dest] = [*(values[dest] or []), value] if row.kind == "orders" else value
    return values, extras


def parse_args(argv=None) -> SimpleNamespace:
    """The subcommand and its options; a usage error raises ValidationError, -h exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    at = next((i for i, token in enumerate(argv) if _is_value(token)), len(argv))
    _, extras = _parse_options(argv[:at], None)  # only -h may come before the command
    if at == len(argv):
        raise ValidationError("the following arguments are required: command")
    command = argv[at]
    if command not in OPTIONS:
        choices = ", ".join(map(repr, OPTIONS))
        raise ValidationError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    values, more = _parse_options(argv[at + 1:], command)
    if extras or more:
        raise ValidationError(f"unrecognized arguments: {' '.join(extras + more)}")
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.  Errors are one JSON line on stderr.

    main first freezes the heap (``gc.freeze``): everything imported so far,
    numpy included, moves to the permanent generation.  None of it is garbage
    the run makes, and interpreter shutdown would otherwise scan it all once
    more (about 20 ms of a 250 ms run).  Objects the run creates are collected
    as before.  In-process callers, tests included, see the same freeze.
    """
    gc.freeze()
    try:
        args = parse_args(argv)  # a usage error raises ValidationError too
        cfg = load_config(args.config, args)
        # the module's names looked up at each call: a caller may rebind a cmd_* function
        run = {"sumrule": cmd_sumrule, "coeffs": cmd_coeffs, "verify": cmd_verify, "spectrum": cmd_spectrum}
        code = run[args.command](cfg)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except (ValidationError, InsufficientDataError) as exc:  # a ConfigError lists every problem
        problems = exc.problems if isinstance(exc, ConfigError) else [str(exc)]
        print(json.dumps({"error": "validation", "problems": problems}), file=sys.stderr)
        return EXIT_VALIDATION
    except (FactorizationError, NumericalError, MemoryError) as exc:
        detail = str(exc) or "out of memory"  # numpy's MemoryError can stringify to ""
        print(json.dumps({"error": "numerical", "detail": detail}), file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:  # stdout's reader has gone (`| head`): stop without a word
        # stdout now leads to devnull, so what is still buffered cannot fail at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def entrypoint() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
