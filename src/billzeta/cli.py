"""Command-line front end: sumrule, coeffs, verify and spectrum subcommands.

Configuration comes from a JSON file (fail-closed: unknown keys are rejected
and every validation problem is reported in one pass) with command-line flags
overriding individual entries.  Outputs are CSV or JSON records with floats
printed to 17 significant digits; errors are single-line JSON on stderr.

Exit codes: 0 success, 2 validation failure, 3 numerical failure (out of
memory included), 4 convergence slope below threshold (verify).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import coefficients, oracle, sumrules
from .basis import (
    ROW_BLOCK,
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
)
from .errors import (
    ConfigError,
    FactorizationError,
    InsufficientDataError,
    NumericalError,
    QuadratureError,
    ValidationError,
)
from .kernels import MAX_ROOT_ORDER
from .sumrules import CSV_FIELDS, RationalOrderSpec, SumRuleResult

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_SLOPE = 4

ROUTES = ("closed", "trace1", "trace2", "oracle", "all")

# profile type -> (class, keys holding its number lists); separable has "terms"
_PROFILES = {
    "fourier-cosine": (FourierCosine, ("coeffs",)),
    "polynomial": (Polynomial, ("coeffs",)),
    "tabulated": (Tabulated, ("x", "y")),
    "separable": (Separable2D, ("terms",)),
}

_TOP_KEYS = {
    "version",
    "basis",
    "density",
    "truncation",
    "orders",
    "route",
    "diagonal_mode",
    "output",
    "slope_threshold",
}

_BASIS_SIDES = {"string": ("length",), "rectangle": ("a", "b")}


@dataclass
class RunConfig:
    """Validated run configuration shared by all subcommands."""

    basis: ModeBasis
    profile: object
    lam_list: list
    orders: list
    quadrature_nodes: int | None = None
    inner_discard: int | None = None
    top_discard: float = 0.25
    route: str = "all"
    diagonal_mode: str = sumrules.TRUNCATED
    out_format: str = "csv"
    out_path: str | None = None
    slope_threshold: float = 2.7

    def densities(self):
        return [DensityPerturbation(self.profile, lam) for lam in self.lam_list]


def _typed(node, kind, where, problems, fallback):
    """node if it is an instance of kind; otherwise record a problem, return fallback."""
    if isinstance(node, kind):
        return node
    problems.append(f"{where}: unexpected {type(node).__name__} {node!r}")
    return fallback


def _number(value, where, problems, kind=float):
    """value as a finite float (no bool), integral if kind is int; None with a problem otherwise."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)  # a bool is no number
        if not math.isfinite(number) or (kind is int and not number.is_integer()):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a finite number"
        problems.append(f"{where}: expected {expected}, got {value!r}")
        return None
    return kind(number)


def _numbers(values, where, problems) -> list:
    """The finite entries of a JSON array; each other entry is recorded as a problem."""
    entries = _typed(values, list, where, problems, [])
    numbers = [_number(v, f"{where}[{i}]", problems) for i, v in enumerate(entries)]
    return [v for v in numbers if v is not None]


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


# Dense M x M float64 matrices the oracle holds besides S_1 (the overlap
# I + lam S_1, its graded copy and LAPACK's untraced copy of that), from
# tracemalloc at M=800: 2.02 traced.  The closed form and the trace routes
# hold no matrix besides the dense S_j they read, counted apart.
_ORACLE_MATRICES = 3
# The closed form and the trace routes on a string table never form a
# matrix: they read S_1 by diagonals or row blocks, so their working set is
# length-M vectors.  This many vectors per diagonal of S_1 up to its width,
# plus a fixed number, plus this many per order (the closed form keeps each
# order's eps^-s), bound that from above with room to spare (tracemalloc, 2-3
# orders and 2 lambdas: 0.25-0.43 MiB for a cosine profile at M=2000 and
# 1.6-2.0 MiB at M=20000; 7.3 MiB for a polynomial profile at M=2000, set by
# the quadrature build's chunk rows).
_BAND_ROW_VECTORS, _BAND_VECTORS, _ORDER_VECTORS = 2, 32, 3
# A trace route holds one row block of S_1 for each distinct series (Q and
# each q[1/N]) and at most this many temporary blocks besides; forming a
# rectangle S_j in row blocks holds at most this many too.
_TRACE_BLOCKS = 6


def _memory_need(command, route, domain, profile, modes, orders, max_order) -> int:
    """Bytes a command holds at its peak, the table and the working set, counted from above."""
    m = modes
    max_power = max(2, max_order)
    trace = command == "sumrule" and route in ("trace1", "trace2")
    string = isinstance(domain, String1D)
    if string and command == "sumrule" and route in ("closed", "trace1", "trace2"):
        # S_1's width: b for a cosine profile of highest harmonic b, else M - 1
        width = min(profile.bandwidth() if isinstance(profile, FourierCosine) else m, m - 1)
        matrices, vectors = 0, _BAND_ROW_VECTORS * (width + 1)
    else:
        width = m - 1
        # the dense S_j formed: every one the coefficient series read, none on a trace
        # route, else S_1 (the oracle's overlap, the rectangle closed form's off-diagonals)
        dense = max_power if command == "coeffs" else int(not trace)
        work = {
            "coeffs": 4 * (max_order + 1) + 1,  # q, Q and two power series per order
            "verify": _ORACLE_MATRICES,
            "spectrum": _ORACLE_MATRICES,
        }.get(command, _ORACLE_MATRICES if route in ("oracle", "all") else 0)
        matrices, vectors = dense + work, 0
    vectors += _BAND_VECTORS + _ORDER_VECTORS * len(orders)
    rows, cols = min(ROW_BLOCK, m), min(m, ROW_BLOCK + 2 * width)
    blocks = 0 if string else _TRACE_BLOCKS  # a rectangle S_j is read in row blocks
    if command == "sumrule" and route in ("trace1", "trace2", "all"):
        series = {n for o in orders for n in (1, o.n_root, o.n_root2) if n is not None}
        blocks = len(series) + _TRACE_BLOCKS
    table = 0 if string else rectangle_table_doubles(domain, profile, m, max_power)
    return (matrices * m * m + vectors * m + blocks * rows * cols + table) * 8


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    """Parse and validate configuration; raise ConfigError listing every problem.

    Every node's type and every scalar conversion is checked here, so any
    JSON object either loads or raises ConfigError.
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
        unknown = set(data) - _TOP_KEYS
        if unknown:
            problems.append(f"unknown config keys {sorted(unknown)}")
        if data.get("version") not in (None, 1):
            problems.append(f"unsupported config version {data.get('version')!r}")

    # --- basis ---
    basis_node = _typed(data.get("basis", {"kind": "string"}), dict, "basis", problems, {})
    trunc_node = _typed(data.get("truncation", {}), dict, "truncation", problems, {})
    if set(trunc_node) - {"modes", "quadrature_nodes", "inner_discard", "top_discard_fraction"}:
        problems.append("truncation: unknown keys")
    modes = trunc_node.get("modes", 200)
    if getattr(overrides, "modes", None) is not None:
        modes = overrides.modes
    domain = None
    kind = basis_node.get("kind")
    sides = _BASIS_SIDES.get(kind) if isinstance(kind, str) else None
    if sides is None:
        problems.append(f"basis.kind must be 'string' or 'rectangle', got {kind!r}")
    else:
        if set(basis_node) - {"kind", *sides}:
            problems.append("basis: unknown keys")
        values = [_number(basis_node.get(side, 1.0), f"basis.{side}", problems) for side in sides]
        if None not in values:
            try:
                domain = (String1D if kind == "string" else Rectangle2D)(*values)
            except ValidationError as exc:
                problems.append(f"basis: {exc}")
    basis = None
    modes = _number(modes, "truncation.modes", problems, int)
    if domain is not None and modes is not None:
        try:
            basis = ModeBasis(domain, modes)
        except ValidationError as exc:
            problems.append(f"basis: {exc}")
    quadrature_nodes, inner_discard = (
        None if trunc_node.get(key) is None
        else _number(trunc_node[key], f"truncation.{key}", problems, int)
        for key in ("quadrature_nodes", "inner_discard")
    )
    if quadrature_nodes is not None and quadrature_nodes < 1:
        problems.append(f"truncation.quadrature_nodes must be >= 1, got {quadrature_nodes}")
    if basis is not None and inner_discard is not None and not 0 <= inner_discard < modes:
        problems.append(f"truncation.inner_discard must be in [0, {modes}), got {inner_discard}")
    top_discard = _number(
        trunc_node.get("top_discard_fraction", 0.25), "truncation.top_discard_fraction", problems
    )
    if top_discard is not None and not 0.0 <= top_discard < 1.0:
        problems.append(f"truncation.top_discard_fraction must be in [0, 1), got {top_discard!r}")

    # --- density ---
    dens_node = _typed(data.get("density", {}), dict, "density", problems, {})
    if set(dens_node) - {"profile", "lambda", "lambda_list"}:
        problems.append("density: unknown keys")
    if "lambda" in dens_node and "lambda_list" in dens_node:
        problems.append("density: give either lambda or lambda_list, not both")
    profile_node = dens_node.get("profile")
    if profile_node is None:
        profile = FourierCosine((0.0, 0.0, 1.0))  # reference profile cos(2 pi x / L)
    else:
        profile = _parse_profile(profile_node, problems)
    if getattr(overrides, "lam", None) is not None:
        tokens = [tok for tok in str(overrides.lam).split(",") if tok]
        lam_list = _numbers(tokens, "--lambda", problems)
    elif "lambda_list" in dens_node:
        lam_list = _numbers(dens_node["lambda_list"], "density.lambda_list", problems)
    else:
        lam = _number(dens_node.get("lambda", 0.1), "density.lambda", problems)
        lam_list = [] if lam is None else [lam]

    # --- orders ---
    order_tokens = overrides.s if getattr(overrides, "s", None) else data.get("orders", ["3/2"])
    orders = []
    for tok in _typed(order_tokens, list, "orders", problems, []):
        try:
            orders.append(RationalOrderSpec.parse(str(tok)))
        except (ValidationError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"order {tok!r}: {exc}")
    if order_tokens == []:
        problems.append("no orders given")

    # --- remaining scalars ---
    route = getattr(overrides, "route", None) or data.get("route", "all")
    if route not in ROUTES:
        problems.append(f"route must be one of {ROUTES}, got {route!r}")
        route = "all"
    diagonal_mode = data.get("diagonal_mode", sumrules.TRUNCATED)
    if getattr(overrides, "resummed", False):
        diagonal_mode = sumrules.RESUMMED
    if diagonal_mode not in (sumrules.TRUNCATED, sumrules.RESUMMED):
        problems.append(f"diagonal_mode must be truncated|resummed, got {diagonal_mode!r}")
    out_node = _typed(data.get("output", {}), dict, "output", problems, {})
    if set(out_node) - {"format", "path"}:
        problems.append("output: unknown keys")
    out_format = getattr(overrides, "format", None) or out_node.get("format", "csv")
    if out_format not in ("csv", "json"):
        problems.append(f"output format must be csv|json, got {out_format!r}")
    out_path = getattr(overrides, "out", None) or out_node.get("path")
    out_path = _typed(out_path, (str, type(None)), "output.path", problems, None)
    threshold = getattr(overrides, "threshold", None)
    if threshold is None:
        threshold = data.get("slope_threshold", 2.7)
    threshold = _number(threshold, "slope_threshold", problems)

    # --- cross validation (one pass, everything reported) ---
    command = getattr(overrides, "command", None)
    if basis is not None:
        max_order = getattr(overrides, "max_order", 2)
        need = _memory_need(command, route, domain, profile, modes, orders, max_order)
        memory = _physical_memory()
        if memory is not None and need > memory:
            problems.append(
                f"truncation.modes: {modes} modes need {need / 2**30:.3g} GiB for the table and "
                f"working set, more than the {memory / 2**30:.3g} GiB of physical memory"
            )
    if command == "coeffs":
        if not 1 <= overrides.n_root <= MAX_ROOT_ORDER:
            problems.append(f"--n-root must be in 1..{MAX_ROOT_ORDER}, got {overrides.n_root}")
        if overrides.max_order < 0:
            problems.append(f"--max-order must be >= 0, got {overrides.max_order}")
    if command == "spectrum" and len(lam_list) > 1:
        problems.append(f"spectrum takes one lambda; extra values {lam_list[1:]}")
    if command == "verify" and len(orders) > 1:
        problems.append(f"verify fits one order; extra orders {[o.label() for o in orders[1:]]}")
    if command == "verify" and (len(set(lam_list)) < 3 or min(lam_list, default=0.0) <= 0.0):
        # the fit is a line through (log lambda, log error): 3 distinct abscissae, each defined
        problems.append(
            f"verify needs at least 3 lambda values, distinct and positive, got {lam_list}"
        )
    if basis is not None and profile is not None:
        for lam in lam_list:
            density = DensityPerturbation(profile, lam)
            try:
                density.validate(basis.domain)
            except ValidationError as exc:
                problems.append(f"lambda={lam:g}: {exc}")
        for spec in orders:
            try:
                spec.validate_for(basis)
            except ValidationError as exc:
                problems.append(f"order {spec.label()}: {exc}")
            if route == "trace1" and spec.kind != "one_plus_inv":
                problems.append(f"order {spec.label()}: route trace1 needs a 1+1/N order")
            if route == "trace2" and spec.kind != "inv_sum":
                problems.append(f"order {spec.label()}: route trace2 needs a 1/N+1/N' order")
    if not lam_list:
        problems.append("no usable lambda values given")
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        basis=basis,
        profile=profile,
        lam_list=lam_list,
        orders=orders,
        quadrature_nodes=quadrature_nodes,
        inner_discard=inner_discard,
        top_discard=top_discard,
        route=route,
        diagonal_mode=diagonal_mode,
        out_format=out_format,
        out_path=out_path,
        slope_threshold=threshold,
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
        with open(cfg.out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sumrule(cfg: RunConfig) -> int:
    table = build_sigma_table(cfg.basis, cfg.profile, 2, nodes=cfg.quadrature_nodes)
    densities = cfg.densities()
    shared = (cfg.orders, table, cfg.basis, densities)
    # route -> one result per (order, density), order-major; each route runs once
    by_route = {}
    if cfg.route in ("all", "closed"):
        by_route["closed"] = sumrules.z_closed_form(*shared, diagonal_mode=cfg.diagonal_mode)
    if cfg.route in ("all", "trace1", "trace2"):
        by_route["trace"] = sumrules.z_via_trace(*shared)
    if cfg.route in ("all", "oracle"):
        by_route["oracle"] = oracle.oracle_sum_rule(*shared, top_discard=cfg.top_discard)
    records: list[SumRuleResult] = []
    diffs: list[dict] = []
    for i, (spec, density) in enumerate(itertools.product(cfg.orders, densities)):
        trace = "trace1" if spec.kind == "one_plus_inv" else "trace2"
        group = {trace if name == "trace" else name: found[i] for name, found in by_route.items()}
        records.extend(group.values())
        for a, b in itertools.combinations(sorted(group), 2):
            diffs.append({
                "order": spec.label(), "lambda": density.lam, "pair": f"{a}-vs-{b}",
                "abs_difference": abs(group[a].z_total - group[b].z_total),
            })
    extra = {"differences": diffs} if diffs else None
    _write_records(records, cfg, extra)
    if diffs and (cfg.out_path or cfg.out_format == "csv"):
        sys.stdout.write("pairwise |dZ|:\n")
        for d in diffs:
            sys.stdout.write(
                f"  s={d['order']} lambda={d['lambda']:g} {d['pair']}: {d['abs_difference']:.3e}\n"
            )
    return EXIT_OK


def cmd_coeffs(cfg: RunConfig, n_root: int, max_order: int) -> int:
    table = build_sigma_table(cfg.basis, cfg.profile, max(max_order, 1), nodes=cfg.quadrature_nodes)
    big_q = coefficients.build_Q_series(max_order, table, cfg.basis)
    cset = coefficients.q_generic_recursion(n_root, big_q, cfg.basis)
    residuals = coefficients.verify_convolution(cset, discard=cfg.inner_discard)
    out_dir = Path(cfg.out_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"n_root": n_root, "max_order": max_order, "modes": cfg.basis.mode_count, "orders": []}
    for k, residual in enumerate(residuals):
        path = out_dir / f"q_N{n_root}_order{k}.csv"
        coefficients.export_coefficients_csv(cset.q_orders[k], path)
        summary["orders"].append({"order": k, "file": path.name, "convolution_residual": residual})
    summary_path = out_dir / f"residuals_N{n_root}.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {max_order + 1} coefficient files and {summary_path.name}\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, first_order_only: bool) -> int:
    table = build_sigma_table(cfg.basis, cfg.profile, 2, nodes=cfg.quadrature_nodes)
    fit = oracle.convergence_order_fit(
        cfg.orders[0],
        table,
        cfg.basis,
        cfg.densities(),
        drop_second_order=first_order_only,
        top_discard=cfg.top_discard,
        diagonal_mode=cfg.diagonal_mode,
    )
    sys.stdout.write("lambda,abs_error\n")
    for lam, err in fit.pairs:
        sys.stdout.write(f"{lam:.17g},{err:.17g}\n")
    for lam, err, floor in fit.excluded:
        sys.stdout.write(f"# excluded lambda={lam:g}: error {err:.3e} below floor {floor:.3e}\n")
    sys.stdout.write(f"slope,{fit.slope:.17g}\n")
    sys.stdout.write(f"threshold,{cfg.slope_threshold:.17g}\n")
    if fit.slope < cfg.slope_threshold:
        sys.stdout.write("verdict,FAIL\n")
        return EXIT_SLOPE
    sys.stdout.write("verdict,PASS\n")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    density = cfg.densities()[0]
    table = build_sigma_table(cfg.basis, cfg.profile, 1, nodes=cfg.quadrature_nodes)
    problem = oracle.assemble(cfg.basis, density, table=table)
    values = oracle.solve_spectrum(problem)
    lines = ["index,eigenvalue"] + [f"{i + 1},{v:.17g}" for i, v in enumerate(values)]
    _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billzeta",
        description="Spectral zeta functions of rational order for heterogeneous billiards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--s", action="append", default=None, metavar="SPEC",
                       help="rational order, e.g. 3/2, 1+1/4 or 1/2+1/3 (repeatable)")
        p.add_argument("--lambda", dest="lam", default=None, metavar="X[,X...]",
                       help="density strength(s)")
        p.add_argument("--route", choices=ROUTES, default=None)
        p.add_argument("--resummed", action="store_true", help="resummed diagonal mode")
        # ignored; kept only because perfbench/workloads.py passes it on every invocation
        p.add_argument("--cache-dir", help=argparse.SUPPRESS)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--modes", type=int, default=None, help="basis truncation M")

    p_sum = sub.add_parser("sumrule", help="compute Z(s) by the requested routes")
    common(p_sum)
    p_coef = sub.add_parser("coeffs", help="dump q^(k) coefficient matrices as CSV")
    common(p_coef)
    p_coef.add_argument("--n-root", type=int, default=2, help="root order N")
    p_coef.add_argument("--max-order", type=int, default=2)
    p_ver = sub.add_parser("verify", help="lambda-scaling validation against the oracle")
    common(p_ver)
    p_ver.add_argument("--threshold", type=float, default=None, help="minimum slope")
    p_ver.add_argument("--first-order-only", action="store_true",
                       help="drop the second-order term (harness self-check)")
    p_spec = sub.add_parser("spectrum", help="export the heterogeneous spectrum as CSV")
    common(p_spec)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command == "sumrule":
            return cmd_sumrule(cfg)
        if args.command == "coeffs":
            return cmd_coeffs(cfg, args.n_root, args.max_order)
        if args.command == "verify":
            return cmd_verify(cfg, args.first_order_only)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        raise ValidationError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(json.dumps({"error": "validation", "problems": exc.problems}), file=sys.stderr)
        return EXIT_VALIDATION
    except (ValidationError, InsufficientDataError) as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}), file=sys.stderr)
        return EXIT_VALIDATION
    except (QuadratureError, FactorizationError, NumericalError, MemoryError) as exc:
        detail = str(exc) or "out of memory"  # numpy's MemoryError can stringify to ""
        print(json.dumps({"error": "numerical", "detail": detail}), file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
