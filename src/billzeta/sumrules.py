"""Spectral zeta values Z(s) of rational order, to second order in the density.

Three routes are implemented and must agree:

* a closed form parameterized only by s (one shared expression);
* the trace of Q q[1/N] for s = 1 + 1/N;
* the trace of q[1/N] q[1/N'] for s = 1/N + 1/N'.

The trace routes reproduce the pre-split second-order expression exactly at
finite truncation; converting to the completeness-split closed form leaves the
computable deficit sum_n (S_2[n,n] - sum_m S_1[n,m]^2) eps_n^{-s}, which the
trace routes add back so all routes are limited by rounding, not by the basis
cutoff.  Both trace series start from a diagonal order 0, so a trace route
needs each series' order-1 matrix entry by entry and only the diagonal of its
order 2; it forms them one block of B rows of S_1 at a time, with no M x M
matrix: O(N M^2) per root order N on a dense table, O(N M (B + 2b)) on a
cosine string of highest harmonic b.  Mode sums rely on
numpy's pairwise reduction; the order-0 tail is a smooth-counting (Weyl)
estimate appended to z0 only.

Every route has the form Z(s; lam) = z0 + lam c1 + lam^2 c2 with lambda-free
c1, c2, so each takes sequences of orders and densities, forms its sums once
per order, and returns one result per (order, density), order-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basis import ROW_BLOCK, DensityPerturbation, ModeBasis, SigmaPowerTable
from .coefficients import Q_trace_terms, trace_terms
from .errors import ValidationError
from .kernels import MAX_ROOT_ORDER, validate_root_order

ROUTE_CLOSED = "closed-form"
ROUTE_TRACE_1P = "trace-one-plus-inv"
ROUTE_TRACE_INV = "trace-inv-sum"
ROUTE_ORACLE = "oracle"

TRUNCATED = "truncated"
RESUMMED = "resummed"


# ---------------------------------------------------------------------------
# rational order bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalOrderSpec:
    """Exponent s carried as its integer decomposition: 1 + 1/N or 1/N + 1/N'."""

    kind: str  # "one_plus_inv" | "inv_sum"
    n_root: int
    n_root2: int | None = None

    def __post_init__(self):
        if self.kind not in ("one_plus_inv", "inv_sum"):
            raise ValidationError(f"unknown decomposition kind {self.kind!r}")
        validate_root_order(self.n_root)
        if self.n_root < 2:
            raise ValidationError("decompositions use root orders N >= 2")
        if self.kind == "inv_sum":
            if self.n_root2 is None:
                raise ValidationError("inv_sum needs a second root order")
            validate_root_order(self.n_root2)
            if self.n_root2 < 2:
                raise ValidationError("decompositions use root orders N >= 2")
        elif self.n_root2 is not None:
            raise ValidationError("one_plus_inv takes a single root order")

    @property
    def s(self) -> float:
        return float(self.fraction)

    @property
    def fraction(self) -> Fraction:
        if self.kind == "one_plus_inv":
            return 1 + Fraction(1, self.n_root)
        return Fraction(1, self.n_root) + Fraction(1, self.n_root2)

    def label(self) -> str:
        if self.kind == "one_plus_inv":
            return f"1+1/{self.n_root}"
        return f"1/{self.n_root}+1/{self.n_root2}"

    def validate_for(self, basis: ModeBasis) -> None:
        _validate_s_for_basis(self.s, basis)

    @classmethod
    def parse(cls, text: str) -> "RationalOrderSpec":
        """Parse '1+1/4', '1/2+1/3', '3/2' or '1.25' into a decomposition."""
        raw = text.strip().replace(" ", "")
        if "+" in raw:
            left, right = raw.split("+", 1)
            lf, rf = Fraction(left), Fraction(right)
            if lf == 1 and rf.numerator == 1:
                return cls("one_plus_inv", rf.denominator)
            if lf.numerator == 1 and rf.numerator == 1:
                return cls("inv_sum", lf.denominator, rf.denominator)
            raise ValidationError(f"cannot interpret order {text!r}")
        frac = Fraction(raw)
        return cls.from_fraction(frac)

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "RationalOrderSpec":
        if frac > 1:
            inv = 1 / (frac - 1)
            if inv.denominator == 1 and 2 <= inv <= MAX_ROOT_ORDER:
                return cls("one_plus_inv", int(inv))
            raise ValidationError(f"{frac} is not of the form 1 + 1/N with N in 2..{MAX_ROOT_ORDER}")
        for n in range(2, MAX_ROOT_ORDER + 1):
            rest = frac - Fraction(1, n)
            if rest.numerator == 1 and 2 <= rest.denominator <= MAX_ROOT_ORDER:
                return cls("inv_sum", n, rest.denominator)
        raise ValidationError(f"{frac} is not of the form 1/N + 1/N' with N, N' in 2..{MAX_ROOT_ORDER}")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

CSV_FIELDS = (
    "route",
    "order_label",
    "s",
    "lam",
    "z0",
    "z1",
    "z2",
    "resummation_correction",
    "z_total",
    "tail_estimate",
    "truncation",
    "diagonal_mode",
)


@dataclass(frozen=True)
class SumRuleResult:
    """One computed Z(s) with per-order contributions and provenance."""

    s: float
    lam: float
    z0: float
    z1: float
    z2: float
    diagonal_mode: str
    tail_estimate: float
    truncation: int
    route: str
    order_label: str
    resummation_correction: float = 0.0

    @property
    def z_total(self) -> float:
        return self.z0 + self.z1 + self.z2 + self.resummation_correction

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_FIELDS}

    def csv_row(self) -> str:
        parts = []
        for name in CSV_FIELDS:
            value = getattr(self, name)
            parts.append(f"{value:.17g}" if isinstance(value, float) else str(value))
        return ",".join(parts)


# ---------------------------------------------------------------------------
# second-order kernels
# ---------------------------------------------------------------------------


def kernel_second_order(eps_n: float, eps_m: float, s: float, *, rtol: float = 1e-12) -> float:
    """Off-diagonal second-order kernel K = (eps_n^{1-s} - eps_m^{1-s})/(eps_m - eps_n).

    Evaluated through expm1/log1p near the diagonal, so nearly and exactly
    degenerate pairs get the analytic limit (s - 1) eps_n^{-s} without
    cancellation.  Arguments are ordered internally, making the symmetry
    K(a, b) = K(b, a) bit-exact.
    """
    if eps_n <= 0 or eps_m <= 0:
        raise ValidationError("eigenvalues must be positive")
    lo, hi = (eps_n, eps_m) if eps_n <= eps_m else (eps_m, eps_n)
    h = (hi - lo) / lo
    if abs(h) <= rtol:
        return (s - 1.0) * lo ** (-s)
    if h < 0.5:
        return lo ** (-s) * (-math.expm1((1.0 - s) * math.log1p(h))) / h
    return (lo ** (1.0 - s) - hi ** (1.0 - s)) / (hi - lo)


def kernel_second_order_presplit(eps_n: float, eps_m: float, s: float) -> float:
    """Pre-split kernel ((eps_m + 3 eps_n) eps_n^{-s} - (3 eps_m + eps_n) eps_m^{-s})/(eps_m - eps_n).

    Equal to (eps_m^{-s} + eps_n^{-s}) + 4 K(eps_n, eps_m; s); its diagonal
    limit 2(2s - 1) eps_n^{-s} is the regularity anchor.
    """
    return (eps_m ** (-s) + eps_n ** (-s)) + 4.0 * kernel_second_order(eps_n, eps_m, s)


def kernel_diagonal(
    eps: np.ndarray, d: int, s: float, weights: np.ndarray | None = None
) -> np.ndarray:
    """Diagonal d of K(eps_n, eps_m; s): K(eps[n], eps[n + d]) for n < M - d.

    eps must be ascending (both bases sort their modes), so lo = eps[n] and
    hi = eps[n + d].  Every pair is evaluated as lo^{-s} (-expm1((1-s) log1p(h)))/h
    with h = (hi - lo)/lo, which has no cancellation near the diagonal or as
    s -> 1; pairs with h <= 1e-12 take the analytic limit (s - 1) lo^{-s}, so
    offset 0 is the diagonal.  Each unordered pair is evaluated once, which
    makes the kernel it stands for exactly symmetric.  weights, if given, is
    eps ** -s, formed once by a caller that walks many offsets.
    """
    e = np.asarray(eps, dtype=float)
    lo = e[: e.size - d]
    base = lo ** (-s) if weights is None else weights[: e.size - d]
    h = e[d:] - lo
    h /= lo
    k = np.log1p(h)
    k *= 1.0 - s
    np.expm1(k, out=k)
    np.negative(k, out=k)
    k *= base
    tiny = h <= 1e-12
    if not tiny.any():
        k /= h
        return k
    np.divide(k, h, out=k, where=~tiny)
    k[tiny] = (s - 1.0) * base[tiny]
    return k


# ---------------------------------------------------------------------------
# truncation tails from smooth eigenvalue counting
# ---------------------------------------------------------------------------


def tail_estimate(
    basis: ModeBasis,
    s: float,
    count: int | None = None,
    *,
    length: float | None = None,
    area: float | None = None,
    perimeter: float | None = None,
) -> float:
    """Estimate of sum over modes beyond the first `count` of eps^{-s}.

    Integrates the smooth Weyl counting term from the cutoff where the smooth
    count equals `count`; in 1D this is the closed form
    (L/pi)^{2s} (M + 1/2)^{1-2s} / (2s - 1).  Optional effective length /
    area / perimeter replace the homogeneous ones (heterogeneous spectra).
    Accuracy contract: within +-50% of the true remainder; use for reporting,
    never for tolerances tighter than that.
    """
    m = count if count is not None else basis.mode_count
    if m < 1:
        raise ValidationError("tail needs count >= 1")
    if basis.dimension == 1:
        if s <= 0.5:
            raise ValidationError(f"tail diverges for s = {s} <= 1/2 in 1D")
        ell = length if length is not None else basis.domain.length
        return (ell / math.pi) ** (2 * s) * (m + 0.5) ** (1 - 2 * s) / (2 * s - 1)
    if s <= 1.0:
        raise ValidationError(f"tail diverges for s = {s} <= 1 in 2D")
    dom = basis.domain
    a_eff = area if area is not None else dom.a * dom.b
    p_eff = perimeter if perimeter is not None else 2.0 * (dom.a + dom.b)
    # smooth count N(E) = A E/(4 pi) - P sqrt(E)/(4 pi) + 1/4; solve N = m
    ca = a_eff / (4.0 * math.pi)
    cp = p_eff / (4.0 * math.pi)
    disc = cp * cp + 4.0 * ca * (m - 0.25)
    root = (cp + math.sqrt(disc)) / (2.0 * ca)
    cutoff = root * root
    tail = ca * cutoff ** (1.0 - s) / (s - 1.0) - 0.5 * cp * cutoff ** (0.5 - s) / (s - 0.5)
    return max(tail, 0.0)


# ---------------------------------------------------------------------------
# the three perturbative routes
# ---------------------------------------------------------------------------


def _validate_s_for_basis(s: float, basis: ModeBasis) -> None:
    """Reject exponents whose zeta sum diverges on the basis's domain."""
    if basis.dimension == 1 and s <= 0.5:
        raise ValidationError(f"s = {s} diverges on a 1D string (needs s > 1/2)")
    if basis.dimension == 2 and s <= 1.0:
        raise ValidationError(f"s = {s} diverges on a 2D rectangle (needs s > 1)")


def _resolve_route_inputs(orders, basis: ModeBasis, densities: list[DensityPerturbation]):
    """(s, label) of every order (a RationalOrderSpec or a number); checks orders and densities."""
    resolved = [
        (o.s, o.label()) if isinstance(o, RationalOrderSpec) else (float(o), f"{float(o):g}")
        for o in orders
    ]
    for s, _ in resolved:
        _validate_s_for_basis(s, basis)
    for density in densities:
        density.validate(basis.domain)
    return resolved


def z_closed_form(
    orders,
    table: SigmaPowerTable,
    basis: ModeBasis,
    densities: list[DensityPerturbation],
    *,
    diagonal_mode: str = TRUNCATED,
) -> list[SumRuleResult]:
    """Z(s) to second order from the shared completeness-split closed form.

    z0 = sum eps^{-s} (+ tail);  z1 = lam s sum <n|s|n> eps^{-s};
    z2 = (lam^2/2) s sum_{n, m} K(eps_n, eps_m; s) <n|s|m><m|s|n>,
    where the diagonal K(eps, eps; s) = (s-1) eps^{-s} carries the n == m terms.
    The double sum walks the diagonals of S_1 up to its width once, reading
    each through the table (O(M b) time and O(M) memory for a cosine table
    with highest harmonic b).  The lambda-free sums are formed once per order.  With
    diagonal_mode="resummed" the truncated diagonal lambda-series is replaced
    by (1 + lam <n|s|n>)^s and the difference reported separately.
    """
    resolved = _resolve_route_inputs(orders, basis, densities)
    if table.max_power < 2:
        raise ValidationError("closed form needs a table with max_power >= 2")
    if diagonal_mode not in (TRUNCATED, RESUMMED):
        raise ValidationError(f"unknown diagonal mode {diagonal_mode!r}")
    m = table.size
    eps = basis.eigenvalues()[:m]
    diag = table.diagonal(1)
    width = table.width(1)
    order_weights = [eps ** (-s) for s, _ in resolved]
    coupled = False
    partial = np.zeros((len(resolved), width + 1))  # [i, d]: order i's kernel sum at offset d
    if any(density.lam != 0.0 for density in densities):
        for d in range(width + 1):
            s1 = table.diagonal(1, d) if d else diag
            coupled = coupled or bool(s1.any())
            sq = s1 * s1  # the kernel sum needs only S_1[n, m]^2 = S_1[m, n]^2
            if d:
                sq *= 2.0  # offset d stands for (n, n + d) and (n + d, n)
            for i, ((s, _), weights) in enumerate(zip(resolved, order_weights)):
                # the kernel at offset 0 is (s - 1) eps^{-s}, so one sum covers n == m
                k = kernel_diagonal(eps, d, s, weights)
                k *= sq
                partial[i, d] = k.sum()
    results = []
    for (s, label), sums, weights in zip(resolved, partial, order_weights):
        tail = tail_estimate(basis, s, m)
        z0 = float(np.sum(weights)) + tail
        sum1 = float(np.sum(diag * weights))
        sum2 = float(np.sum(sums))
        for density in densities:
            lam = density.lam
            z1 = z2 = correction = 0.0
            if lam != 0.0 and coupled:
                z1 = lam * s * sum1
                z2 = 0.5 * lam * lam * s * sum2
                if diagonal_mode == RESUMMED:
                    resummed = np.power(1.0 + lam * diag, s)
                    series = 1.0 + lam * s * diag + 0.5 * lam * lam * s * (s - 1.0) * diag * diag
                    correction = float(np.sum(weights * (resummed - series)))
            results.append(SumRuleResult(
                s=s, lam=lam, z0=z0, z1=z1, z2=z2, diagonal_mode=diagonal_mode,
                tail_estimate=tail, truncation=m, route=ROUTE_CLOSED, order_label=label,
                resummation_correction=correction,
            ))
    return results


def _series_traces(a, b, d: int) -> tuple[float, float, float]:
    """One row block's share of orders 0..2 of tr(A B), for two (q^(0), q^(1), diag q^(2)) triples.

    Both series start from a diagonal order 0, so the lambda^2 term
    tr(A_1 B_1) + tr(A_2 B_0) + tr(A_0 B_2) reads only the diagonals of A_2
    and B_2.  Row r of the block's order-1 matrices has its diagonal entry in
    column r + d.
    """
    (a0, a1, a2), (b0, b1, b2) = a, b
    a1_diag, b1_diag = (np.diagonal(x, d)[: len(a0)] for x in (a1, b1))
    t0 = float(a0 @ b0)
    t1 = float(a0 @ b1_diag) + float(a1_diag @ b0)
    t2 = float(np.vdot(a1, b1)) + float(a2 @ b0) + float(a0 @ b2)
    return t0, t1, t2


def z_via_trace(
    specs,
    table: SigmaPowerTable,
    basis: ModeBasis,
    densities: list[DensityPerturbation],
) -> list[SumRuleResult]:
    """Z(s) as the order-by-order trace of a product of two coefficient series.

    s = 1 + 1/N traces Q q[1/N]; s = 1/N + 1/N' traces q[1/N] q[1/N'] (1D
    only: s <= 1 diverges in two dimensions).  The lambda^2 term carries the
    completeness-deficit compensation, after which the route matches the
    closed form to rounding on the same table.  Each series enters only as
    (order-0 diagonal, order-1 matrix, order-2 diagonal), and all of them are
    formed one block of ROW_BLOCK rows of S_1 at a time, over the columns
    within S_1's width of the block: Q's terms once per block, each q set once
    per block and root order N, and each distinct series pair's share of the
    trace from them.  So no M x M matrix is formed: O(N M^2) time on a dense
    table, O(N M (ROW_BLOCK + 2b)) on a cosine string of highest harmonic b,
    with a working set of a few blocks.
    """
    specs = list(specs)
    _resolve_route_inputs(specs, basis, densities)
    if table.max_power < 2:
        raise ValidationError("trace route needs a table with max_power >= 2")
    m = table.size
    eps = basis.eigenvalues()[:m]
    s2_diag = table.diagonal(2)
    # q[1/1] is Q itself: 1 + 1/N traces the series pair (1, N), 1/N + 1/N' the pair (N, N')
    pairs = [(1, o.n_root) if o.kind == "one_plus_inv" else (o.n_root, o.n_root2) for o in specs]
    distinct = list(dict.fromkeys(pairs))
    roots = [n for n in dict.fromkeys(n for pair in distinct for n in pair) if n != 1]
    starts = range(0, m, ROW_BLOCK)
    partial = np.zeros((len(distinct), 3, len(starts)))  # [pair, order, block]
    s1_row_sq = np.empty(m)
    for k, lo in enumerate(starts):
        hi = min(lo + ROW_BLOCK, m)
        c0, s1 = table.rows(1, lo, hi)
        big_q, s1_row_sq[lo:hi] = Q_trace_terms(s1, s2_diag[lo:hi], eps, lo, c0)
        series = {1: big_q}
        for n in roots:
            series[n] = trace_terms(n, big_q, eps, lo, c0)
        for i, (a, b) in enumerate(distinct):
            partial[i, :, k] = _series_traces(series[a], series[b], lo - c0)
    traces = dict(zip(distinct, np.sum(partial, axis=2).tolist()))
    # S_2[n,n] - sum_{m<=M} S_1[n,m]^2, free of s: weighted by eps^{-s}, the finite-basis
    # deficit between the pre-split trace and the completeness-split closed form
    deficit = s2_diag - s1_row_sq
    results = []
    for spec, pair in zip(specs, pairs):
        t0, t1, t2 = traces[pair]
        route = ROUTE_TRACE_1P if spec.kind == "one_plus_inv" else ROUTE_TRACE_INV
        s = spec.s
        tail = tail_estimate(basis, s, m)
        z0 = t0 + tail
        c2 = t2 + 0.25 * s * float(np.sum(deficit * eps ** (-s)))
        results += [
            SumRuleResult(
                s=s, lam=d.lam, z0=z0, z1=d.lam * t1, z2=d.lam * d.lam * c2,
                diagonal_mode=TRUNCATED, tail_estimate=tail, truncation=m, route=route,
                order_label=spec.label(),
            )
            for d in densities
        ]
    return results
