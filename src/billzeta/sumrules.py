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
order 2.  The closed form and the trace routes read S_1 only as its nonzero
couplings S_1[n, m], m >= n, one step of rows at a time
(``SigmaPowerTable.walk``), and form no M x M matrix: O(N nnz(S_1)) time
per root order N, which is O(N M) for a cosine profile on the string or the
rectangle and O(N M^2) for a dense S_1, with one step's pairs in memory.
Every route takes a table of exactly its basis's modes.  Mode sums rely on
numpy's pairwise reduction; the order-0 tail is a smooth-counting (Weyl)
estimate appended to z0 only.

Every route has the form Z(s; lam) = z0 + lam c1 + lam^2 c2 with lambda-free
c1, c2, so each takes sequences of orders and densities, forms its sums once
per order, and returns one result per (order, density), order-major.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from ._record import dataclass
from .basis import DensityPerturbation, ModeBasis, SigmaPowerTable
from .coefficients import Q_diagonal, Q_trace_terms, q_diagonal, trace_terms
from .errors import ValidationError
from .kernels import MAX_ROOT_ORDER, validate_root_order

ROUTE_CLOSED = "closed-form"
ROUTE_TRACE_1P = "trace-one-plus-inv"
ROUTE_TRACE_INV = "trace-inv-sum"
ROUTE_ORACLE = "oracle"


# ---------------------------------------------------------------------------
# rational order bookkeeping
# ---------------------------------------------------------------------------


# One term of an order's text: an integer, p/q or a decimal with an optional exponent, signed.
_ORDER_TERM = re.compile(r"-?(\d+/\d+|(\d+\.?\d*|\.\d+)([eE]-?\d+)?)")
# Every order 1 + 1/N or 1/N + 1/N' lies in [2 / MAX_ROOT_ORDER, 3/2], here widened past rounding.
_ORDER_SPAN = (2 / MAX_ROOT_ORDER * (1 - 1e-9), 1.5 * (1 + 1e-9))


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
        """Parse '1+1/4', '1/2+1/3', '3/2' or '1.25' into a decomposition; problems quote the text.

        The terms' forms, their denominators and the value's float are checked
        before any exact arithmetic, so an exponent cannot make the work or
        the message outgrow the text.
        """
        terms = text.strip().replace(" ", "").split("+", 1)
        try:
            if not all(map(_ORDER_TERM.fullmatch, terms)):
                raise ValidationError("not p/q, a decimal or a sum of two of them")
            parts = [term.partition("/") for term in terms]
            if any(slash and not q.strip("0") for _, slash, q in parts):
                raise ValidationError("a denominator is zero")
            if not _ORDER_SPAN[0] <= sum(float(p) / float(q or 1) for p, _, q in parts) <= _ORDER_SPAN[1]:
                raise ValidationError(f"outside [{Fraction(2, MAX_ROOT_ORDER)}, 3/2], where every order lies")
            if len(terms) == 1:
                return cls.from_fraction(Fraction(terms[0]))
            lf, rf = map(Fraction, terms)
            if lf == 1 and rf.numerator == 1:
                return cls("one_plus_inv", rf.denominator)
            if lf.numerator == 1 and rf.numerator == 1:
                return cls("inv_sum", lf.denominator, rf.denominator)
            raise ValidationError("neither 1 + 1/N nor 1/N + 1/N'")
        except (ValidationError, ValueError) as exc:  # ValueError: past int's digit limit
            raise ValidationError(f"order {text!r}: {exc}") from None

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
    "z_total",
    "tail_estimate",
    "truncation",
)


@dataclass(frozen=True)
class SumRuleResult:
    """One computed Z(s) with per-order contributions and provenance."""

    s: float
    lam: float
    z0: float
    z1: float
    z2: float
    tail_estimate: float
    truncation: int
    route: str
    order_label: str

    @property
    def z_total(self) -> float:
        return self.z0 + self.z1 + self.z2

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


def kernel_pairs(lo: np.ndarray, hi: np.ndarray, s: float, weights: np.ndarray | None = None) -> np.ndarray:
    """K(lo, hi; s) pair by pair, for eigenvalue pairs lo <= hi.

    Every pair is evaluated as lo^{-s} (-expm1((1-s) log1p(h)))/h with
    h = (hi - lo)/lo, which has no cancellation near the diagonal or as
    s -> 1; pairs with h <= 1e-12 take the analytic limit (s - 1) lo^{-s},
    so lo == hi is the diagonal.  Each unordered pair is evaluated once,
    which makes the kernel it stands for exactly symmetric.  weights, if
    given, is lo ** -s, gathered from an eps ** -s a caller forms once.
    """
    base = lo ** (-s) if weights is None else weights
    h = hi - lo
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
    _validate_s_for_basis(s, basis)
    if basis.dimension == 1:
        ell = length if length is not None else basis.domain.length
        return (ell / math.pi) ** (2 * s) * (m + 0.5) ** (1 - 2 * s) / (2 * s - 1)
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


def _resolve_route_inputs(orders, table: SigmaPowerTable, basis: ModeBasis, densities):
    """(s, label) of every order (a RationalOrderSpec or a number); checks the table, orders and densities."""
    table.check_basis(basis)
    resolved = [
        (o.s, o.label()) if isinstance(o, RationalOrderSpec) else (float(o), f"{float(o):g}")
        for o in orders
    ]
    for s, _ in resolved:
        _validate_s_for_basis(s, basis)
    for density in densities:
        density.validate(basis.domain)
    return resolved


def _kernel_block(n, m, s1, eps, orders) -> tuple[bool, list]:
    """Whether a step of couplings (n, m, S_1[n, m]) has any, and each (s, eps^{-s}) order's sum
    over both triangles of K(eps_n, eps_m; s) S_1[n, m]^2 there."""
    sq = s1 * s1  # the kernel sum needs only S_1[n, m]^2 = S_1[m, n]^2
    sq *= np.where(n == m, 1.0, 2.0)  # an off-diagonal pair stands for (n, m) and (m, n)
    lo_eps, hi_eps = eps[n], eps[m]
    sums = []
    for s, weights in orders:
        # the kernel at lo == hi is (s - 1) eps^{-s}, so one sum covers n == m
        kernel = kernel_pairs(lo_eps, hi_eps, s, weights[n])
        kernel *= sq
        sums.append(kernel.sum())
    return s1.size > 0, sums


def z_closed_form(
    orders,
    table: SigmaPowerTable,
    basis: ModeBasis,
    densities: list[DensityPerturbation],
) -> list[SumRuleResult]:
    """Z(s) to second order from the shared completeness-split closed form.

    z0 = sum eps^{-s} (+ tail);  z1 = lam s sum <n|s|n> eps^{-s};
    z2 = (lam^2/2) s sum_{n, m} K(eps_n, eps_m; s) <n|s|m><m|s|n>,
    where the diagonal K(eps, eps; s) = (s-1) eps^{-s} carries the n == m terms.
    The double sum walks the nonzero couplings of S_1 with m >= n
    (``SigmaPowerTable.walk``) one step of rows at a time, each
    pair off the diagonal counted twice: O(nnz(S_1)) time per order, with one
    step's pairs in memory (O(M) pairs in all for a cosine profile,
    O(M^2) for a dense one).  The lambda-free sums are formed once per order.
    """
    resolved = _resolve_route_inputs(orders, table, basis, densities)
    if table.max_power < 2:
        raise ValidationError("closed form needs a table with max_power >= 2")
    m = table.size
    eps = basis.eigenvalues()
    diag = table.diagonal(1)
    order_weights = [(s, eps ** (-s)) for s, _ in resolved]
    blocks = []
    if any(density.lam != 0.0 for density in densities):
        blocks = [_kernel_block(rows, cols, s1, eps, order_weights) for _, rows, cols, s1 in table.walk(1)]
    coupled = any(pairs for pairs, _ in blocks)
    partial = np.array([sums for _, sums in blocks]).reshape(-1, len(resolved)).T  # [order, block]
    results = []
    for (s, label), sums, (_, weights) in zip(resolved, partial, order_weights):
        tail = tail_estimate(basis, s, m)
        z0 = float(np.sum(weights)) + tail
        sum1 = float(np.sum(diag * weights))
        sum2 = float(np.sum(sums))
        for density in densities:
            lam = density.lam
            z1 = z2 = 0.0
            if lam != 0.0 and coupled:
                z1 = lam * s * sum1
                z2 = 0.5 * lam * lam * s * sum2
            results.append(SumRuleResult(
                s=s, lam=lam, z0=z0, z1=z1, z2=z2, tail_estimate=tail, truncation=m,
                route=ROUTE_CLOSED, order_label=label,
            ))
    return results


def _add_ends(acc: np.ndarray, lo: int, ends, at_n: np.ndarray, at_m: np.ndarray) -> None:
    """Add each pair's at_n to acc[n] and, off the diagonal, its at_m to acc[m].

    ends = (n - lo, m - lo, 0 on the diagonal and 1 off it) for pairs with
    lo <= n <= m, shared by every accumulator of a step.
    """
    rows_n, rows_m, off = ends
    for rows, terms in ((rows_n, at_n), (rows_m, at_m * off)):
        sums = np.bincount(rows, terms)
        acc[lo : lo + len(sums)] += sums


def _trace_block(lo, n, m, s1, eps, order0, distinct, row_sums, s1_row_sq) -> list:
    """One step of couplings (n, m, S_1[n, m]) of rows lo.. in the trace route: each distinct
    series pair's (tr(A_0 B_1) + tr(A_1 B_0), tr(A_1 B_1)) share.

    Forms Q^(1) and each q[1/N]^(1) on the step's couplings, from the
    series' order-0 diagonals order0 (keyed by N, Q's under 1), and adds the
    pairs' row terms at both ends to row_sums and S_1[n, m]^2 to s1_row_sq.
    """
    on = n == m
    twice = np.where(on, 1.0, 2.0)  # an off-diagonal pair stands for (n, m) and (m, n)
    ends = (n - lo, m - lo, twice - 1.0)
    diag = np.flatnonzero(on)
    big_q1, sq, big_q_ends = Q_trace_terms(n, m, s1, eps)
    _add_ends(s1_row_sq, lo, ends, sq, sq)
    order1 = {1: (big_q1, big_q_ends)}
    for r in order0:
        if r != 1:
            order1[r] = trace_terms(r, order0[r], n, m, big_q1)
    for r, (_, row_terms) in order1.items():
        _add_ends(row_sums[r], lo, ends, *row_terms)
    shares = []
    for a, b in distinct:
        (a1, _), (b1, _) = order1[a], order1[b]
        t1 = float(order0[a][n[diag]] @ b1[diag]) + float(a1[diag] @ order0[b][n[diag]])
        shares.append((t1, float((twice * a1) @ b1)))
    return shares


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
    (order-0 diagonal, order-1 matrix, order-2 diagonal).  The order-1
    matrices are symmetric, so they are formed on the nonzero couplings of
    S_1 with m >= n (``SigmaPowerTable.walk``): Q's once per step and
    each q[1/N]'s once per step and root order N.  Each distinct series
    pair's tr(A_0 B_1) + tr(A_1 B_0) and tr(A_1 B_1) are summed from them, and
    the row sums that the order-2 diagonals need go into length-M
    accumulators at both ends of each pair.  So no M x M matrix is formed:
    O(N nnz(S_1)) time, with one step's pairs and a few length-M vectors per
    series in memory.
    """
    specs = list(specs)
    for spec in specs:  # a number carries no decomposition 1 + 1/N or 1/N + 1/N'
        if not isinstance(spec, RationalOrderSpec):
            raise ValidationError(f"order {spec!r}: the trace route needs a RationalOrderSpec")
    _resolve_route_inputs(specs, table, basis, densities)
    if table.max_power < 2:
        raise ValidationError("trace route needs a table with max_power >= 2")
    m = table.size
    eps = basis.eigenvalues()
    # q[1/1] is Q itself: 1 + 1/N traces the series pair (1, N), 1/N + 1/N' the pair (N, N')
    pairs = [(1, o.n_root) if o.kind == "one_plus_inv" else (o.n_root, o.n_root2) for o in specs]
    distinct = list(dict.fromkeys(pairs))
    # every series' order-0 diagonal, and the row sums its order-2 diagonal subtracts: for Q
    # those of S_1[n,r]^2 / eps_r, for q[1/N] the xi-weighted ones
    series = dict.fromkeys((1, *(n for pair in distinct for n in pair)))
    order0 = {n: 1.0 / eps if n == 1 else eps ** (-1.0 / n) for n in series}
    row_sums = {n: np.zeros(m) for n in order0}
    s1_row_sq = np.zeros(m)
    shares = np.array([  # [step, pair, (t1, tr(A_1 B_1))]: each step's share
        _trace_block(*coupled, eps, order0, distinct, row_sums, s1_row_sq) for coupled in table.walk(1)
    ]).reshape(-1, len(distinct), 2)
    s2_diag = table.diagonal(2)
    big_q2 = Q_diagonal(s2_diag, row_sums[1], eps)
    order2 = {n: big_q2 if n == 1 else q_diagonal(n, order0[n], big_q2, row_sums[n]) for n in order0}
    # both series start from a diagonal order 0, so the lambda^2 term
    # tr(A_1 B_1) + tr(A_2 B_0) + tr(A_0 B_2) reads only the diagonals of A_2 and B_2
    traces = {}
    for (a, b), (t1, t2) in zip(distinct, np.sum(shares, axis=0)):
        a0, b0 = order0[a], order0[b]
        t2 += float(order2[a] @ b0) + float(a0 @ order2[b])
        traces[(a, b)] = (float(a0 @ b0), float(t1), float(t2))
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
                # adding 0.0 makes a zero term +0.0 whatever the sign of lambda, as in the closed form
                s=s, lam=d.lam, z0=z0, z1=d.lam * t1 + 0.0, z2=d.lam * d.lam * c2 + 0.0,
                tail_estimate=tail, truncation=m, route=route, order_label=spec.label(),
            )
            for d in densities
        ]
    return results
