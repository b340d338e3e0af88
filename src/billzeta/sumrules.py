"""Spectral zeta values Z(s) of rational order, to second order in the density.

Three routes are implemented and must agree:

* a closed form parameterized only by s (one shared expression);
* the trace of q[1/a] q[1/b] for s = 1/a + 1/b, where q[1/1] is the dressed
  Green's function Q itself: s = 1 + 1/N traces Q q[1/N] and
  s = 1/N + 1/N' traces q[1/N] q[1/N'].

An order is its pair of root orders (a, b) (``RationalOrderSpec.roots``).

The trace routes reproduce the pre-split second-order expression exactly at
finite truncation; converting to the completeness-split closed form leaves the
computable deficit sum_n (S_2[n,n] - sum_m S_1[n,m]^2) eps_n^{-s}, which the
trace routes add back so all routes are limited by rounding, not by the basis
cutoff.  Both trace series start from a diagonal order 0, so a trace route
needs each series' order-1 matrix entry by entry only in tr(A_1 B_1), and
otherwise the diagonals of its orders 1 and 2.  The closed form and the trace
routes read S_1 only as its nonzero couplings S_1[n, m], m >= n, one step of
rows at a time (``SigmaPowerTable.walk``), forming only their lambda^2 pair
sums in each step, and read every diagonal once.  They form
no M x M matrix: O(N nnz(S_1)) time per root order N, which is O(N M) for a
cosine profile on the string or the rectangle and O(N M^2) for a dense S_1,
with one step's pairs in memory.
A table is the run's medium: it carries the basis and the profile sigma, and
each route checks every lambda against that profile on that domain.  Mode
sums rely on numpy's pairwise reduction; the order-0 tail is a smooth-counting (Weyl)
estimate appended to z0 only.

Both perturbative routes reduce each order once to the lambda-free (z0 sum,
c1, c2, 2^e) of Z(s; lam) = z0 + lam c1 + lam^2 2^(2e) c2, and one builder
(``_records``) forms the records: z1 = lam c1 + 0.0 and z2 = (lam 2^e)(lam 2^e)
c2 + 0.0, so a zero term is +0.0 whatever the sign of lambda.  The scale is
exact, and 1 (e = 0) unless the closed form's sup|sigma| lies outside
[2^-100, 2^100] (``_sigma_scale``): past about 1e+-154, S_1^2 or lam^2 alone
would leave the doubles.  The trace route's is 1, as its table holds sigma^2
itself.  Every route takes a sequence of orders, the table and a sequence of
lambdas, and returns one result per (order, lambda), order-major.
"""

from __future__ import annotations

import math
import re

import numpy as np

from ._record import dataclass
from .basis import ModeBasis, SigmaPowerTable, sigma_range
from .coefficients import Q_diagonal, Q_trace_terms, q_diagonal, trace_terms
from .errors import ValidationError
from .kernels import MAX_ROOT_ORDER, validate_root_order

ROUTE_CLOSED = "closed-form"
ROUTE_TRACE_1P = "trace-one-plus-inv"
ROUTE_TRACE_INV = "trace-inv-sum"
ROUTE_ORACLE = "oracle"
_UNSCALED = 2.0**100  # a profile with sup|sigma| within this factor of 1 takes z2 unscaled, e = 0


# ---------------------------------------------------------------------------
# rational order bookkeeping
# ---------------------------------------------------------------------------


# One term of an order's text: an integer, p/q or a decimal with an optional exponent, signed.
_ORDER_TERM = re.compile(
    r"(?P<sign>-?)(?:(?P<num>\d+)/(?P<den>\d+)"  # p/q
    r"|(?=\.?\d)(?P<int>\d*)(?:\.(?P<frac>\d*))?(?:[eE](?P<exp>-?\d+))?)"  # 1, 1., .5, 1.5, each with e-3
)
# Every order 1 + 1/N or 1/N + 1/N' lies in [2 / MAX_ROOT_ORDER, 3/2], here widened past rounding.
_ORDER_SPAN = (2 / MAX_ROOT_ORDER * (1 - 1e-9), 1.5 * (1 + 1e-9))


def _ratio(term: re.Match, value: float) -> tuple[int, int]:
    """A matched term as its reduced (n, d), d > 0; value is its double.

    Its digit strings go through int one at a time, integer part, fraction
    part, then exponent, as the standard library's rational parser takes
    them, so past int's digit limit the same part raises the same
    ValueError.  A zero mantissa is 0 whatever its exponent; any other must
    have a nonzero double (finite, as parse has checked the sum), which
    bounds the exponent by the digits before 10**exp is formed.
    """
    if term["den"] is not None:
        n, d = int(term["num"]), int(term["den"])
    else:
        frac = term["frac"] or ""
        whole, part, exp = int(term["int"] or "0"), int(frac or "0"), int(term["exp"] or "0") - len(frac)
        n = whole * 10 ** len(frac) + part
        if n == 0:
            return 0, 1
        if value == 0.0:
            raise ValidationError(f"term {term[0]!r} is not 0, but its double is 0.0")
        n, d = (n * 10**exp, 1) if exp >= 0 else (n, 10**-exp)
    if term["sign"]:
        n = -n
    g = math.gcd(n, d)
    return n // g, d // g


@dataclass
class RationalOrderSpec:
    """Exponent s = 1/a + 1/b carried as its root orders (a, b): (1, N) is 1 + 1/N, (N, N') 1/N + 1/N'."""

    roots: tuple[int, int]

    def __post_init__(self):
        if not isinstance(self.roots, tuple) or len(self.roots) != 2:
            raise ValidationError(f"an order needs two root orders (a, b), got {self.roots!r}")
        for root in self.roots:
            validate_root_order(root)
        if self.roots[1] < 2:
            raise ValidationError("the second root order must be >= 2")

    @property
    def s(self) -> float:
        a, b = self.roots
        return (a + b) / (a * b)  # one correctly rounded division of exact integers

    def label(self) -> str:
        a, b = self.roots
        return f"1+1/{b}" if a == 1 else f"1/{a}+1/{b}"

    def validate_for(self, basis: ModeBasis) -> None:
        _validate_s_for_basis(self.s, basis)

    @classmethod
    def parse(cls, text: str) -> "RationalOrderSpec":
        """Parse '1+1/4', '1/2+1/3', '3/2' or '1.25' into its root orders; problems quote the text.

        The terms' forms, their denominators and the value's double are checked
        before any exact arithmetic, so an exponent cannot make the work or
        the message outgrow the text.
        """
        terms = text.strip().replace(" ", "").split("+", 1)
        try:
            matches = [_ORDER_TERM.fullmatch(term) for term in terms]
            if not all(matches):
                raise ValidationError("not p/q, a decimal or a sum of two of them")
            if any(m["den"] is not None and float(m["den"]) == 0 for m in matches):
                raise ValidationError("a denominator is zero")
            values = [float(p) / float(q or 1) for p, _, q in (term.partition("/") for term in terms)]
            if not _ORDER_SPAN[0] <= sum(values) <= _ORDER_SPAN[1]:
                raise ValidationError(f"outside [1/{MAX_ROOT_ORDER // 2}, 3/2], where every order lies")
            ratios = [_ratio(m, value) for m, value in zip(matches, values)]
            if len(ratios) == 1:
                return cls._from_ratio(*ratios[0])
            if all(n == 1 for n, _ in ratios):
                return cls(tuple(d for _, d in ratios))
            raise ValidationError("neither 1 + 1/N nor 1/N + 1/N'")
        except (ValidationError, ValueError) as exc:  # ValueError: past int's digit limit
            raise ValidationError(f"order {text!r}: {exc}") from None

    @classmethod
    def _from_ratio(cls, n: int, d: int) -> "RationalOrderSpec":
        """The first (a, b), a ascending, with n/d = 1/a + 1/b and b in 2..MAX_ROOT_ORDER (n/d reduced)."""
        for a in range(1, MAX_ROOT_ORDER + 1):
            rest_n, rest_d = n * a - d, d * a  # n/d - 1/a, 1/b exactly when rest_n divides rest_d
            if rest_n > 0 and rest_d % rest_n == 0 and 2 <= rest_d // rest_n <= MAX_ROOT_ORDER:
                return cls((a, rest_d // rest_n))
        value = f"{n}/{d}" if d != 1 else f"{n}"
        raise ValidationError(f"{value} is neither 1 + 1/N nor 1/N + 1/N' with N, N' in 2..{MAX_ROOT_ORDER}")


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


@dataclass
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
    """Reject exponents that are not finite or whose zeta sum diverges on the basis's domain."""
    if not math.isfinite(s):
        raise ValidationError(f"s = {s} is not finite")
    if basis.dimension == 1 and s <= 0.5:
        raise ValidationError(f"s = {s} diverges on a 1D string (needs s > 1/2)")
    if basis.dimension == 2 and s <= 1.0:
        raise ValidationError(f"s = {s} diverges on a 2D rectangle (needs s > 1)")


def _s_and_label(order) -> tuple[float, str]:
    """(s, label) of an order: a RationalOrderSpec or a number."""
    return (order.s, order.label()) if isinstance(order, RationalOrderSpec) else (float(order), f"{float(order):g}")


def _resolve_route_inputs(orders, table: SigmaPowerTable, lams):
    """(s, label) of every order (a RationalOrderSpec or a number); checks the orders and the
    lambdas on the table's basis and profile.  The table checks each power a route reads."""
    resolved = [_s_and_label(o) for o in orders]
    for s, _ in resolved:
        _validate_s_for_basis(s, table.basis)
    for lam in lams:
        table.check_strength(lam)
    return resolved


def _sigma_scale(table: SigmaPowerTable) -> float:
    """2^e, exact, with sup|sigma| 2^-e in [1, 2); 1.0 while sup|sigma| is 0 or within _UNSCALED of 1.

    sup|sigma| is the larger end of the table's sampled ``sigma_range``, so
    S_1 2^-e is of order 1 and, as |lam| sup|sigma| < 1, so is lam 2^e: a
    profile near 1e300 at lam near 1e-301 squares neither S_1 nor lam past
    the doubles, nor one near 1e-190 at lam near 1e189.  e >= -1022 keeps
    2^-e a double.
    """
    sup = max(map(abs, sigma_range(table.profile, table.basis.domain)))
    if sup == 0.0 or 1.0 / _UNSCALED <= sup <= _UNSCALED:
        return 1.0
    return math.ldexp(1.0, max(math.frexp(sup)[1] - 1, -1022))


def _records(expansions, table: SigmaPowerTable, lams) -> list[SumRuleResult]:
    """One result per (order, lambda), order-major, from each order's (s, label, route, z0 sum, c1, c2,
    scale).

    Z(s; lam) = z0 + lam c1 + (lam scale)(lam scale) c2 with the tail estimate
    added to the z0 sum; a scale of 1.0 leaves lam's bits, and adding 0.0
    makes a zero term +0.0 whatever the sign of lambda.
    """
    m = table.size
    results = []
    for s, label, route, z0, c1, c2, scale in expansions:
        tail = tail_estimate(table.basis, s, m)
        results += [
            SumRuleResult(
                s=s, lam=lam, z0=z0 + tail, z1=lam * c1 + 0.0, z2=(lam * scale) * (lam * scale) * c2 + 0.0,
                tail_estimate=tail, truncation=m, route=route, order_label=label,
            )
            for lam in lams
        ]
    return results


def _kernel_block(n, m, s1, eps, orders, inverse) -> list:
    """Each (s, eps^{-s}) order's sum over both triangles of K(eps_n, eps_m; s) (inverse S_1[n, m])^2
    on a step of couplings (n, m, S_1[n, m]); inverse is 1/scale, a power of two."""
    sq = s1 * inverse  # the kernel sum needs only S_1[n, m]^2 = S_1[m, n]^2
    sq *= sq
    sq *= np.where(n == m, 1.0, 2.0)  # an off-diagonal pair stands for (n, m) and (m, n)
    lo_eps, hi_eps = eps[n], eps[m]
    sums = []
    for s, weights in orders:
        # the kernel at lo == hi is (s - 1) eps^{-s}, so one sum covers n == m
        kernel = kernel_pairs(lo_eps, hi_eps, s, weights[n])
        kernel *= sq
        sums.append(kernel.sum())
    return sums


def z_closed_form(orders, table: SigmaPowerTable, lams) -> list[SumRuleResult]:
    """Z(s) to second order from the shared completeness-split closed form.

    z0 = sum eps^{-s} (+ tail);  z1 = lam s sum <n|s|n> eps^{-s};
    z2 = (lam^2/2) s sum_{n, m} K(eps_n, eps_m; s) <n|s|m><m|s|n>,
    where the diagonal K(eps, eps; s) = (s-1) eps^{-s} carries the n == m terms.

    These are the lam and lam^2 terms of Z_M = sum_n E_n^{-s} = tr f(B), f(x) =
    x^s, over the M-mode spectrum: its 1/E_n are the eigenvalues of the graded
    B = r (I + lam S_1) r, r = diag(eps_n)^{-1/2} (``oracle.solve_spectrum``).
    B = X + lam V with X = diag(x_n), x_n = 1/eps_n, and V[n, m] = S_1[n, m] /
    sqrt(eps_n eps_m), and a trace function expands (Daleckii-Krein) as
        tr f(X + lam V) = sum_n f(x_n) + lam sum_n f'(x_n) V[n, n]
                          + (lam^2/2) sum_{n, m} f'^[1](x_n, x_m) V[n, m]^2 + O(lam^3),
    where f'^[1](x, y) = (f'(x) - f'(y)) / (x - y) is the divided difference of
    f' = s x^(s-1), and f''(x) at x = y.  f'(x_n) V[n, n] = s eps_n^{-s} S_1[n, n]
    gives z1, and V[n, m]^2 = S_1[n, m]^2 / (eps_n eps_m) gives z2, since
        s K(eps_n, eps_m; s) = f'^[1](1/eps_n, 1/eps_m) / (eps_n eps_m):
    both sides are s (eps_n^{1-s} - eps_m^{1-s}) / (eps_m - eps_n) off the
    diagonal, the form ``kernel_pairs`` evaluates, and s (s-1) eps^{-s} on it.
    tr B and tr B^2 are polynomials in lam of degree 1 and 2, so at s = 1 and
    s = 2 the three terms (z0 without its tail) are Z_M exactly.

    It reads S_1 alone.  The double sum walks its nonzero couplings with m >= n
    (``SigmaPowerTable.walk``) one step of rows at a time, each
    pair off the diagonal counted twice: O(nnz(S_1)) time per order, with one
    step's pairs in memory (O(M) pairs in all for a cosine profile,
    O(M^2) for a dense one); the z1 sum reads S_1's diagonal after the walk.
    Each S_1[n, m] is scaled by 2^-e before it is squared, and lam by 2^e in
    ``_records`` (``_sigma_scale``; e = 0 for every profile of ordinary size).
    """
    resolved = _resolve_route_inputs(orders, table, lams)
    eps = table.basis.eigenvalues()
    order_weights = [(s, eps ** (-s)) for s, _ in resolved]
    scale = _sigma_scale(table)
    with np.errstate(over="ignore", invalid="ignore"):  # an S_1[n, m]^2 past the doubles: a z2 not finite
        blocks = [_kernel_block(rows, cols, s1, eps, order_weights, 1.0 / scale)
                  for _, rows, cols, s1 in table.walk(1)]
    partial = np.array(blocks).reshape(len(blocks), len(resolved)).T  # [order, block]
    diag = table.diagonal(1)
    expansions = [
        (s, label, ROUTE_CLOSED, float(np.sum(weights)), s * float(np.sum(diag * weights)),
         0.5 * s * float(np.sum(sums)), scale)
        for (s, label), (_, weights), sums in zip(resolved, order_weights, partial)
    ]
    return _records(expansions, table, lams)


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
    series pair's tr(A_1 B_1) share.

    Forms Q^(1) and each q[1/N]^(1) on the step's couplings, from the
    series' order-0 diagonals order0 (keyed by N, Q's under 1), and adds the
    pairs' row terms at both ends to row_sums and S_1[n, m]^2 to s1_row_sq.
    """
    twice = np.where(n == m, 1.0, 2.0)  # an off-diagonal pair stands for (n, m) and (m, n)
    ends = (n - lo, m - lo, twice - 1.0)
    big_q1, sq, big_q_ends = Q_trace_terms(n, m, s1, eps)
    _add_ends(s1_row_sq, lo, ends, sq, sq)
    order1 = {r: (big_q1, big_q_ends) if r == 1 else trace_terms(r, order0[r], n, m, big_q1) for r in order0}
    for r, (_, row_terms) in order1.items():
        _add_ends(row_sums[r], lo, ends, *row_terms)
    return [float((twice * order1[a][0]) @ order1[b][0]) for a, b in distinct]


def z_via_trace(specs, table: SigmaPowerTable, lams) -> list[SumRuleResult]:
    """Z(s) as the order-by-order trace of a product of two coefficient series.

    s = 1/a + 1/b traces q[1/a] q[1/b] over the order's root orders (a, b),
    with q[1/1] = Q: (1, N) traces Q q[1/N], and (N, N') traces q[1/N] q[1/N']
    (1D only: s <= 1 diverges in two dimensions); (a, b) and (b, a) are one
    trace, and each order keeps its label.  The lambda^2 term carries the
    completeness-deficit compensation, after which the route matches the
    closed form to rounding on the same table.  Each series enters only as
    (order-0 diagonal, order-1 matrix, order-2 diagonal).  The order-1
    matrices are symmetric, so they are formed on the nonzero couplings of
    S_1 with m >= n (``SigmaPowerTable.walk``): Q's once per step and
    each q[1/N]'s once per step and root order N.  A step adds each distinct
    series pair's tr(A_1 B_1) share, and the row sums that the order-2
    diagonals need into length-M accumulators at both ends of each pair;
    S_2's is read first, so a table of S_1 alone is refused before any work,
    and every other diagonal after the walk.  So no M x M matrix is formed:
    O(N nnz(S_1)) time, with one step's pairs and a few length-M vectors per
    series in memory.
    """
    specs = list(specs)
    for spec in specs:  # a number carries no root orders
        if not isinstance(spec, RationalOrderSpec):
            raise ValidationError(f"order {spec!r}: the trace route needs a RationalOrderSpec")
    resolved = _resolve_route_inputs(specs, table, lams)
    s2_diag = table.diagonal(2)
    m = table.size
    eps = table.basis.eigenvalues()
    # the series pair each order traces, q[1/1] being Q: tr(q[1/a] q[1/b]) = tr(q[1/b] q[1/a])
    pairs = [tuple(sorted(spec.roots)) for spec in specs]
    distinct = list(dict.fromkeys(pairs))
    # every series' order-0 diagonal, and the row sums its order-2 diagonal subtracts: for Q
    # those of S_1[n,r]^2 / eps_r, for q[1/N] the xi-weighted ones
    series = dict.fromkeys((1, *(n for pair in distinct for n in pair)))
    order0 = {n: eps ** (-1.0 / n) for n in series}
    row_sums = {n: np.zeros(m) for n in order0}
    s1_row_sq = np.zeros(m)
    steps = [_trace_block(*step, eps, order0, distinct, row_sums, s1_row_sq) for step in table.walk(1)]
    shares = np.sum(np.array(steps).reshape(len(steps), len(distinct)), axis=0)  # tr(A_1 B_1) per pair
    # each series' (order-1, order-2) diagonals; Q^(1)[n, n] = S_1[n, n] / eps_n as Q_trace_terms forms it
    big_q = (table.diagonal(1) * order0[1], Q_diagonal(s2_diag, row_sums[1], eps))
    diagonals = {n: big_q if n == 1 else q_diagonal(n, order0[n], *big_q, row_sums[n]) for n in order0}
    # both series start from a diagonal order 0, so the lambda term tr(A_0 B_1) + tr(A_1 B_0) and
    # the lambda^2 term tr(A_1 B_1) + tr(A_2 B_0) + tr(A_0 B_2) read A_1, B_1 whole only in tr(A_1 B_1)
    traces = {}
    for (a, b), t2 in zip(distinct, shares):
        (a0, (a1, a2)), (b0, (b1, b2)) = (order0[a], diagonals[a]), (order0[b], diagonals[b])
        t2 += float(a2 @ b0) + float(a0 @ b2)
        traces[(a, b)] = (float(a0 @ b0), float(a0 @ b1) + float(a1 @ b0), float(t2))
    # S_2[n,n] - sum_{m<=M} S_1[n,m]^2, free of s: weighted by eps^{-s}, the finite-basis
    # deficit between the pre-split trace and the completeness-split closed form
    deficit = s2_diag - s1_row_sq
    expansions = []
    for (s, label), pair in zip(resolved, pairs):
        t0, t1, t2 = traces[pair]
        route = ROUTE_TRACE_1P if pair[0] == 1 else ROUTE_TRACE_INV
        expansions.append((s, label, route, t0, t1, t2 + 0.25 * s * float(np.sum(deficit * eps ** (-s))), 1.0))
    return _records(expansions, table, lams)
