"""Spectral coefficient matrices of the dressed and fractional-order Green's functions.

Q^(k) are the perturbative orders of the density-dressed Green's function in
the homogeneous basis; q^(k) those of its order-1/N root, defined so that the
N-fold matrix convolution of sum_k q^(k) lambda^k reproduces sum_k Q^(k) lambda^k
order by order.  A generic per-order recursion solves for them; the tests
hold it to the explicit closed forms (orders <= 2, any N), which agree to
rounding on the same truncation.

The trace routes need less: q^(0) is diagonal, so the lambda^2 trace reads the
order-1 matrices entry by entry but only the diagonal of each order-2 one.
Q_trace_terms and trace_terms form the order-1 entries on the nonzero
couplings (n, m), m >= n, of S_1, and the row terms from which Q_diagonal and
q_diagonal give the order-2 diagonals (q_diagonal also q's order-1 diagonal,
from Q's): O(N) per coupling, O(N nnz(S_1)) in all, with no M x M matrix at
all; the dense series above remain the general-order reference.
"""

from __future__ import annotations

import numpy as np

from ._record import dataclass
from .basis import ModeBasis, SigmaPowerTable
from .errors import ValidationError
from .kernels import eta_xi, validate_root_order


def half_binomial(k: int) -> float:
    """Generalized binomial coefficient binom(1/2, k) by the product recurrence.

    Exact in rationals up to rounding; avoids factorial overflow/cancellation.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    b = 1.0
    for j in range(k):
        b *= (0.5 - j) / (j + 1)
    return b


@dataclass(eq=False)  # holds arrays: identity == and hash
class GreenCoefficientSet:
    """Per-order coefficient matrices q^(0..K) and Q^(0..K) for one root order."""

    root_order: int
    max_order: int
    size: int
    q_orders: tuple
    Q_orders: tuple


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a^T)/2, formed in place: a must be a fresh temporary."""
    a += a.T
    a *= 0.5
    return a


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two series entries; a 1-D entry stands for diag(entry)."""
    if b.ndim == 1:
        return a * b  # column scaling, or the product of two diagonals
    if a.ndim == 1:
        return a[:, None] * b  # row scaling
    return a @ b


def _series_product(a, b, top: int) -> list:
    """Coefficients 0..top of (sum_i a[i] lambda^i)(sum_j b[j] lambda^j).

    Orders past the end of a list count as zero; the result stops at the last
    order with a term.  Only order 0 may be a 1-D (diagonal) entry.
    """
    out = []
    for c in range(min(top, len(a) + len(b) - 2) + 1):
        lo, hi = max(0, c - len(b) + 1), min(c, len(a) - 1)
        total = _dot(a[lo], b[c - lo])
        for i in range(lo + 1, hi + 1):
            total += _dot(a[i], b[c - i])
        out.append(total)
    return out


def build_Q_series(k: int, table: SigmaPowerTable, basis: ModeBasis) -> tuple:
    """Orders 0..k of the dressed Green's function, Q^(0..k).

    Q^(c)[n,m] = sum_{j<=c} binom(1/2,j) binom(1/2,c-j) sum_r S_j[n,r] S_{c-j}[r,m] / eps_r
    with the internal sum truncated at the basis, which the table must have exactly.
    """
    table.check_basis(basis)
    if k < 0:
        raise ValidationError("order must be >= 0")
    if k > table.max_power:
        raise ValidationError(f"order {k} exceeds table max_power {table.max_power}")
    inv = 1.0 / basis.eigenvalues()
    half = [np.ones(table.size)] + [half_binomial(j) * table.power(j) for j in range(1, k + 1)]
    series = _series_product([h * inv for h in half], half, k)
    return (np.diag(series[0]), *(_sym(q) for q in series[1:]))


def _series_power(series, n_factors: int, top: int) -> list:
    """Coefficients 0..top of (sum_j series[j] lambda^j)^n_factors.

    Coefficient c does not depend on top; orders with no term are left off
    the end of the list.
    """
    power = series
    for _ in range(n_factors - 1):
        power = _series_product(power, series, top)
    return power


def q_generic_recursion(n_root: int, big_q, basis: ModeBasis) -> GreenCoefficientSet:
    """Solve the per-order N-fold convolution identity for Q^(0..K) = big_q.

    Because q^(0) is positive diagonal, the terms containing the unknown q^(k)
    collapse to eta(N; eps_n, eps_m) * q^(k)[n,m]; each order is obtained by
    subtracting the known lower-order products and dividing elementwise by eta.
    q^(0) is kept as a vector while solving, so it only ever scales rows or columns.
    big_q (from build_Q_series) becomes the set's Q_orders without a copy, so
    one series serves every root order.
    """
    n = validate_root_order(n_root)
    max_order = len(big_q) - 1
    m = len(big_q[0])
    w = basis.eigenvalues()[:m] ** (-1.0 / n)
    eta = eta_xi(n, w[:, None], w[None, :])[0]
    q_orders = [w]
    for k in range(1, max_order + 1):
        chain = _series_power(q_orders, n, k)  # all parts <= k-1
        lower = chain[k] if k < len(chain) else 0.0  # an absent order is zero
        q_orders.append(_sym((big_q[k] - lower) / eta))
    q_orders[0] = np.diag(q_orders[0])
    return GreenCoefficientSet(n, max_order, m, tuple(q_orders), tuple(big_q))


def Q_trace_terms(n: np.ndarray, m: np.ndarray, s1: np.ndarray, eps: np.ndarray) -> tuple:
    """Q^(1) on pairs (n, m), m >= n, of S_1 (a step of ``SigmaPowerTable.walk``), and their row terms.

    Q^(1)[n, m] = b_1 S_1[n, m] (1/eps_m + 1/eps_n), symmetric, so each pair
    stands for both triangles.  diag Q^(2) (``Q_diagonal``) needs the row
    sums sum_r S_1[n, r]^2 / eps_r, to which the pair adds S_1[n, m]^2 / eps_m
    at row n and S_1[n, m]^2 / eps_n at row m.  Returns Q^(1), S_1[n, m]^2
    (the trace route's completeness deficit sums it the same way) and those
    two row terms.
    """
    inv_n, inv_m = 1.0 / eps[n], 1.0 / eps[m]
    half = half_binomial(1) * s1
    q1 = half * inv_m
    q1 += inv_n * half
    sq = s1 * s1
    return q1, sq, (sq * inv_m, sq * inv_n)


def Q_diagonal(s2_diag: np.ndarray, row_sums: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """diag Q^(2) = 2 b_2 S_2[n,n]/eps_n + b_1^2 sum_r S_1[n,r]^2/eps_r, from Q_trace_terms' row sums.

    Q^(0) is diagonal, so tr(A_0 B_2) needs only diag B_2.
    """
    b1, b2 = half_binomial(1), half_binomial(2)
    return 2.0 * b2 * s2_diag * (1.0 / eps) + b1 * b1 * row_sums


def trace_terms(n_root: int, q0: np.ndarray, n: np.ndarray, m: np.ndarray, big_q1: np.ndarray) -> tuple:
    """q^(1) of the order-1/N root of Q on pairs (n, m), and their xi-weighted row terms.

    q0 = eps^{-1/N} is q^(0) over the whole spectrum and big_q1 is
    Q_trace_terms' Q^(1) on the pairs; N = 1 gives back Q^(1).
    q^(1) = Q^(1) / eta(N; eps_n, eps_m).  The lambda^2 term of the N-fold
    product (q^(0) + q^(1) lambda)^N has the diagonal
    sum_r q^(1)[n,r]^2 xi(N; eps_n, eps_r, eps_n), so the pair adds
    q^(1)^2 xi(N; eps_n, eps_m, eps_n) to row n's sum and
    q^(1)^2 xi(N; eps_m, eps_n, eps_m) to row m's (``q_diagonal``).  O(N) per
    pair.
    """
    eta, xi_n, xi_m = eta_xi(validate_root_order(n_root), q0[n], q0[m])
    q1 = big_q1 / eta
    sq = q1 * q1
    xi_n *= sq
    xi_m *= sq
    return q1, (xi_n, xi_m)


def q_diagonal(n_root: int, q0: np.ndarray, big_q1_diag, big_q2_diag, row_sums: np.ndarray) -> tuple:
    """diag q^(1) = diag Q^(1) / eta(N; eps_n, eps_n) and
    diag q^(2) = (diag Q^(2) - sum_r q^(1)[n,r]^2 xi(N; eps_n, eps_r, eps_n)) / eta(N; eps_n, eps_n).

    q0 = eps^{-1/N}, so eta(N; eps_n, eps_n) = N q0^(N-1), formed once for
    both; row_sums are trace_terms' xi-weighted row terms summed over every pair.
    """
    divisor = n_root * q0 ** (n_root - 1)
    return big_q1_diag / divisor, (big_q2_diag - row_sums) / divisor


def verify_convolution(
    cset: GreenCoefficientSet,
    *,
    discard: int | None = None,
    reference_q=None,
) -> list[float]:
    """Max-norm residuals of the N-fold convolution identity, orders 0..max_order.

    One N-fold series chain of the stored q orders holds every order's
    convolution.  Order k is compared against Q^(k): by default the set's own
    matrix (a self-consistency check that is zero up to rounding), or
    reference_q[k] from a sequence of Q^(0..max_order) built at a larger
    truncation to measure the genuine truncation error.  The outermost
    `discard` modes are excluded (default size // 4); pass discard=0 to
    include the truncation edge.
    """
    targets = cset.Q_orders if reference_q is None else reference_q
    if len(targets) != cset.max_order + 1:
        raise ValidationError("need one reference Q per order 0..max_order")
    b = cset.size // 4 if discard is None else int(discard)
    if not 0 <= b < cset.size:
        raise ValidationError("discard count out of range")
    inner = slice(0, cset.size - b)
    chain = _series_power(list(cset.q_orders), cset.root_order, cset.max_order)
    return [
        float(np.max(np.abs(conv[inner, inner] - target[inner, inner])))
        for conv, target in zip(chain, targets)
    ]


def export_coefficients_csv(matrix: np.ndarray, path) -> None:
    """Write a coefficient matrix as (row, col, value) CSV, 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write("row,col,value\n")
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                fh.write(f"{i + 1},{j + 1},{matrix[i, j]:.17g}\n")
