"""Spectral coefficient matrices of the dressed and fractional-order Green's functions.

Q^(k) are the perturbative orders of the density-dressed Green's function in
the homogeneous basis; q^(k) those of its order-1/N root, defined so that the
N-fold matrix convolution of sum_k q^(k) lambda^k reproduces sum_k Q^(k) lambda^k
order by order.  Both a generic per-order recursion and the explicit closed
forms (orders <= 2, any N) are provided; they agree to rounding on the same
truncation, which the tests exploit.

The trace routes need less: q^(0) is diagonal, so the lambda^2 trace reads the
order-1 matrices entry by entry but only the diagonal of each order-2 one.
Q_trace_terms and trace_terms give exactly that, (q^(0), q^(1), diag q^(2)),
on one block of B rows of S_1 at a time: O(N) per entry of S_1's row blocks
(O(N M^2) on the rectangle, O(N M (B + 2b)) on a cosine string of highest
harmonic b) with no M x M matrix at all; the dense series above remain the
general-order reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ModeBasis, SigmaPowerTable, build_sigma_table
from .errors import ValidationError
from .kernels import delta_matrix, eta_matrix, validate_root_order


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


@dataclass(frozen=True)
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
    with the internal sum truncated at the table size.
    """
    if k < 0:
        raise ValidationError("order must be >= 0")
    if k > table.max_power:
        raise ValidationError(f"order {k} exceeds table max_power {table.max_power}")
    inv = 1.0 / basis.eigenvalues()[: table.size]
    half = [np.ones(table.size)] + [half_binomial(j) * table.power(j) for j in range(1, k + 1)]
    series = _series_product([h * inv for h in half], half, k)
    return (np.diag(series[0]), *(_sym(q) for q in series[1:]))


def q_closed_form(n_root: int, k: int, table: SigmaPowerTable, basis: ModeBasis) -> np.ndarray:
    """Explicit closed forms of q^(k) for k <= 2 at any root order N.

    q^(0) = diag(eps^{-1/N}); q^(1) = (1/2) Delta * S_1; q^(2) adds the
    xi-kernel double sum.  Orders above two must use the generic recursion.
    """
    n = validate_root_order(n_root)
    if k < 0 or k > 2:
        raise ValidationError("closed forms cover orders 0..2; use the generic recursion")
    m = table.size
    eps = basis.eigenvalues()[:m]
    if k == 0:
        return np.diag(eps ** (-1.0 / n))
    dmat = delta_matrix(n, eps)
    if k == 1:
        return _sym(0.5 * dmat * table.power(1))
    s1 = table.power(1)
    b = dmat * s1
    inv = 1.0 / eps
    plain = (s1 * inv[None, :]) @ s1
    # xi-weighted part: sum over the (j, l) exponent lattice of the xi kernel
    lattice = np.zeros((m, m))
    for j in range(n - 1):
        u_j = eps ** (-j / n)
        for l in range(n - 1 - j):
            u_l = eps ** (-l / n)
            u_c = eps ** (-(n - 2 - j - l) / n)
            lattice += (u_j[:, None] * b * u_l[None, :]) @ (b * u_c[None, :])
    q2 = -0.125 * dmat * table.power(2) + (plain - lattice) / (4.0 * eta_matrix(n, eps))
    return _sym(q2)


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
    eps = basis.eigenvalues()[:m]
    eta = eta_matrix(n, eps)
    q_orders = [eps ** (-1.0 / n)]
    for k in range(1, max_order + 1):
        chain = _series_power(q_orders, n, k)  # all parts <= k-1
        lower = chain[k] if k < len(chain) else 0.0  # an absent order is zero
        q_orders.append(_sym((big_q[k] - lower) / eta))
    q_orders[0] = np.diag(q_orders[0])
    return GreenCoefficientSet(n, max_order, m, tuple(q_orders), tuple(big_q))


def Q_trace_terms(s1: np.ndarray, s2_diag: np.ndarray, eps: np.ndarray, lo: int, c0: int) -> tuple:
    """What the lambda^2 trace reads of Q on one block of rows: (Q^(0), Q^(1), diag Q^(2)).

    s1 = S_1[lo:hi, c0:c1] (``SigmaPowerTable.rows``) and s2_diag = S_2[n, n]
    on the same rows; eps is the whole spectrum.  Q^(0) is diagonal, so
    tr(A_0 B_2) needs only diag B_2, and
    diag Q^(2) = 2 b_2 S_2[n,n]/eps_n + b_1^2 sum_r S_1[n,r]^2/eps_r needs only
    the rows of S_1.  Returns the terms on the rows (Q^(1) over the block's
    columns) and sum_r S_1[n,r]^2, from the same S_1∘S_1, for the trace
    route's completeness deficit.
    """
    b1, b2 = half_binomial(1), half_binomial(2)
    inv_rows = 1.0 / eps[lo : lo + len(s1)]
    inv_cols = 1.0 / eps[c0 : c0 + s1.shape[1]]
    half = b1 * s1
    q1 = half * inv_cols
    q1 += inv_rows[:, None] * half
    del half
    sq = s1 * s1
    q2_diag = 2.0 * b2 * s2_diag * inv_rows + b1 * b1 * (sq @ inv_cols)
    return (inv_rows, q1, q2_diag), np.sum(sq, axis=1)


def _root_powers(n_root: int, eps: np.ndarray) -> np.ndarray:
    """Rows u^j = eps^{-j/N}, j = 0..N-1: every power the eta and xi kernels take."""
    return np.exp(np.outer(-np.arange(n_root) / n_root, np.log(eps)))


def _xi_rowsums(x: np.ndarray, u_rows: np.ndarray, u_cols: np.ndarray) -> np.ndarray:
    """sum_r x[n,r] W[n,r] with W[n,r] = xi(N; eps_n, eps_r, eps_n), n over rows, r over columns.

    u_rows and u_cols are the N powers of _root_powers on the rows and the
    columns.  W = sum_{b=0}^{N-2} (N-1-b) u_n^{N-2-b} u_r^b, so the row sums
    are one product of x with the N - 1 powers u_r^b: O(N) per entry of x, and
    W itself is never formed.
    """
    b = np.arange(len(u_rows) - 1)
    weights = (len(u_rows) - 1 - b)[:, None] * u_rows[: len(b)][::-1]  # (N-1-b) u_n^(N-2-b)
    return np.einsum("nb,bn->n", x @ u_cols[: len(b)].T, weights)


def trace_terms(n_root: int, big_q, eps: np.ndarray, lo: int, c0: int) -> tuple:
    """(q^(0), q^(1), diag q^(2)) of the order-1/N root of Q on one block of rows.

    big_q is Q_trace_terms' triple for the rows lo.. over the columns c0..;
    N = 1 gives back Q's terms.  q^(1) = Q^(1) / eta(N; eps_n, eps_m), with eta
    the product of the rows' and columns' powers u^j.  The lambda^2 term of
    the N-fold product (q^(0) + q^(1) lambda)^N has the diagonal
    sum_r q^(1)[n,r]^2 xi(N; eps_n, eps_r, eps_n), so
    diag q^(2) = (diag Q^(2) - that) / eta(N; eps_n, eps_n).  O(N) per entry of
    the block, with no order-2 matrix.
    """
    n = validate_root_order(n_root)
    _, big_q1, big_q2_diag = big_q
    rows = eps[lo : lo + len(big_q2_diag)]
    u_rows = _root_powers(n, rows)
    u_cols = _root_powers(n, eps[c0 : c0 + big_q1.shape[1]])
    eta = u_rows[::-1].T @ u_cols  # sum_j eps_n^{-(N-1-j)/N} eps_m^{-j/N}
    eta_diag = np.diagonal(eta, lo - c0)[: len(rows)].copy()  # eta(N; eps_n, eps_n)
    q1 = np.divide(big_q1, eta, out=eta)
    q2_diag = (big_q2_diag - _xi_rowsums(q1 * q1, u_rows, u_cols)) / eta_diag
    return rows ** (-1.0 / n), q1, q2_diag


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


def reference_Q(k: int, basis: ModeBasis, density, size: int, *, growth: int = 2, nodes=None) -> list:
    """Q^(0..k) with internal sums converged beyond truncation `size`.

    Built at growth * size modes and sliced back; for banded (cosine) profiles
    this makes the internal mode sums exact for the retained block.
    """
    big = ModeBasis(basis.domain, max(size * growth, size + 8))
    table = build_sigma_table(big, density, max(k, 1), nodes=nodes)
    return [q[:size, :size] for q in build_Q_series(k, table, big)]


def export_coefficients_csv(matrix: np.ndarray, path) -> None:
    """Write a coefficient matrix as (row, col, value) CSV, 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write("row,col,value\n")
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                fh.write(f"{i + 1},{j + 1},{matrix[i, j]:.17g}\n")
