"""Independent references the tests check the library against; no route calls them.

* ``eta``, ``delta`` and ``xi``: the eigenvalue kernels as exp/log power
  sums term by term, against which ``kernels.eta_xi``'s Horner loop is
  checked, with their dense forms ``eta_matrix`` and ``delta_matrix``;
* ``q_closed_form``: the explicit closed forms of q^(k), k <= 2, at any root
  order N, against which the generic recursion is checked;
* ``reference_Q``: Q^(0..k) with its internal mode sums converged beyond a
  truncation;
* ``kernel_second_order`` and ``kernel_second_order_presplit``: the scalar
  second-order kernels, against which ``sumrules.kernel_pairs`` and the
  diagonal regularity anchor are checked;
* ``cosine_coefficients_by_quadrature``: cosine coefficients of a product of
  profile powers by composite Gauss-Legendre quadrature, against which the
  exact coefficients of ``basis._cosine_coeffs`` are checked;
* ``exact_cosine_elements``: <n| f |m> of a cosine series as a dense
  Toeplitz-minus-Hankel matrix of sliding windows, against which the
  string's selection rule (``basis._selection_rule``) is checked bit for bit;
* ``z_one_exact``: the exact Z(1) of the heterogeneous string, the trace of
  its Green's operator, against which every route is checked at s = 1.
"""

import math
from fractions import Fraction

import numpy as np

from billzeta.basis import (
    FourierCosine,
    ModeBasis,
    Polynomial,
    SigmaPowerTable,
    Tabulated,
    _padded_cosine,
    build_sigma_table,
)
from billzeta.coefficients import build_Q_series
from billzeta.errors import ValidationError
from billzeta.kernels import validate_root_order


def _frac_power(e, p_over_n: float):
    # exp((p/N) log e) on positive reals; no branch issues for a Dirichlet spectrum
    return np.exp(p_over_n * np.log(e))


def eta(n_root: int, eps_n, eps_m):
    """eta(N; a, b) = sum_{j=0}^{N-1} a^{-(N-1-j)/N} b^{-j/N}; symmetric in a and b."""
    n = validate_root_order(n_root)
    a = np.asarray(eps_n, dtype=float)
    b = np.asarray(eps_m, dtype=float)
    total = np.zeros(np.broadcast(a, b).shape)
    for j in range(n):
        total += _frac_power(a, -(n - 1 - j) / n) * _frac_power(b, -j / n)
    return total if total.shape else float(total)


def delta(n_root: int, eps_n, eps_m):
    """delta(N; a, b) = (1/a + 1/b) / eta(N; a, b)."""
    a = np.asarray(eps_n, dtype=float)
    b = np.asarray(eps_m, dtype=float)
    out = (1.0 / a + 1.0 / b) / eta(n_root, a, b)
    return out if out.shape else float(out)


def xi(n_root: int, eps_n, eps_r, eps_m):
    """xi(N; a, r, b) = sum_{j=0}^{N-2} sum_{l=0}^{N-2-j} a^{-j/N} b^{-(N-2-j-l)/N} r^{-l/N}.

    The middle slot is the internal sum index; xi(1, ...) = 0 and
    xi(2, ...) = 1 identically.
    """
    n = validate_root_order(n_root)
    a = np.asarray(eps_n, dtype=float)
    r = np.asarray(eps_r, dtype=float)
    b = np.asarray(eps_m, dtype=float)
    total = np.zeros(np.broadcast(a, r, b).shape)
    for j in range(n - 1):
        for l in range(n - 1 - j):
            total = total + (
                _frac_power(a, -j / n)
                * _frac_power(b, -(n - 2 - j - l) / n)
                * _frac_power(r, -l / n)
            )
    return total if total.shape else float(total)


def eta_matrix(n_root: int, eps: np.ndarray) -> np.ndarray:
    """Dense eta(N; eps_i, eps_j) over one eigenvalue vector."""
    e = np.asarray(eps, dtype=float)
    return eta(n_root, e[:, None], e[None, :])


def delta_matrix(n_root: int, eps: np.ndarray) -> np.ndarray:
    """Dense delta(N; eps_i, eps_j) over one eigenvalue vector."""
    e = np.asarray(eps, dtype=float)
    return delta(n_root, e[:, None], e[None, :])


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a^T)/2."""
    return (a + a.T) * 0.5


def q_closed_form(n_root: int, k: int, table: SigmaPowerTable) -> np.ndarray:
    """Explicit closed forms of q^(k) for k <= 2 at any root order N.

    q^(0) = diag(eps^{-1/N}); q^(1) = (1/2) Delta * S_1; q^(2) adds the
    xi-kernel double sum.  Orders above two must use the generic recursion.
    """
    n = validate_root_order(n_root)
    if k < 0 or k > 2:
        raise ValidationError("closed forms cover orders 0..2; use the generic recursion")
    m = table.size
    eps = table.basis.eigenvalues()
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


def reference_Q(k: int, basis: ModeBasis, profile, size: int, *, growth: int = 2) -> list:
    """Q^(0..k) with internal sums converged beyond truncation `size`.

    Built at growth * size modes and sliced back; for banded (cosine) profiles
    this makes the internal mode sums exact for the retained block.
    """
    big = ModeBasis(basis.domain, max(size * growth, size + 8))
    table = build_sigma_table(big, profile, max(k, 1))
    return [q[:size, :size] for q in build_Q_series(k, table)]


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


def cosine_coefficients_by_quadrature(factors, length: float, count: int) -> np.ndarray:
    """c_0..c_{count-1} of prod_i p_i^{power_i} on [0, L], by composite 64-point Gauss-Legendre.

    Panels are max(64, count) equal cuts of [0, L], further cut at every
    tabulated abscissa inside it, so on each panel the integrand is one
    polynomial times cosines of at most half a period: the rule integrates
    it to rounding for a product of degree up to about 80.
    """
    inner = [x for p, _ in factors if isinstance(p, Tabulated) for x in p.xs if 0.0 < x < length]
    edges = np.unique(np.concatenate([np.linspace(0.0, length, max(64, count) + 1), inner]))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
    x = (mid + half * nodes).ravel()
    f = (half * weights).ravel() / length
    for p, power in factors:
        f = f * p.evaluate(x, length) ** power
    c = np.array([f @ np.cos(np.pi * np.fmod(k * x / length, 2.0)) for k in range(count)])
    c[1:] *= 2.0
    return c


def exact_cosine_elements(n_max: int, coeffs: np.ndarray) -> np.ndarray:
    """<n| f |m> for f a cosine series: (1/2)(c_|n-m| - c_{n+m}) + c_0 delta_nm, n, m < n_max, dense."""
    c = _padded_cosine(coeffs, n_max)
    windows = np.lib.stride_tricks.sliding_window_view
    toeplitz = windows(np.concatenate([c[n_max - 1 : 0 : -1], c[:n_max]]), n_max)[:, ::-1]  # c[|n-m|]
    hankel = windows(c[2:], n_max)  # c[n+m]
    out = toeplitz - hankel
    out *= 0.5
    np.fill_diagonal(out, c[0] - 0.5 * c[2::2])
    return out


def z_one_exact(profile, length: float, lam: float) -> float:
    """Z(1) = sum_n 1/E_n on the Dirichlet string [0, L], exactly.

    It is the trace of the Green's operator, int_0^L G0(x, x) (1 + lam sigma(x)) dx
    with G0(x, x) = x (L - x) / L, so it is linear in lam.  Against a cosine,
    int_0^L x (L - x) / L cos(k pi x / L) dx is L^2 / 6 at k = 0 and
    -L^2 (1 + (-1)^k) / (k pi)^2 above; against a power,
    int_0^L x (L - x) / L x^p dx = L^(p+2) / ((p + 2)(p + 3)), summed in fractions.
    """
    if isinstance(profile, FourierCosine):
        moments = [length**2 / 6.0] + [
            -(length**2) * (1 + (-1) ** k) / (k * math.pi) ** 2 for k in range(1, len(profile.coeffs))
        ]
        weighted = math.fsum(c * moment for c, moment in zip(profile.coeffs, moments))
    elif isinstance(profile, Polynomial):
        ell = Fraction(length)
        weighted = float(sum(
            Fraction(c) * ell ** (p + 2) / ((p + 2) * (p + 3)) for p, c in enumerate(profile.coeffs)
        ))
    else:
        raise TypeError(f"no exact Z(1) for {type(profile).__name__}")
    return length**2 / 6.0 + lam * weighted
