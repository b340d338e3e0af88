"""Closed-form eigenvalue kernels of the rational-order perturbative solution.

For a root order N >= 1 and positive eigenvalues these evaluate

    eta(N; a, b)   = sum_{j=0}^{N-1} a^{-(N-1-j)/N} b^{-j/N}
    delta(N; a, b) = (1/a + 1/b) / eta(N; a, b)
    xi(N; a, r, b) = sum_{j=0}^{N-2} sum_{l=0}^{N-2-j} a^{-j/N} b^{-(N-2-j-l)/N} r^{-l/N}

eta is the denominator that isolates each new perturbative order; delta and
xi organize the first- and second-order coefficients.  N = 2 reduces to the
half-order (square-root) case.
"""

import numpy as np

from .errors import ValidationError

MAX_ROOT_ORDER = 64


def validate_root_order(n_root: int) -> int:
    """Check a root order N: integer, 1 <= N <= 64.

    Beyond 64 the exponent 1 + 1/N is indistinguishable from 1 in double
    precision and the kernel sums are ill-conditioned.
    """
    if not isinstance(n_root, (int, np.integer)) or isinstance(n_root, bool):
        raise ValidationError(f"root order must be an integer, got {n_root!r}")
    if n_root < 1 or n_root > MAX_ROOT_ORDER:
        raise ValidationError(
            f"root order must be in [1, {MAX_ROOT_ORDER}], got {n_root}"
        )
    return int(n_root)


def _check_positive(*eigenvalues) -> None:
    for e in eigenvalues:
        if not np.all(np.asarray(e) > 0.0):
            raise ValidationError("eigenvalue inputs must be strictly positive")


def _frac_power(e, p_over_n: float):
    # exp((p/N) log e) on positive reals; no branch issues for a Dirichlet spectrum
    return np.exp(p_over_n * np.log(e))


def eta(n_root: int, eps_n, eps_m):
    """eta kernel; strictly positive, symmetric in its eigenvalue arguments."""
    n = validate_root_order(n_root)
    _check_positive(eps_n, eps_m)
    a = np.asarray(eps_n, dtype=float)
    b = np.asarray(eps_m, dtype=float)
    total = np.zeros(np.broadcast(a, b).shape)
    for j in range(n):
        total += _frac_power(a, -(n - 1 - j) / n) * _frac_power(b, -j / n)
    return total if total.shape else float(total)


def delta(n_root: int, eps_n, eps_m):
    """delta kernel: (1/eps_n + 1/eps_m) / eta."""
    n = validate_root_order(n_root)
    _check_positive(eps_n, eps_m)
    a = np.asarray(eps_n, dtype=float)
    b = np.asarray(eps_m, dtype=float)
    out = (1.0 / a + 1.0 / b) / eta(n, a, b)
    return out if out.shape else float(out)


def xi(n_root: int, eps_n, eps_r, eps_m):
    """xi kernel (three eigenvalue slots; middle slot is the internal sum index).

    xi(1, ...) = 0 and xi(2, ...) = 1 identically.
    """
    n = validate_root_order(n_root)
    _check_positive(eps_n, eps_r, eps_m)
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

