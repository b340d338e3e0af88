"""Eigenvalue kernels of the rational-order perturbative solution.

For a root order N >= 1 and positive eigenvalues

    eta(N; a, b)   = sum_{j=0}^{N-1} a^{-(N-1-j)/N} b^{-j/N}
    xi(N; a, r, b) = sum_{j=0}^{N-2} sum_{l=0}^{N-2-j} a^{-j/N} b^{-(N-2-j-l)/N} r^{-l/N}

eta is the denominator that isolates each new perturbative order; xi weighs
the second-order diagonal.  N = 2 reduces to the half-order (square-root)
case.  Both routes and the dense recursion evaluate them through ``eta_xi``.
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


def eta_xi(n_root: int, wn, wm) -> tuple:
    """eta(N; eps_n, eps_m), xi(N; eps_n, eps_m, eps_n) and xi(N; eps_m, eps_n, eps_m), broadcast.

    From w = eps^{-1/N}: with E_j = sum_{k<=j} wn^k wm^{j-k}, symmetric in
    wn and wm, eta = E_{N-1} and xi(N; eps_n, eps_m, eps_n) =
    sum_{j<=N-2} E_j wn^{N-2-j}, so one Horner loop of N steps over positive
    terms forms all three.  wn and wm broadcast against each other: a
    column and a row give the dense M x M kernels.
    """
    shape = np.broadcast_shapes(np.shape(wn), np.shape(wm))
    e, power = np.ones(shape), np.ones(shape)
    xi_n, xi_m = np.zeros(shape), np.zeros(shape)
    for _ in range(n_root - 1):
        xi_n *= wn
        xi_n += e
        xi_m *= wm
        xi_m += e
        power *= wn
        e *= wm
        e += power
    return e, xi_n, xi_m
