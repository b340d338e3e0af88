import csv
import math

import numpy as np
import pytest

from billzeta.basis import (
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    SigmaPowerTable,
    String1D,
    build_sigma_table,
)
from billzeta.coefficients import (
    GreenCoefficientSet,
    Q_diagonal,
    Q_trace_terms,
    build_Q_series,
    export_coefficients_csv,
    half_binomial,
    q_diagonal,
    q_generic_recursion,
    trace_terms,
    verify_convolution,
)
from billzeta.errors import ValidationError

from reference import delta, delta_matrix, eta, eta_matrix, q_closed_form, reference_Q, xi

RNG = np.random.default_rng(11)
COS2 = FourierCosine((0.0, 0.0, 1.0))


def one_factor_table(powers, basis):
    """A rectangle-form table on the basis whose S_j, j >= 1, are the given matrices: one factor each,
    Y = [[1]], and no profile."""
    m = len(powers[0])
    factors = [((1.0, np.eye(m), np.ones((1, 1))),)] + [((1.0, s, np.ones((1, 1))),) for s in powers]
    index = np.stack([np.arange(m), np.zeros(m, dtype=int)])  # mode n is (n, 0)
    pos = np.arange(m)[:, None]  # and (n, 0) is mode n
    return SigmaPowerTable(len(powers), basis, None, factors=tuple(factors), index=index, pos=pos)


def random_table(basis, max_power, seed=None):
    """Synthetic symmetric sigma-power data on the basis: the per-order algebra holds for any."""
    rng = np.random.default_rng(seed or RNG.integers(1 << 31))
    m = basis.mode_count
    powers = []  # S_1..S_J
    for _ in range(max_power):
        a = rng.standard_normal((m, m))
        powers.append(0.5 * (a + a.T))
    return one_factor_table(powers, basis)


def string_basis(m, length=1.0):
    return ModeBasis(String1D(length), m)


def max_rel(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def test_half_binomial_values():
    assert half_binomial(0) == 1.0
    assert half_binomial(1) == 0.5
    assert half_binomial(2) == -0.125
    assert half_binomial(4) == pytest.approx(-5.0 / 128.0, rel=1e-15)
    assert half_binomial(8) == pytest.approx(-429.0 / 32768.0, rel=1e-15)


def test_Q_order_zero_and_one():
    basis = string_basis(6)
    table = build_sigma_table(basis, COS2, 2)
    eps = basis.eigenvalues()
    q0 = build_Q_series(0, table)[0]
    assert np.allclose(q0, np.diag(1.0 / eps), atol=1e-15)
    q1 = build_Q_series(1, table)[1]
    s1 = table.power(1)
    expected = 0.5 * (1.0 / eps[:, None] + 1.0 / eps[None, :]) * s1
    assert np.max(np.abs(q1 - expected)) < 1e-15
    # diagonal of Q^(1) is <n|sigma|n>/eps_n
    assert q1[0, 0] == pytest.approx(s1[0, 0] / eps[0], rel=1e-14)


def test_Q_order_two_matches_explicit_form():
    basis = string_basis(8, length=1.3)
    table = random_table(basis, 2, seed=5)
    d_inv = np.diag(1.0 / basis.eigenvalues())
    s1, s2 = table.power(1), table.power(2)
    expected = -0.125 * (d_inv @ s2 + s2 @ d_inv) + 0.25 * (s1 @ d_inv @ s1)
    assert max_rel(build_Q_series(2, table)[2], expected) < 1e-14


def test_Q_order_two_zero_profile():
    basis = string_basis(5)
    table = build_sigma_table(basis, FourierCosine(()), 2)
    assert np.all(build_Q_series(2, table)[2] == 0.0)


def test_Q_order_validation():
    basis = string_basis(4)
    table = build_sigma_table(basis, COS2, 2)
    with pytest.raises(ValidationError):
        build_Q_series(3, table)
    with pytest.raises(ValidationError):
        build_Q_series(-1, table)


def test_Q_series_orders_do_not_depend_on_length():
    basis = string_basis(7)
    table = random_table(basis, 3, seed=11)
    longest = build_Q_series(3, table)
    for k in range(4):
        shorter = build_Q_series(k, table)
        assert len(shorter) == k + 1
        for c in range(k + 1):
            assert np.array_equal(shorter[c], longest[c])  # bit-identical


def test_recursion_keeps_the_Q_series_without_copying():
    basis = string_basis(6)
    table = build_sigma_table(basis, COS2, 2)
    big_q = build_Q_series(2, table)
    for n_root in (2, 3):
        cset = q_generic_recursion(n_root, big_q, basis)
        assert cset.max_order == 2
        assert all(a is b for a, b in zip(cset.Q_orders, big_q))


def test_q_closed_form_order_zero_and_one():
    basis = string_basis(6)
    table = build_sigma_table(basis, COS2, 2)
    eps = basis.eigenvalues()
    for n in (1, 2, 3, 5):
        q0 = q_closed_form(n, 0, table)
        assert np.allclose(q0, np.diag(eps ** (-1.0 / n)), atol=1e-15)
    q1 = q_closed_form(2, 1, table)
    expected = 0.5 * delta(2, math.pi**2, 9 * math.pi**2) * 0.5
    assert q1[0, 2] == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValidationError):
        q_closed_form(2, 3, table)


@pytest.mark.parametrize("n_root", [2, 3, 4, 5, 8])
def test_recursion_matches_closed_forms(n_root):
    basis = string_basis(8, length=1.0 + 0.2 * n_root)
    table = random_table(basis, 2, seed=100 + n_root)
    cset = q_generic_recursion(n_root, build_Q_series(2, table), basis)
    for k in (0, 1, 2):
        closed = q_closed_form(n_root, k, table)
        assert max_rel(cset.q_orders[k], closed) < 1e-13


def test_recursion_matches_explicit_third_order():
    # third-order coefficients from the fully expanded chain-sum expression
    m = 6
    basis = string_basis(m)
    table = random_table(basis, 3, seed=42)
    eps = basis.eigenvalues()
    s = [table.power(j) for j in range(4)]
    eta = eta_matrix(2, eps)
    dmat = delta_matrix(2, eps)
    cset = q_generic_recursion(2, build_Q_series(3, table), basis)

    q3 = (1.0 / 16.0) * dmat * s[3]
    mixed = np.zeros((m, m))
    for n in range(m):
        for mm in range(m):
            acc = 0.0
            for r in range(m):
                acc += (1 / eps[r] - delta(2, eps[n], eps[r]) * delta(2, eps[r], eps[mm])) * (
                    s[1][n, r] * s[2][r, mm] + s[2][n, r] * s[1][r, mm]
                )
            mixed[n, mm] = -acc / (16.0 * eta[n, mm])
    chains = np.zeros((m, m))
    for n in range(m):
        for mm in range(m):
            b = c = 0.0
            for r in range(m):
                for t in range(m):
                    b += (
                        delta(2, eps[n], eps[r])
                        / (8.0 * eta[n, mm] * eta[r, mm])
                        * (1 / eps[t] - delta(2, eps[r], eps[t]) * delta(2, eps[t], eps[mm]))
                        * s[1][n, r] * s[1][r, t] * s[1][t, mm]
                    )
                    c += (
                        delta(2, eps[r], eps[mm])
                        / (8.0 * eta[n, mm] * eta[n, r])
                        * (1 / eps[t] - delta(2, eps[n], eps[t]) * delta(2, eps[t], eps[r]))
                        * s[1][n, t] * s[1][t, r] * s[1][r, mm]
                    )
            chains[n, mm] = -b - c
    assert max_rel(cset.q_orders[3], q3 + mixed + chains) < 1e-12


def half_order_recursive_forms(table, up_to=8):
    """Independent recursive expressions for q^(4..8) at root order two.

    Each order is written through binomial-weighted power elements and
    products of lower-order coefficients, so these check the recursion
    without re-running it.
    """
    m = table.size
    eps = table.basis.eigenvalues()
    s = [table.power(j) for j in range(table.max_power + 1)]
    eta = eta_matrix(2, eps)
    dmat = delta_matrix(2, eps)
    dg = np.diag(1.0 / eps)  # Delta_rr^2 = 1/eps_r
    cset = q_generic_recursion(2, build_Q_series(up_to, table), table.basis)
    q = list(cset.q_orders)

    out = {}
    out[4] = (
        -(5 / 128) * dmat * s[4]
        + (s[2] @ dg @ s[2] + 2 * (s[3] @ dg @ s[1]) + 2 * (s[1] @ dg @ s[3])) / (64 * eta)
        - (2 * (q[2] @ q[2]) + 2 * (q[1] @ q[3]) + 2 * (q[3] @ q[1])) / (2 * eta)
    )
    out[5] = (
        (7 / 256) * dmat * s[5]
        - (2 * (s[2] @ dg @ s[3]) + 2 * (s[3] @ dg @ s[2])
           + 5 * (s[1] @ dg @ s[4]) + 5 * (s[4] @ dg @ s[1])) / (256 * eta)
        - (2 * (q[2] @ q[3]) + 2 * (q[3] @ q[2]) + 2 * (q[1] @ q[4]) + 2 * (q[4] @ q[1])) / (2 * eta)
    )
    out[6] = (
        -(21 / 1024) * dmat * s[6]
        + (4 * (s[3] @ dg @ s[3]) + 5 * (s[2] @ dg @ s[4] + s[4] @ dg @ s[2])
           + 14 * (s[1] @ dg @ s[5] + s[5] @ dg @ s[1])) / (1024 * eta)
        - (2 * (q[3] @ q[3]) + 2 * (q[2] @ q[4] + q[4] @ q[2])
           + 2 * (q[1] @ q[5] + q[5] @ q[1])) / (2 * eta)
    )
    out[7] = (
        (33 / 2048) * dmat * s[7]
        - (5 * (s[3] @ dg @ s[4] + s[4] @ dg @ s[3])
           + 7 * (s[2] @ dg @ s[5] + s[5] @ dg @ s[2]
                  + 3 * (s[1] @ dg @ s[6]) + 3 * (s[6] @ dg @ s[1]))) / (2048 * eta)
        - (2 * (q[3] @ q[4] + q[4] @ q[3] + q[2] @ q[5] + q[5] @ q[2])
           + 2 * (q[1] @ q[6] + q[6] @ q[1])) / (2 * eta)
    )
    out[8] = (
        -(429 / 32768) * dmat * s[8]
        + (25 * (s[4] @ dg @ s[4]) + 28 * (s[3] @ dg @ s[5] + s[5] @ dg @ s[3])
           + 42 * (s[2] @ dg @ s[6] + s[6] @ dg @ s[2])
           + 132 * (s[1] @ dg @ s[7] + s[7] @ dg @ s[1])) / (16384 * eta)
        - (2 * (q[4] @ q[4] + q[3] @ q[5] + q[5] @ q[3] + q[2] @ q[6] + q[6] @ q[2])
           + 2 * (q[1] @ q[7] + q[7] @ q[1])) / (2 * eta)
    )
    return cset, out


def test_recursion_satisfies_half_order_recursive_forms():
    table = random_table(string_basis(6), 8, seed=77)
    cset, forms = half_order_recursive_forms(table)
    for k in range(4, 9):
        assert max_rel(cset.q_orders[k], forms[k]) < 1e-12


def test_leading_term_coefficient_order_eight():
    # a table with only sigma^8 data isolates the leading term exactly
    m = 5
    powers = [np.zeros((m, m)) for _ in range(8)]  # S_1..S_8
    a = RNG.standard_normal((m, m))
    powers[7] = 0.5 * (a + a.T)
    basis = string_basis(m)
    table = one_factor_table(powers, basis)
    cset = q_generic_recursion(2, build_Q_series(8, table), basis)
    expected = (-429.0 / 32768.0) * delta_matrix(2, basis.eigenvalues()) * powers[7]
    assert max_rel(cset.q_orders[8], expected) < 1e-14
    for k in range(1, 8):
        assert np.max(np.abs(cset.q_orders[k])) == 0.0


def test_zero_profile_gives_zero_orders():
    basis = string_basis(8)
    table = build_sigma_table(basis, FourierCosine(()), 3)
    for n_root in (2, 4):
        cset = q_generic_recursion(n_root, build_Q_series(3, table), basis)
        for k in (1, 2, 3):
            assert np.all(cset.q_orders[k] == 0.0)


def test_all_matrices_symmetric():
    basis = string_basis(10)
    table = build_sigma_table(basis, COS2, 3)
    cset = q_generic_recursion(3, build_Q_series(3, table), basis)
    for mat in (*cset.q_orders, *cset.Q_orders):
        assert np.max(np.abs(mat - mat.T)) == 0.0


def test_verify_convolution_self_consistency():
    basis = string_basis(20)
    table = build_sigma_table(basis, COS2, 2)
    for n_root in (2, 3):
        cset = q_generic_recursion(n_root, build_Q_series(2, table), basis)
        scale = np.max(np.abs(cset.Q_orders[0]))
        assert verify_convolution(cset)[0] <= 1e-13 * scale
        closed = GreenCoefficientSet(
            n_root, 2, basis.mode_count,
            tuple(q_closed_form(n_root, k, table) for k in range(3)), cset.Q_orders,
        )
        residuals = verify_convolution(closed)
        assert residuals[1] <= 1e-12
        assert residuals[2] <= 1e-12


def test_verify_convolution_truncation_study():
    residuals = []
    for m in (20, 40, 80):
        basis = string_basis(m)
        table = build_sigma_table(basis, COS2, 2)
        cset = q_generic_recursion(3, build_Q_series(2, table), basis)
        refs = reference_Q(2, basis, COS2, m)
        residuals.append(verify_convolution(cset, discard=0, reference_q=refs)[2])
    assert residuals[0] > residuals[1] > residuals[2] > 0.0
    # with the default edge discard the interior is converged to rounding
    basis = string_basis(40)
    table = build_sigma_table(basis, COS2, 2)
    cset = q_generic_recursion(3, build_Q_series(2, table), basis)
    refs = reference_Q(2, basis, COS2, 40)
    assert verify_convolution(cset, reference_q=refs)[2] < 1e-14


def test_recursion_order_validation():
    basis = string_basis(5)
    table = build_sigma_table(basis, COS2, 2)
    with pytest.raises(ValidationError):
        q_generic_recursion(2, build_Q_series(3, table), basis)  # K > table power
    cset = q_generic_recursion(2, build_Q_series(2, table), basis)
    with pytest.raises(ValidationError):
        verify_convolution(cset, reference_q=cset.Q_orders[:2])  # one reference short


POLY = Polynomial((0.0, 4.0, -4.0))
TRACE_TABLES = {
    "cosine-string": (string_basis(80), FourierCosine((0.1, -0.3, 0.2, 0.0, 0.05))),
    "polynomial-string": (string_basis(80), POLY),
    "separable-rectangle": (ModeBasis(Rectangle2D(1.0, 1.3), 80), Separable2D(((POLY, COS2),))),
}


def add_ends(acc, n, m, at_n, at_m):
    """Reference row sums: at_n into row n and, off the diagonal, at_m into row m, one at a time."""
    np.add.at(acc, n, at_n)
    off = n != m
    np.add.at(acc, m[off], at_m[off])


@pytest.mark.parametrize("n_root", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("kind", sorted(TRACE_TABLES))
def test_trace_terms_match_the_recursion(kind, n_root):
    basis, profile = TRACE_TABLES[kind]
    table = build_sigma_table(basis, profile, 2)
    eps, size = basis.eigenvalues(), basis.mode_count
    series = build_Q_series(2, table)
    ref = q_generic_recursion(n_root, series, basis).q_orders
    q0 = eps ** (-1.0 / n_root)
    sq_sums, big_q_sums, q_sums = np.zeros(size), np.zeros(size), np.zeros(size)
    listed = np.zeros((size, size), dtype=bool)
    lo = 0
    for rows in (1, 30, 7, 42):  # uneven blocks, every row
        n, m, s1 = table._couplings(1, np.arange(lo, min(lo + rows, size)))
        big_q1, sq, big_q_ends = Q_trace_terms(n, m, s1, eps)
        assert np.array_equal(big_q1, series[1][n, m])
        q1, q_ends = trace_terms(n_root, q0, n, m, big_q1)
        assert max_rel(q1, ref[1][n, m]) < 1e-13
        add_ends(sq_sums, n, m, sq, sq)
        add_ends(big_q_sums, n, m, *big_q_ends)
        add_ends(q_sums, n, m, *q_ends)
        listed[n, m] = True
        lo += rows
    # the pairs are every entry of the upper triangle where Q^(1) and q^(1) can be nonzero
    unlisted = np.triu(~listed)
    assert not np.any(series[1][unlisted]) and not np.any(ref[1][unlisted])
    assert max_rel(sq_sums, np.sum(table.power(1) ** 2, axis=1)) < 1e-15
    big_q2 = Q_diagonal(table.diagonal(2), big_q_sums, eps)
    assert max_rel(big_q2, np.diagonal(series[2])) < 1e-13
    q1_diag, q2_diag = q_diagonal(n_root, q0, np.diagonal(series[1]), big_q2, q_sums)
    assert max_rel(q1_diag, np.diagonal(ref[1])) < 1e-13
    assert max_rel(q2_diag, np.diagonal(ref[2])) < 1e-13


@pytest.mark.parametrize("n_root", [*range(1, 9), 64])
def test_xi_row_sums_weight_by_the_xi_diagonal(n_root):
    # every pair (n, m), m >= n, of a 7-mode spectrum: q^(1) divides by the eta kernel and
    # the row terms at either end carry the xi diagonal weight of that end's row
    eps = string_basis(7).eigenvalues()
    n, m = np.triu_indices(eps.size)
    q0 = eps ** (-1.0 / n_root)
    big_q1 = RNG.standard_normal(n.size)
    q1, (at_n, at_m) = trace_terms(n_root, q0, n, m, big_q1)
    tol = max(1e-14, 2 * n_root * np.finfo(float).eps)  # Horner's rule takes N steps
    assert max_rel(q1, big_q1 / eta(n_root, eps[n], eps[m])) < tol
    # xi(1, ...) = 0: then both are exactly zero
    assert max_rel(at_n, q1 * q1 * xi(n_root, eps[n], eps[m], eps[n])) < tol
    assert max_rel(at_m, q1 * q1 * xi(n_root, eps[m], eps[n], eps[m])) < tol
    # eta(N; e, e), the divisor of both diagonals
    for diagonal in q_diagonal(n_root, q0, np.ones(eps.size), np.ones(eps.size), np.zeros(eps.size)):
        assert max_rel(1.0 / diagonal, eta(n_root, eps, eps)) < tol


def test_trace_terms_of_a_zero_profile_vanish():
    basis = string_basis(12)
    eps = basis.eigenvalues()
    table = build_sigma_table(basis, FourierCosine(()), 2)
    n, m, s1 = table._couplings(1, np.arange(12))
    assert n.size == m.size == s1.size == 0  # no pair at all
    big_q1, sq, _ = Q_trace_terms(n, m, s1, eps)
    big_q2 = Q_diagonal(table.diagonal(2), np.zeros(12), eps)
    assert big_q1.size == sq.size == 0 and np.all(big_q2 == 0.0)
    for n_root in (1, 2, 5):
        q0 = eps ** (-1.0 / n_root)
        assert trace_terms(n_root, q0, n, m, big_q1)[0].size == 0
        assert np.all(np.array(q_diagonal(n_root, q0, table.diagonal(1), big_q2, np.zeros(12))) == 0.0)


def test_csv_export_roundtrip(tmp_path):
    mat = np.array([[1.0, -0.25], [-0.25, 1e-17]])
    path = tmp_path / "q.csv"
    export_coefficients_csv(mat, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    back = np.zeros((2, 2))
    for row in rows:
        back[int(row["row"]) - 1, int(row["col"]) - 1] = float(row["value"])
    assert np.array_equal(back, mat)
