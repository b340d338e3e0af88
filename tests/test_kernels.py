import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billzeta.errors import ValidationError
from billzeta.kernels import eta_xi, validate_root_order

from reference import delta, delta_matrix, eta, eta_matrix, xi

RNG = np.random.default_rng(20240811)


# --- hand-coded closed-form kernel expressions, N = 1..4 --------------------

def eta_table(n, a, b):
    if n == 1:
        return 1.0
    if n == 2:
        return 1 / math.sqrt(a) + 1 / math.sqrt(b)
    if n == 3:
        return 1 / (a ** (1 / 3) * b ** (1 / 3)) + 1 / b ** (2 / 3) + 1 / a ** (2 / 3)
    if n == 4:
        return (
            1 / (b ** 0.25 * math.sqrt(a))
            + 1 / (math.sqrt(b) * a ** 0.25)
            + 1 / b ** 0.75
            + 1 / a ** 0.75
        )
    raise AssertionError


def delta_table(n, a, b):
    return (1 / a + 1 / b) / eta_table(n, a, b)


def xi_table(n, a, r, b):
    if n == 1:
        return 0.0
    if n == 2:
        return 1.0
    if n == 3:
        return 1 / b ** (1 / 3) + 1 / a ** (1 / 3) + 1 / r ** (1 / 3)
    if n == 4:
        return (
            1 / (b ** 0.25 * a ** 0.25)
            + 1 / (b ** 0.25 * r ** 0.25)
            + 1 / math.sqrt(b)
            + 1 / (a ** 0.25 * r ** 0.25)
            + 1 / math.sqrt(a)
            + 1 / math.sqrt(r)
        )
    raise AssertionError


def test_eta_examples():
    assert eta(1, 3.7, 11.2) == pytest.approx(1.0, rel=1e-15)
    assert eta(2, 4.0, 4.0) == pytest.approx(1.0, rel=1e-15)
    assert eta(3, 1.0, 8.0) == pytest.approx(7.0 / 4.0, rel=1e-14)


def test_delta_examples():
    assert delta(1, 2.0, 3.0) == pytest.approx(5.0 / 6.0, rel=1e-15)
    for e in (0.3, 1.0, 97.0):
        assert delta(2, e, e) == pytest.approx(1.0 / math.sqrt(e), rel=1e-14)
    assert delta(4, 16.0, 16.0) == pytest.approx(0.25, rel=1e-14)


def test_xi_examples():
    assert xi(1, 0.2, 5.0, 9.0) == 0.0
    assert xi(2, 0.2, 5.0, 9.0) == 1.0
    assert xi(3, 1.0, 8.0, 27.0) == pytest.approx(11.0 / 6.0, rel=1e-14)


def test_diagonal_reduction():
    # delta(N, e, e) = (2/N) e^{-1/N}: the order-0 anchor of the recursion
    for n in (1, 2, 3, 5, 8):
        for e in (0.01, 1.0, 3.3e4):
            assert delta(n, e, e) == pytest.approx((2.0 / n) * e ** (-1.0 / n), rel=1e-13)


def test_product_identity_bulk():
    for n in range(1, 9):
        a = RNG.uniform(1e-2, 1e6, 400)
        b = RNG.uniform(1e-2, 1e6, 400)
        lhs = delta(n, a, b) * eta(n, a, b)
        rhs = 1.0 / a + 1.0 / b
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-13


def test_table_rows_match_generic():
    for n in range(1, 5):
        for _ in range(100):
            a, r, b = RNG.uniform(1e-2, 1e6, 3)
            assert eta(n, a, b) == pytest.approx(eta_table(n, a, b), rel=1e-13)
            assert delta(n, a, b) == pytest.approx(delta_table(n, a, b), rel=1e-13)
            assert xi(n, a, r, b) == pytest.approx(xi_table(n, a, r, b), rel=1e-13)


def test_matrix_forms_match_scalar():
    eps = RNG.uniform(0.5, 300.0, 12)
    for n in (1, 2, 3, 6):
        em = eta_matrix(n, eps)
        dm = delta_matrix(n, eps)
        for i in (0, 5, 11):
            for j in (0, 3, 7):
                assert em[i, j] == pytest.approx(eta(n, eps[i], eps[j]), rel=1e-15)
                assert dm[i, j] == pytest.approx(delta(n, eps[i], eps[j]), rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 17])
def test_eta_xi_broadcasts_a_column_and_a_row_to_the_dense_kernels(n):
    eps = RNG.uniform(0.5, 300.0, 12)
    w = eps ** (-1.0 / n)
    dense = eta_xi(n, w[:, None], w[None, :])
    assert all(k.shape == (12, 12) for k in dense)
    i, j = np.indices((12, 12))
    pairs = eta_xi(n, w[i.ravel()], w[j.ravel()])
    for full, flat in zip(dense, pairs):
        assert np.array_equal(full.ravel(), flat)
    assert dense[0] == pytest.approx(dense[0].T, rel=1e-13)  # eta is symmetric
    assert dense[1] == pytest.approx(dense[2].T, rel=1e-13, abs=0.0)  # xi(N; a, b, a) = xi(N; b, a, b)^T
    assert dense[0] == pytest.approx(eta_matrix(n, eps), rel=1e-13)
    # eta(N; e, e) = N e^{-(N-1)/N}: the order-2 diagonal's divisor
    assert np.diagonal(dense[0]) == pytest.approx(n * w ** (n - 1), rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    a=st.floats(min_value=1e-2, max_value=1e6),
    b=st.floats(min_value=1e-2, max_value=1e6),
    r=st.floats(min_value=1e-2, max_value=1e6),
)
def test_property_identity_and_symmetry(n, a, b, r):
    lhs = delta(n, a, b) * eta(n, a, b)
    assert lhs == pytest.approx(1.0 / a + 1.0 / b, rel=1e-12)
    assert eta(n, a, b) == pytest.approx(eta(n, b, a), rel=1e-13)
    assert delta(n, a, b) == pytest.approx(delta(n, b, a), rel=1e-13)
    # xi symmetric in the outer pair at fixed middle argument
    assert xi(n, a, r, b) == pytest.approx(xi(n, b, r, a), rel=1e-12)


def test_validation():
    with pytest.raises(ValidationError):
        validate_root_order(0)
    with pytest.raises(ValidationError):
        validate_root_order(65)
    with pytest.raises(ValidationError):
        validate_root_order(2.5)
