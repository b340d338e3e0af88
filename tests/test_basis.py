import contextlib
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billzeta.basis import (
    ROW_BLOCK,
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    SigmaPowerTable,
    String1D,
    Tabulated,
    _cosine_coeffs,
    _cosine_power_product,
    _enumerate_rectangle_modes,
    _piecewise_cosine_coeffs,
    build_sigma_table,
    check_strength,
    rectangle_table_doubles,
    sigma_range,
    walk_step_bound,
)
from billzeta.cli import EXIT_NUMERICAL, main
from billzeta.errors import NumericalError, ValidationError
from reference import (
    cosine_coefficients_by_quadrature,
    exact_cosine_elements,
    polynomial_is_even,
    tabulated_is_even,
)

COS2 = FourierCosine((0.0, 0.0, 1.0))  # sigma(x) = cos(2 pi x / L)
POLY = Polynomial((0.0, 4.0, -4.0))  # a piecewise-polynomial profile: one piece
SEP = Separable2D(((POLY, COS2),))  # a rectangle table: side factors
RECT = Rectangle2D(1.0, 1.0)


def analytic_cos2_element(n, m):
    # int_0^1 2 sin(n pi x) sin(m pi x) cos(2 pi x) dx by product-to-sum
    val = 0.0
    if abs(n - m) == 2:
        val += 0.5
    if n + m == 2:
        val -= 0.5
    return val


def test_eigenvalue_examples():
    string = ModeBasis(String1D(1.0), 8)
    assert string.eigenvalues()[0] == pytest.approx(math.pi**2, rel=1e-15)
    assert string.eigenvalues()[2] == pytest.approx(9 * math.pi**2, rel=1e-15)
    square = ModeBasis(Rectangle2D(1.0, 1.0), 8)
    assert square.eigenvalues()[0] == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_eigenvalue_ordering_and_ties():
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 30)
    eigs = basis.eigenvalues()
    assert np.all(np.diff(eigs) >= -1e-12)
    modes = basis.mode_indices()
    # degenerate pairs ordered lexicographically: (1,2) before (2,1)
    assert modes.index((1, 2)) < modes.index((2, 1))
    # anisotropic rectangle still ascending
    aniso = ModeBasis(Rectangle2D(1.0, 2.5), 40)
    assert np.all(np.diff(aniso.eigenvalues()) >= -1e-12)


def test_rectangle_modes_enumerated_once_per_basis(monkeypatch):
    basis = ModeBasis(Rectangle2D(1.0, 1.7), 37)  # a key no other test uses
    first = basis.eigenvalues()
    misses = _enumerate_rectangle_modes.cache_info().misses
    again = ModeBasis(Rectangle2D(1.0, 1.7), 37)
    assert np.array_equal(again.eigenvalues(), first)
    assert again.mode_indices() == basis.mode_indices()
    assert _enumerate_rectangle_modes.cache_info().misses == misses


def enumerate_modes_reference(a, b, count):
    """The count lowest modes by sorting (eigenvalue, j, k) tuples of a growing candidate square."""
    cap = max(4, int(math.isqrt(count)) + 2)
    while True:
        cand = sorted(
            (math.pi**2 * (j * j / a**2 + k * k / b**2), j, k)
            for j in range(1, cap + 1)
            for k in range(1, cap + 1)
        )
        boundary = math.pi**2 * (cap + 1) ** 2 * min(1 / a**2, 1 / b**2)
        if len(cand) >= count and cand[count - 1][0] < boundary:
            return [(j, k) for _, j, k in cand[:count]]
        cap *= 2


@pytest.mark.parametrize("sides", [(1.0, 1.0), (1.0, 1.3), (50.0, 1.0), (1.0, 37.5)])
def test_rectangle_modes_are_listed_in_the_reference_order(sides):
    # the same float eigenvalues and the same tie order as sorting tuples: degenerate
    # pairs on the square, elongated sides whose candidate square would be large
    for m in (1, 2, 3, 30, 64, 500, 2000):
        modes = ModeBasis(Rectangle2D(*sides), m).mode_indices()
        assert modes == enumerate_modes_reference(*sides, m)
        assert all(type(i) is int for mode in modes[:3] for i in mode)


def test_a_side_whose_square_overflows_lists_its_modes():
    # b^2 overflows a double while pi^2 / b^2 is still normal: the long side's
    # terms vanish beside the short side's, so its modes come in the order k = 1, 2, ...
    basis = ModeBasis(Rectangle2D(1.0, 10.0**154.25), 5)
    assert basis.mode_indices() == [(1, k) for k in range(1, 6)]
    assert np.array_equal(basis.eigenvalues(), np.full(5, math.pi**2))
    assert np.isfinite(build_sigma_table(basis, SEP, 1).power(1)).all()


def test_mode_indices_is_a_fresh_list():
    basis = ModeBasis(Rectangle2D(1.0, 1.3), 12)
    modes = basis.mode_indices()
    expected = list(modes)
    modes.reverse()
    modes.append((99, 99))
    assert basis.mode_indices() == expected
    assert basis.mode_indices() is not basis.mode_indices()


def test_sigma_power_element_examples():
    basis = ModeBasis(String1D(1.0), 8)
    table = build_sigma_table(basis, COS2, 1)
    assert table.power(1)[0, 0] == pytest.approx(-0.5, abs=1e-13)
    assert table.power(1)[0, 2] == pytest.approx(0.5, abs=1e-13)
    # orthonormality at power zero
    assert table.power(0)[1, 4] == 0.0
    assert table.power(0)[3, 3] == 1.0


def test_table_selection_rules():
    basis = ModeBasis(String1D(1.0), 4)
    table = build_sigma_table(basis, COS2, 1)
    s1 = table.power(1)
    expected = np.array(
        [[analytic_cos2_element(n, m) for m in range(1, 5)] for n in range(1, 5)]
    )
    assert np.max(np.abs(s1 - expected)) < 1e-14
    # nonzeros only at |n-m| = 2 plus the (1,1) entry
    mask = np.abs(np.subtract.outer(range(4), range(4))) == 2
    mask[0, 0] = True
    assert np.all(s1[~mask] == 0.0)


def test_table_identity_and_zero_profile():
    basis = ModeBasis(String1D(1.0), 2)
    table = build_sigma_table(basis, FourierCosine((0.3, 0.1)), 2)
    assert np.array_equal(table.power(0), np.eye(2))
    zero = build_sigma_table(ModeBasis(String1D(1.0), 8), FourierCosine(()), 3)
    for j in (1, 2, 3):
        assert np.all(zero.power(j) == 0.0)


def test_table_symmetry_exact():
    basis = ModeBasis(String1D(1.0), 12)
    table = build_sigma_table(basis, Polynomial((0.0, 1.0, -0.7)), 3)
    for j in range(4):
        sj = table.power(j)
        assert np.max(np.abs(sj - sj.T)) == 0.0


def test_quadrature_matches_selection_rules():
    # the piecewise path shifts a cosine factor's harmonics: 1 * cos(2 pi x) there is the
    # cosine algebra's table
    exact = build_sigma_table(ModeBasis(String1D(1.0), 10), COS2, 2).power(1)
    one = Polynomial((1.0,))
    mixed = exact_cosine_elements(10, _cosine_coeffs(10, 1.0, [[(one, 1), (COS2, 1)]])[0])
    assert np.max(np.abs(mixed - exact)) < 1e-12


def test_quadrature_orthonormality():
    one = Polynomial((1.0,))
    s0 = exact_cosine_elements(14, _cosine_coeffs(14, 1.0, [[(one, 1)]])[0])
    assert np.max(np.abs(s0 - np.eye(14))) < 1e-12


def test_nan_profile_fails_the_quadrature_self_check():
    # a NaN rounding bound compares False against any threshold, so it is caught explicitly,
    # and a non-finite coefficient is a numerical failure, not a table
    for profile in (Polynomial((math.nan, 1.0)), Tabulated((0.0, 0.5, 1.0), (0.0, math.inf, 1.0))):
        with pytest.raises(NumericalError):
            build_sigma_table(ModeBasis(String1D(1.0), 20), profile, 2)
    with pytest.raises(NumericalError):
        build_sigma_table(ModeBasis(String1D(1.0), 20), FourierCosine((0.0, math.nan)), 1)


def linear_elements(m):
    # <n|x|m> = 2 int_0^1 x sin(n pi x) sin(m pi x) dx
    n = np.arange(1, m + 1)
    nn, mm = np.meshgrid(n, n, indexing="ij")
    with np.errstate(divide="ignore"):
        odd = -8.0 * nn * mm / (math.pi**2 * (nn**2 - mm**2) ** 2.0)
    expected = np.where((nn + mm) % 2 == 1, odd, 0.0)
    np.fill_diagonal(expected, 0.5)
    return expected


def test_linear_profile_matches_analytic_elements():
    m = 60
    table = build_sigma_table(ModeBasis(String1D(1.0), m), Polynomial((0.0, 1.0)), 1)
    assert np.max(np.abs(table.power(1) - linear_elements(m))) < 1e-13


_LINE_XS = np.sort(np.random.default_rng(11).uniform(0.0, 1.0, 300))


@pytest.mark.parametrize("xs", [
    (0.0, 0.5, 0.5 + 1e-7, 1.0),  # a piece 1e-7 wide
    (0.0, *_LINE_XS, 1.0),  # 300 random samples inside: 301 pieces
    (-0.5, 1.5),  # samples past both ends: one piece
    (-0.25, 0.25, 0.7, 1.25),
], ids=["short-piece", "random-300", "outside", "outside-and-inside"])
def test_tabulated_lines_match_the_analytic_linear_elements(xs):
    # samples on the line y = x: the interpolant is x on [0, 1] however it is cut
    m = 60
    table = build_sigma_table(ModeBasis(String1D(1.0), m), Tabulated(xs, xs), 2)
    assert np.max(np.abs(table.power(1) - linear_elements(m))) < 1e-13
    square = build_sigma_table(ModeBasis(String1D(1.0), m), Polynomial((0.0, 0.0, 1.0)), 1)
    assert np.max(np.abs(table.power(2) - square.power(1))) < 1e-13


def exact_and_reference(factors, length, m):
    """The exact coefficients of one list and the reference's, and the element scale max(1, max |diagonal|)."""
    exact = _cosine_coeffs(m, length, [factors])[0]
    reference = cosine_coefficients_by_quadrature(factors, length, 2 * m + 1)
    return exact, reference, max(1.0, np.max(np.abs(reference[0] - 0.5 * reference[2::2])))


_RNG = np.random.default_rng(23)
SHORT_PIECE = Tabulated((0.0, 0.5, 0.5 + 1e-7, 1.0), (0.0, 1.0, -1.0, 0.3))
RANDOM_300 = Tabulated(tuple(np.sort(_RNG.uniform(0.0, 1.3, 300))), tuple(_RNG.uniform(-1.0, 1.0, 300)))
OUTSIDE = Tabulated((-0.5, 0.3, 1.7), (1.0, -0.5, 0.8))
BEYOND = Tabulated((1.5, 2.0), (0.7, -0.2))  # every sample past L: the constant 0.7
SKEW_COS = FourierCosine((0.1, 0.0, 0.5, 0.2))


@pytest.mark.parametrize("factors, length", [
    ([(SHORT_PIECE, 1)], 1.0), ([(SHORT_PIECE, 2)], 1.0), ([(SHORT_PIECE, 3)], 1.0),
    ([(RANDOM_300, 1)], 1.3), ([(RANDOM_300, 3)], 1.3),
    ([(OUTSIDE, 2)], 1.0), ([(BEYOND, 2)], 1.0), ([(OUTSIDE, 1), (SHORT_PIECE, 1)], 1.0),
    ([(Polynomial((0.3, 1.0, -0.5)), 2), (SKEW_COS, 1)], 1.3),
    ([(RANDOM_300, 1), (SKEW_COS, 2), (Polynomial((0.3, 1.0, -0.5)), 1)], 1.3),
], ids=["short-piece-1", "short-piece-2", "short-piece-3", "random-300-1", "random-300-3",
        "outside-2", "beyond-2", "outside-x-short-piece", "polynomial-x-cosine",
        "tabulated-x-cosine-x-polynomial"])
def test_exact_coefficients_match_the_reference(factors, length):
    exact, reference, scale = exact_and_reference(factors, length, 100)
    assert len(exact) == 201
    assert np.max(np.abs(exact - reference)) <= 1e-12 * scale


DEGREES = (1, 2, 3, 4, 6, 8, 12, 24)
DEGREE_SWEEP = [Polynomial(tuple(np.random.default_rng(d).uniform(-1.0, 1.0, d + 1))) for d in DEGREES]


@pytest.mark.parametrize("profile", [*DEGREE_SWEEP, POLY], ids=[*(f"degree-{d}" for d in DEGREES), "4x(1-x)"])
def test_exact_coefficients_hold_across_degree_and_power(profile):
    # every power up to total degree 24; on one piece the 12th power of 4x(1-x) would lose
    # digits to cancellation
    length = 1.0 if profile is POLY else 1.3
    for power in range(1, 24 // (len(profile.coeffs) - 1) + 1):
        exact, reference, scale = exact_and_reference([(profile, power)], length, 60)
        assert np.max(np.abs(exact - reference)) <= 1e-12 * scale


def test_mixed_polynomial_cosine_side_of_a_two_term_rectangle_matches_the_reference():
    # sigma = p(x) cos(2 pi y / b) + q(x) p(y): the split (1, 1) of S_2 has the side factor
    # p * q on x, a polynomial times a cosine series
    p, q = Polynomial((0.3, 1.0, -0.5)), FourierCosine((0.1, 0.0, 0.5))
    rect = Rectangle2D(1.0, 1.3)
    table = build_sigma_table(ModeBasis(rect, 80), Separable2D(((p, COS2), (q, p))), 2)
    (_, x, y), = [split for split in table.factors[2] if split[0] == 2.0]
    for side, factors, length in ((x, [(p, 1), (q, 1)], rect.a), (y, [(COS2, 1), (p, 1)], rect.b)):
        n = side.shape[0]
        reference = cosine_coefficients_by_quadrature(factors, length, 2 * n + 1)
        expected = exact_cosine_elements(n, reference)
        assert np.max(np.abs(side - expected)) <= 1e-12 * max(1.0, np.max(np.abs(np.diagonal(expected))))


# the shifted Chebyshev polynomial T_20(2x - 1): |T| <= 1 on [0, 1], but its monomial
# coefficients reach 1e14, and float sums of them cannot resolve it
CHEBYSHEV_20 = Polynomial(tuple(
    np.polynomial.Chebyshev.basis(20, domain=[0.0, 1.0]).convert(kind=np.polynomial.Polynomial).coef
))


def test_rounding_guard_raises_a_numerical_error(tmp_path, capsys):
    # the bound on the elements' rounding passes 1e-10 of their scale: NumericalError at the
    # library, exit 3 with one JSON line through the CLI; the same polynomial of degree 6 passes
    assert max(map(abs, CHEBYSHEV_20.coeffs)) > 1e13
    with pytest.raises(NumericalError, match="rounding bound"):
        build_sigma_table(ModeBasis(String1D(1.0), 40), CHEBYSHEV_20, 1)
    _, error = _piecewise_cosine_coeffs(40, 1.0, [(CHEBYSHEV_20, 1)])
    assert error > 1e-10
    low = np.polynomial.chebyshev.cheb2poly([0.0] * 6 + [1.0])  # T_6(x) itself
    build_sigma_table(ModeBasis(String1D(1.0), 40), Polynomial(tuple(low)), 2)
    config = tmp_path / "run.json"
    profile = {"type": "polynomial", "coeffs": list(CHEBYSHEV_20.coeffs)}
    config.write_text(json.dumps({"density": {"profile": profile, "lambda": 0.1}}))
    argv = ["sumrule", "--config", str(config), "--modes", "40", "--route", "closed"]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "numerical"


def test_power_consistency_monotone():
    # sum_r S1[n,r] S1[r,m] -> S2[n,m]; residual shrinks monotonically with M
    prof = Polynomial((0.0, 1.0))  # sigma(x) = x: full (non-banded) coupling
    residuals = []
    for m_modes in (8, 16, 32):
        table = build_sigma_table(ModeBasis(String1D(1.0), m_modes), prof, 2)
        s1, s2 = table.power(1), table.power(2)
        residuals.append(abs((s1 @ s1)[0, 0] - s2[0, 0]))
    assert residuals[0] > residuals[1] > residuals[2]


def test_tabulated_linear_profile_matches_polynomial():
    lin_tab = Tabulated((0.0, 1.0), (0.0, 1.0))
    lin_poly = Polynomial((0.0, 1.0))
    basis = ModeBasis(String1D(1.0), 6)
    t1 = build_sigma_table(basis, lin_tab, 2)
    t2 = build_sigma_table(basis, lin_poly, 2)
    assert np.max(np.abs(t1.power(1) - t2.power(1))) < 1e-12
    assert np.max(np.abs(t1.power(2) - t2.power(2))) < 1e-12


def test_2d_separable_table():
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 12)
    prof = Separable2D(((COS2, COS2),))
    table = build_sigma_table(basis, prof, 2)
    modes = basis.mode_indices()
    s1 = table.power(1)
    for i, (j1, k1) in enumerate(modes):
        for l, (j2, k2) in enumerate(modes):
            expected = analytic_cos2_element(j1, j2) * analytic_cos2_element(k1, k2)
            assert s1[i, l] == pytest.approx(expected, abs=1e-13)


def test_2d_sum_profile_table():
    # sigma(x,y) = cos(2 pi x) + cos(2 pi y) as two separable terms
    one = FourierCosine((1.0,))
    prof = Separable2D(((COS2, one), (one, COS2)))
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 10)
    table = build_sigma_table(basis, prof, 2)
    modes = basis.mode_indices()
    s1 = table.power(1)
    for i, (j1, k1) in enumerate(modes):
        for l, (j2, k2) in enumerate(modes):
            expected = analytic_cos2_element(j1, j2) * (k1 == k2) + (
                j1 == j2
            ) * analytic_cos2_element(k1, k2)
            assert s1[i, l] == pytest.approx(expected, abs=1e-13)


def test_cosine_table_writes_no_cache_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = build_sigma_table(ModeBasis(String1D(1.0), 6), COS2, 2)
    assert table.factors is None and table.cosine is not None
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("profile", [POLY, Tabulated((0.0, 0.4, 1.0), (0.0, 0.3, -0.2))])
def test_string_quadrature_tables_are_coefficients_and_write_no_cache_file(
    tmp_path, monkeypatch, profile
):
    monkeypatch.chdir(tmp_path)
    table = build_sigma_table(ModeBasis(String1D(1.0), 12), profile, 2)
    assert table.factors is None and len(table.cosine[2]) == 2 * 12 + 1
    assert not any(tmp_path.iterdir())


def test_string_quadrature_build_peaks_below_the_counted_table():
    # the memory pre-check counts J dense matrices for a table and adds a working set
    import tracemalloc

    m, max_power = 400, 2
    tracemalloc.start()
    try:
        table = build_sigma_table(ModeBasis(String1D(1.0), m), POLY, max_power)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.factors is None
    assert peak < (max_power + 1) * m * m * 8



def test_quadrature_rows_are_accurate_at_the_highest_harmonics():
    # c_k of 4x(1-x) on [0, 1]: c_0 = 2/3, c_k = -8 (1 + (-1)^k) / (k pi)^2
    m = 3000
    table = build_sigma_table(ModeBasis(String1D(1.0), m), POLY, 2)
    k = np.arange(1, 2 * m + 1)
    expected = np.concatenate([[2.0 / 3.0], -8.0 * (1.0 + (-1.0) ** k) / (k * math.pi) ** 2])
    assert len(table.cosine[1]) == 2 * m + 1
    assert np.max(np.abs(table.cosine[1] - expected)) < 1e-12


MIRROR_TAB = Tabulated((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 1.0, 2.0, 1.0, 0.0))


@pytest.mark.parametrize("profile, length, even", [
    (POLY, 1.0, True),
    (Polynomial((0.0, 2.0, -1.0)), 2.0, True),  # x(2 - x)
    (Polynomial((0.0, 0.3, -1.0)), 0.3, True),  # x(0.3 - x): the float 0.3 on both sides, exactly
    (MIRROR_TAB, 1.0, True),
    (COS2, 1.0, True),
    (FourierCosine((0.5, 0.0, 0.0, 0.0, -0.2)), 3.0, True),
    (Polynomial(()), 1.0, True),
    (Polynomial((0.0, 1.0)), 1.0, False),  # x
    (Polynomial((1.0, 0.0, -12.0)), 1.0, False),  # 1 - 12 x^2
    (POLY, 2.0, False),  # even about 1/2, not about the midpoint of [0, 2]
    (Polynomial((0.0, 4.0, -4.0 * (1.0 + 2.0**-52))), 1.0, False),  # one rounding unit off
    (Polynomial((math.nan, 0.0)), 1.0, False),
    (Tabulated((0.0, 0.3, 1.0), (0.0, 1.0, 0.0)), 1.0, False),
    (Tabulated((0.0, 0.1, 0.2, 0.3), (0.0, 1.0, 1.0, 0.0)), 0.3, False),  # 0.1 + 0.2 != 0.3 in binary
    (Tabulated((0.0, 0.5, 1.0), (0.0, 1.0, 1e-300)), 1.0, False),
    (Tabulated((-math.inf, math.inf), (1.0, 1.0)), 1.0, False),
    (FourierCosine((0.0, 0.0, 1.0, 1e-300)), 1.0, False),  # an odd harmonic, however small
])
def test_mirror_evenness_is_found_exactly(profile, length, even):
    assert profile.is_even(length) is even


def test_mirror_evenness_is_expanded_once_per_profile_and_stops_at_a_mismatch(monkeypatch):
    # a degree-D string table of powers 1 to 3 asks is_even once per power: the rational
    # expansion of p(L - x) runs once, and reads a few of its D^2 / 2 terms before the
    # second-highest coefficient differs
    terms = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: terms.append(n) or comb(n, k))
    degree = 60
    profile = Polynomial(tuple(0.5**k for k in range(degree + 1)))
    expansions = Polynomial.is_even.cache_info().misses
    build_sigma_table(ModeBasis(String1D(1.0), 4), profile, 3)
    assert Polynomial.is_even.cache_info().misses == expansions + 1
    assert 0 < len(terms) <= degree
    read = len(terms)
    assert profile.is_even(1.0) is False and len(terms) == read  # memoized: no term is read again


_DYADIC = st.builds(lambda k, j: k / 2**j, st.integers(-64, 64), st.integers(0, 8))
_LENGTH = st.builds(lambda k, j: k / 2**j, st.integers(1, 64), st.integers(0, 6))


@st.composite
def _polynomials(draw):
    """(coeffs, L): sum_i c_i (x (L - x))^i, even about L/2, expanded exactly; often one term changed."""
    length = draw(_LENGTH)
    cs = draw(st.lists(_DYADIC, max_size=4))
    coeffs = [Fraction(0)] * (2 * len(cs))
    for i, c in enumerate(cs):  # (x (L - x))^i = sum_j C(i, j) L^(i-j) (-1)^j x^(i+j)
        for j in range(i + 1):
            coeffs[i + j] += Fraction(c) * math.comb(i, j) * Fraction(length) ** (i - j) * (-1) ** j
    coeffs = [float(c) for c in coeffs]  # exact: few bits each
    if coeffs and draw(st.booleans()):
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(_DYADIC)
    return tuple(coeffs), length


@st.composite
def _tables(draw):
    """(xs, ys, L): dyadic abscissae mirrored about L/2 with palindromic samples; often one changed."""
    length = draw(_LENGTH)
    half = sorted(set(draw(st.lists(_DYADIC.filter(lambda x: x < length / 2), min_size=1, max_size=4))))
    xs = half + [length / 2] * draw(st.booleans()) + [length - x for x in reversed(half)]
    ys = draw(st.lists(st.sampled_from([0.0, 1.0, -0.5]), min_size=len(half), max_size=len(half)))
    ys = ys + [1.0] * (len(xs) - 2 * len(ys)) + ys[::-1]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(xs) - 1))
        xs[i] += draw(_DYADIC) / 64
        ys[i] += draw(st.sampled_from([0.0, 0.0, 1.0]))
    return xs, ys, length


@settings(max_examples=300, deadline=None)
@given(_polynomials())
def test_polynomial_evenness_agrees_with_rational_arithmetic(case):
    coeffs, length = case
    assert Polynomial(coeffs).is_even(length) is polynomial_is_even(coeffs, length)


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_tabulated_evenness_agrees_with_rational_arithmetic(case):
    xs, ys, length = case
    if any(b <= a for a, b in zip(xs, xs[1:])):  # a change that unsorts the abscissae makes no profile
        return
    assert Tabulated(tuple(xs), tuple(ys)).is_even(length) is tabulated_is_even(xs, ys, length)


def test_mirror_even_table_odd_coefficients_are_exact_zeros(monkeypatch):
    # a symmetric table's odd coefficients are 0.0, not rounding noise; its even ones are
    # the exact sums' bits
    m = 40
    table = build_sigma_table(ModeBasis(String1D(1.0), m), MIRROR_TAB, 2)
    monkeypatch.setattr(Tabulated, "is_even", lambda self, length: False)
    sums = build_sigma_table(ModeBasis(String1D(1.0), m), MIRROR_TAB, 2)
    for j in (1, 2):
        c = table.cosine[j]
        assert c[1::2].tobytes() == np.zeros(m).tobytes()  # +0.0 every one
        assert c[::2].tobytes() == sums.cosine[j][::2].tobytes()
        assert 0.0 < np.max(np.abs(sums.cosine[j][1::2])) < 1e-14  # what the sums alone leave
        assert_couplings_match_power(table, j)


def test_mirror_even_string_s1_couples_even_offsets_only():
    # 4x(1-x) at M = 300: every S_j[n, m] with n + m odd is exactly 0.0, and the couplings
    # stride over even offsets only, half of each row
    m = 300
    table = build_sigma_table(ModeBasis(String1D(1.0), m), POLY, 2)
    n = np.arange(m)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    assert np.count_nonzero(odd) == 45_000
    for j in (1, 2):
        assert np.all(table.power(j)[odd] == 0.0)
    rows, cols, _ = table._couplings(1, np.arange(1))
    assert np.array_equal(cols, np.arange(0, m, 2)) and np.all(rows == 0)


def test_even_harmonic_cosine_rows_step_over_their_candidates():
    # harmonics 0, 2, .., 40 only: 21 candidate offsets per row, not 41, so a walk takes
    # ROW_BLOCK^2 / 21 rows at a time
    profile = FourierCosine(tuple(0.1 / (k + 1) * (k % 2 == 0) for k in range(41)))
    table = build_sigma_table(ModeBasis(String1D(1.0), 500), profile, 1)
    assert table._row_step(1) == ROW_BLOCK * ROW_BLOCK // 21
    assert table._couplings(1, np.arange(1))[1].tolist() == list(range(0, 41, 2))
    assert_couplings_match_power(table, 1, table._row_step(1))


def test_gl_panel_is_leggauss_32():
    # the literal half rule, mirrored, is numpy's symmetrised leggauss(32) to the last bit
    from billzeta import oracle

    nodes, weights = np.polynomial.legendre.leggauss(32)
    x, w = oracle._gl_panel()
    assert x.tobytes() == nodes.tobytes()
    assert w.tobytes() == weights.tobytes()


def test_2d_quadrature_factors_share_rows_and_match_string_tables():
    # sigma = x * 1 + 1 * y: S_1 = X_1 (x) I + I (x) Y_1, S_2 = X_2 (x) I + 2 X_1 (x) Y_1 + I (x) Y_2
    rect = Rectangle2D(1.0, 1.3)
    x, one = Polynomial((0.0, 1.0)), Polynomial((1.0,))
    basis = ModeBasis(rect, 60)
    table = build_sigma_table(basis, Separable2D(((x, one), (one, x))), 2)
    modes = np.asarray(basis.mode_indices())

    def side(col, length):
        n = int(modes[:, col].max())
        string = build_sigma_table(ModeBasis(String1D(length), n), x, 2)
        index = modes[:, col] - 1
        return [string.power(j)[np.ix_(index, index)] for j in range(3)]

    (eye_x, x1, x2), (eye_y, y1, y2) = side(0, rect.a), side(1, rect.b)
    assert np.max(np.abs(table.power(1) - (x1 * eye_y + eye_x * y1))) < 1e-13
    assert np.max(np.abs(table.power(2) - (x2 * eye_y + 2.0 * x1 * y1 + eye_x * y2))) < 1e-13


def product_to_sum(a, b):
    # cos p t * cos q t = (cos (p+q) t + cos |p-q| t) / 2, term by term
    out = np.zeros(len(a) + len(b) - 1)
    for p, ca in enumerate(a):
        for q, cb in enumerate(b):
            out[p + q] += 0.5 * ca * cb
            out[abs(p - q)] += 0.5 * ca * cb
    return out


def test_cosine_coeffs_match_product_to_sum_reference():
    rng = np.random.default_rng(7)
    profiles = [(0.0, 0.0, 1.0), (0.1, -0.3, 0.2, 0.0, 0.05)]
    profiles += [tuple(rng.uniform(-1, 1, size)) for size in (1, 2, 4, 9)]
    for coeffs in profiles:
        a, b = FourierCosine(coeffs), FourierCosine(coeffs[::-1])
        for j, k in ((1, 0), (2, 0), (3, 0), (1, 1), (2, 3)):
            expected = np.ones(1)
            for _ in range(j):
                expected = product_to_sum(expected, coeffs)
            for _ in range(k):
                expected = product_to_sum(expected, coeffs[::-1])
            got = _cosine_coeffs(50, 1.0, [[(a, j), (b, k)]])[0]
            scale = np.sum(np.abs(expected))
            assert len(got) == len(np.trim_zeros(expected, "b"))
            assert np.max(np.abs(got - expected[: len(got)])) <= 16 * np.finfo(float).eps * scale
    # the reference profile's powers are exact
    for j in range(1, 5):
        expected = np.ones(1)
        for _ in range(j):
            expected = product_to_sum(expected, (0.0, 0.0, 1.0))
        assert np.array_equal(_cosine_coeffs(10, 1.0, [[(COS2, j)]])[0], expected)


def test_cosine_products_equal_numpy_chebyshev_products():
    # the two-sided convolution is the Chebyshev route without numpy.polynomial, bit for bit
    cheb = np.polynomial.chebyshev
    rng = np.random.default_rng(3)
    profiles = [(0.0, 0.0, 1.0), (0.1, -0.3, 0.2, 0.0, 0.05), (0.3, 0.1, 0.0, -0.2, 0.0, 0.05, 0.0, 0.0)]
    profiles += [(1.0,), (0.0, 0.5)] + [tuple(rng.uniform(-1, 1, size)) for size in (2, 3, 9, 40)]
    for a in profiles:
        for b in profiles[:5]:
            for j, k in itertools.product((1, 2, 3), (0, 1, 2)):
                factors = [(FourierCosine(a), j), (FourierCosine(b), k)]
                powers = (cheb.chebpow(p.coeffs, power) for p, power in factors)
                expected = functools.reduce(cheb.chebmul, powers, np.ones(1))
                assert _cosine_power_product(factors).tobytes() == expected.tobytes()


@contextlib.contextmanager
def no_dense_power():
    """Within the block SigmaPowerTable.power and .restrict raise: what runs there forms no dense S_j."""
    def forbidden(self, j, *blocks):
        raise AssertionError(f"a dense S_{j} was formed")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SigmaPowerTable, "power", forbidden)
        patch.setattr(SigmaPowerTable, "restrict", forbidden)
        yield


def assert_couplings_match_power(table, j, step=ROW_BLOCK):
    """_couplings(j) over consecutive blocks of rows against power(j); returns the listed mask.

    Every pair is listed once, with m >= n, in its block's rows, and its value
    is power(j)'s bits; every unlisted entry with m >= n is exactly 0.  Each
    power(j) call returns a new array, the last call's bits, and so does a
    scatter of the couplings into both triangles.
    """
    m = table.size
    dense = table.power(j)
    again = table.power(j)
    assert again is not dense and again.tobytes() == dense.tobytes()
    listed = np.zeros((m, m), dtype=bool)
    scattered = np.zeros((m, m))
    for lo in range(0, m, step):
        n, col, value = table._couplings(j, np.arange(lo, min(lo + step, m)))
        assert np.all((lo <= n) & (n < lo + step) & (col >= n))
        assert value.tobytes() == dense[n, col].tobytes()
        assert not np.any(listed[n, col])
        listed[n, col] = True
        scattered[n, col] = scattered[col, n] = value
    assert not np.any(dense[np.triu(~listed)])
    assert scattered.tobytes() == dense.tobytes()
    return listed


@pytest.mark.parametrize("coeffs, m", [
    ((0.0, 0.0, 1.0), 40),
    ((0.3, 0.1, 0.0, -0.2, 0.0, 0.05, 0.0, 0.0), 25),  # trailing zeros do not widen the band
    (tuple(0.01 * (k % 7 - 3) for k in range(45)), 30),  # band wider than M: Hankel corner
    ((0.0, 0.0, 1.0), 1),
    ((0.0, 0.0, 1.0), 2),
    ((), 5),
])
def test_cosine_table_powers_and_bands_are_exact(coeffs, m):
    profile = FourierCosine(coeffs)
    table = build_sigma_table(ModeBasis(String1D(1.0), m), profile, 3)
    b = profile.bandwidth()
    for j in range(4):
        dense = table.power(j)
        expected = exact_cosine_elements(m, _cosine_coeffs(m, 1.0, [[(profile, j)]])[0])
        assert dense.tobytes() == expected.tobytes()  # bit for bit, signed zeros included
        listed = assert_couplings_match_power(table, j)
        # the selection rule lists nothing beyond the highest harmonic j b
        assert np.all(np.abs(np.subtract.outer(range(m), range(m)))[listed] <= j * b)
        assert table.diagonal(j).tobytes() == np.diagonal(dense).tobytes()


def test_rectangle_diagonals_match_the_dense_power():
    # the main diagonal and the couplings of every power, the identity's included, and the
    # smallest sizes
    for m in (1, 2, 7, 40):
        table = build_sigma_table(ModeBasis(RECT, m), SEP, 2)
        for j in range(3):
            with no_dense_power():  # the main diagonal comes from the factors
                main = table.diagonal(j)
            assert main.tobytes() == np.diagonal(table.power(j)).tobytes()
            assert_couplings_match_power(table, j, step=3)


def test_rectangle_table_stores_no_identity():
    # nor any M x M array: two side factors per split of each power; power(j) keeps nothing
    basis = ModeBasis(RECT, 2 * ROW_BLOCK + 3)
    m, sides = basis.mode_count, np.max(basis.mode_indices(), axis=0)
    table = build_sigma_table(basis, SEP, 3)
    assert table.index.shape == (2, m) and max(sides) < m
    assert [len(splits) for splits in table.factors] == [1, 1, 1, 1]  # one term: one split per power
    for splits in table.factors:
        for multinomial, x, y in splits:
            assert multinomial == 1.0 and x.shape == (sides[0],) * 2 and y.shape == (sides[1],) * 2
    identity = table.power(0)
    assert identity.tobytes() == np.eye(m).tobytes()
    identity[0, 0] = 2.0  # the caller owns the array: the table is unchanged
    assert table.power(0).tobytes() == np.eye(m).tobytes()
    zero = build_sigma_table(ModeBasis(RECT, 4), Separable2D(()), 2)
    assert zero.factors[1:] == ((), ())  # a zero profile has no factors past the identity's
    assert zero.power(2).tobytes() == np.zeros((4, 4)).tobytes()
    assert zero.power(0).tobytes() == np.eye(4).tobytes()


@pytest.mark.parametrize("sides", [(1.0, 1.0), (1.3, 0.7), (100.0, 1.0), (1.0, 37.5)])
def test_rectangle_table_doubles_bound_the_stored_table_without_listing_modes(sides):
    # the count is an upper bound on what build_sigma_table keeps, within a couple of
    # indices per side, and needs no mode list: M = 10^8 is counted at once
    for m, terms in ((1, ((COS2, POLY),)), (40, ((COS2, POLY),)), (300, ((POLY, COS2), (COS2, POLY)))):
        profile = Separable2D(terms)
        table = build_sigma_table(ModeBasis(Rectangle2D(*sides), m), profile, 3)
        table._couplings(1, np.arange(1))  # the nonzero pattern the routes read
        pattern = [(start.size, cols.size) for start, cols in table._pattern(1)]
        stored = table.index.size + table.pos.size + sum(x.size + y.size for splits in table.factors for _, x, y in splits)
        counted = rectangle_table_doubles(Rectangle2D(*sides), profile, m, 3)
        # the count takes the pattern as dense: (n + 1) + n^2 per side
        assert stored + sum(rows + cols for rows, cols in pattern) <= counted
        dense_pattern = sum(rows + (rows - 1) ** 2 for rows, _ in pattern)
        assert counted <= stored + dense_pattern + math.comb(3 + len(terms), len(terms)) * 8 * (m + 2)
    misses = _enumerate_rectangle_modes.cache_info().misses
    assert rectangle_table_doubles(Rectangle2D(*sides), Separable2D(((COS2, POLY),)), 10**8, 2) < 10**11
    assert _enumerate_rectangle_modes.cache_info().misses == misses


RECTANGLE_TABLES = [  # (terms, J, M): 1-3 terms, M across the row-block edges
    (((POLY, COS2),), 2, ROW_BLOCK),
    (((POLY, COS2), (FourierCosine((1.0,)), POLY)), 3, 2 * ROW_BLOCK + 3),
    (((POLY, COS2), (COS2, FourierCosine((0.2, 0.3))), (POLY, POLY)), 4, ROW_BLOCK + 1),
    (((COS2, POLY), (FourierCosine((1.0,)), COS2)), 6, ROW_BLOCK - 1),
    (((COS2, POLY), (POLY, COS2), (FourierCosine((0.5,)), FourierCosine(()))), 6, 1),
]


def rectangle_reference(basis, terms, max_power):
    """S_0..S_J the dense way: each split alpha of j adds multinomial * X_alpha * Y_alpha to S_j."""
    m, modes = basis.mode_count, np.asarray(basis.mode_indices())
    alphas = [
        a for j in range(1, max_power + 1)
        for a in itertools.product(range(j + 1), repeat=len(terms)) if sum(a) == j
    ]
    sides = []  # every alpha's factor matrix on each side, from one shared coefficient call
    for side, length in ((0, basis.domain.a), (1, basis.domain.b)):
        lists = [[(terms[t][side], p) for t, p in enumerate(a) if p > 0] for a in alphas]
        n_max, index = int(modes[:, side].max()), modes[:, side] - 1
        coeffs = _cosine_coeffs(n_max, length, lists)
        sides.append([exact_cosine_elements(n_max, c)[np.ix_(index, index)] for c in coeffs])
    expected = np.zeros((max_power + 1, m, m))
    expected[0] = np.eye(m)
    for alpha, x, y in zip(alphas, *sides):
        j = sum(alpha)
        multinomial = math.factorial(j) // math.prod(map(math.factorial, alpha))
        expected[j] += float(multinomial) * x * y
    return expected


def test_rectangle_table_is_built_in_row_blocks_bit_for_bit():
    # couplings, the main diagonal and the dense power give the reference's bits, and
    # couplings and diagonals form no dense S_j
    for terms, max_power, m in RECTANGLE_TABLES:
        basis = ModeBasis(Rectangle2D(1.0, 1.3), m)
        table = build_sigma_table(basis, Separable2D(terms), max_power)
        expected = rectangle_reference(basis, terms, max_power)
        steps = [(lo, min(lo + ROW_BLOCK, m)) for lo in range(0, m, ROW_BLOCK)] + [(m // 2, m)]
        for j in range(max_power + 1):
            for lo, hi in steps:
                with no_dense_power():
                    n, col, value = table._couplings(j, np.arange(lo, hi))
                assert value.tobytes() == expected[j][n, col].tobytes()
                upper = np.triu(np.ones((m, m), dtype=bool))[lo:hi]
                upper[n - lo, col] = False
                assert not np.any(expected[j][lo:hi][upper])
            with no_dense_power():
                main = table.diagonal(j)
            assert main.tobytes() == np.diagonal(expected[j]).tobytes()
        for j in range(max_power + 1):
            assert table.power(j).tobytes() == expected[j].tobytes()


@pytest.mark.parametrize("profile", [COS2, POLY], ids=["cosine", "polynomial"])
def test_string_diagonal_is_read_without_a_dense_power(profile):
    table = build_sigma_table(ModeBasis(String1D(1.0), 30), profile, 2)
    with no_dense_power():
        diagonals = [table.diagonal(j) for j in range(3)]
    for j, diag in enumerate(diagonals):
        assert diag.tobytes() == np.diagonal(table.power(j)).tobytes()
    with pytest.raises(ValidationError):
        table.walk(3)  # checked at the call, before any step is read


def test_rectangle_main_diagonal_is_read_from_the_factors():
    table = build_sigma_table(ModeBasis(RECT, 9), SEP, 2)
    with no_dense_power():
        diagonals = [table.diagonal(j) for j in range(3)]
    for j, diag in enumerate(diagonals):
        assert diag.tobytes() == np.diagonal(table.power(j)).tobytes()
    assert diagonals[0].tobytes() == np.ones(9).tobytes()  # the identity's
    n, m, value = table._couplings(0, np.arange(9))  # the identity's couplings are its diagonal
    assert n.tolist() == m.tolist() == list(range(9)) and value.tobytes() == np.ones(9).tobytes()


ROW_SIZES = (1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3)


@pytest.mark.parametrize("profile", [
    COS2, FourierCosine((0.1, -0.3, 0.2, 0.0, 0.05)), FourierCosine(()), POLY,
    FourierCosine(tuple(0.01 * (k % 7 - 3) for k in range(45))),  # band wider than small M
], ids=["cos2", "cosine", "zero", "polynomial", "wide"])
def test_string_rows_match_the_dense_power_bit_for_bit(profile):
    # the couplings of each block of rows, across the block edges
    for m in ROW_SIZES:
        table = build_sigma_table(ModeBasis(String1D(1.0), m), profile, 2)
        with no_dense_power():
            blocks = [table._couplings(j, np.arange(min(ROW_BLOCK, m))) for j in range(3)]
        for j in range(3):
            listed = assert_couplings_match_power(table, j)
            assert listed[blocks[j][0], blocks[j][1]].all()


def test_rectangle_rows_are_read_from_the_factors():
    table = build_sigma_table(ModeBasis(RECT, 9), SEP, 2)
    with no_dense_power():  # every coupling of the rows, without a dense S_j
        blocks = [table._couplings(j, np.arange(3, 7)) for j in range(3)]
    for j, (n, m, value) in enumerate(blocks):
        assert value.tobytes() == table.power(j)[n, m].tobytes()
        assert np.count_nonzero(np.triu(table.power(j))[3:7]) == value.size
    assert blocks[0][2].tobytes() == np.ones(4).tobytes()


@pytest.mark.parametrize("domain, profile, per_row", [
    (String1D(1.0), COS2, 1),
    (String1D(1.0), POLY, None),
    (Rectangle2D(1.0, 1.3), Separable2D(((COS2, COS2),)), 2),
    (Rectangle2D(1.0, 1.3), SEP, None),
    (RECT, Separable2D(((COS2, FourierCosine((1.0,))), (FourierCosine((1.0,)), FourierCosine((0.2, 0.0, 0.5))))), 3),
], ids=["cosine-string", "polynomial-string", "cosine-rectangle", "polynomial-x-cosine", "two-terms"])
def test_couplings_list_every_nonzero_of_the_power(domain, profile, per_row):
    # each listed value is power(j)'s bits and every other entry with m >= n is exactly 0,
    # for blocks of rows of several heights; a cosine profile's S_1 lists a few pairs per row
    for m in (1, ROW_BLOCK + 1, 300):
        table = build_sigma_table(ModeBasis(domain, m), profile, 3)
        for j in range(4):
            for step in (1, 7, ROW_BLOCK, table._row_step(j)):
                listed = assert_couplings_match_power(table, j, step)
            if j == 1 and per_row is not None:
                assert listed.sum() <= per_row * m + 1
    # at M = 300 a walk takes more than ROW_BLOCK rows at a time where rows are sparse, and
    # ROW_BLOCK where S_1 is dense
    if per_row is not None:
        assert table._row_step(1) > ROW_BLOCK
    if profile is POLY:
        assert table._row_step(1) == ROW_BLOCK


def step_candidates(table, j):
    """The most entries a step of walk(j) considers: the candidate pairs of its rows, summed."""
    if table.cosine is not None:
        _, stride, width = table._coefficients(j)
        per_row = np.minimum(width, table.size - 1 - np.arange(table.size)) // stride + 1
    else:
        (x_start, _), (y_start, _) = table._pattern(j)
        per_row = np.diff(x_start)[table.index[0]] * np.diff(y_start)[table.index[1]]
    rows = table._row_step(j)
    return max(per_row[k : k + rows].sum() for k in range(0, table.size, rows))


BANDS = FourierCosine((0.0, 1.0, 1.0))  # cos(pi x / L) + cos(2 pi x / L): S_j has every offset up to 2j


@pytest.mark.parametrize("domain, profile", [
    (String1D(1.0), COS2),
    (String1D(1.0), POLY),
    (Rectangle2D(1.0, 1.3), Separable2D(((COS2, COS2),))),
    (Rectangle2D(1.0, 1.3), Separable2D(((BANDS, BANDS),))),
    (Rectangle2D(1.0, 1.3), SEP),
    (RECT, Separable2D(((COS2, FourierCosine((1.0,))), (FourierCosine((1.0,)), FourierCosine((0.2, 0.0, 0.5)))))),
], ids=["cosine-string", "polynomial-string", "cosine-rectangle", "banded-rectangle", "polynomial-x-cosine",
        "two-terms"])
def test_walk_step_bound_counts_every_power_up_to_its_own(domain, profile):
    # the memory check's count of one walk step for powers up to J covers every step of
    # walk(j), j <= J: a cosine side factor of S_j has at most 2 j b + 1 nonzeros a row
    m, top = 1000, 6
    table = build_sigma_table(ModeBasis(domain, m), profile, top)
    for j in range(top + 1):
        assert step_candidates(table, j) <= walk_step_bound(domain, profile, m, max(j, 1))
    if profile == Separable2D(((BANDS, BANDS),)):  # 13 x 13 candidates a row in S_6: more than S_1's count
        assert step_candidates(table, top) > walk_step_bound(domain, profile, m, 1)


SKEW = Polynomial((0.3, 1.0, -0.5))  # not mirror-even: a dense S_1, one block


@pytest.mark.parametrize("domain, profile, count", [
    (String1D(1.0), SKEW, 1),
    (String1D(1.0), COS2, 2),
    (String1D(1.0), POLY, 2),
    (String1D(1.0), FourierCosine((0.0, 0.0, 0.0, 1.0)), 2),
    (String1D(1.0), FourierCosine((0.0, 0.0, 0.0, 0.0, 0.0, 1.0)), 3),
    (Rectangle2D(1.0, 1.3), Separable2D(((SKEW, FourierCosine((0.0, 1.0))),)), 1),
    (Rectangle2D(1.0, 1.3), SEP, 4),
    (Rectangle2D(1.0, 1.3), Separable2D(((COS2, COS2),)), 5),
], ids=["polynomial-string", "cosine-string", "even-polynomial-string", "cos3-string", "cos5-string",
        "polynomial-x-cosine", "parity-rectangle", "cosine-rectangle"])
def test_restrict_gives_the_dense_power_on_each_block(domain, profile, count):
    # S_1's exact blocks, one block of every mode and every third mode from each start, on
    # tables across the row-block edges: each array is power(j)'s bits on its modes, new on
    # every call.  S_j couples every third mode to modes left out, pairs restrict drops on
    # either storage form.  cos(3 pi x) couples modes three apart and 1 with 2, so one block
    # is {1, 2, 4, 5, ...} (1-based), not evenly spaced; cos(5 pi x) joins 1 with 4 and 2
    # with 3, three blocks
    for size in (2 * ROW_BLOCK + 3, ROW_BLOCK + 1, 1):
        table = build_sigma_table(ModeBasis(domain, size), profile, 2)
        assert len(table.blocks()) == (count if size > 1 else 1)
        dense = [table.power(j) for j in range(3)]
        for modes in (*table.blocks(), np.arange(size), *(np.arange(start, size, 3) for start in range(3))):
            for j in range(3):
                block = table.restrict(j, modes)
                assert block.tobytes() == dense[j][np.ix_(modes, modes)].tobytes()
            assert not np.shares_memory(block, table.restrict(2, modes))


@pytest.mark.parametrize("domain, profile", [
    (String1D(1.0), COS2), (String1D(1.0), SKEW), (Rectangle2D(1.0, 1.3), SEP),
], ids=["cosine-string", "polynomial-string", "polynomial-x-cosine"])
def test_walk_steps_through_every_row_once(domain, profile):
    # walk(j) yields _couplings of consecutive steps of _row_step(j) rows, the last one cut
    # at the table's size, and the steps together list power(j)'s upper triangle
    for m in (1, ROW_BLOCK + 1, 300):
        table = build_sigma_table(ModeBasis(domain, m), profile, 2)
        for j in range(3):
            step = table._row_step(j)
            walked = list(table.walk(j))
            assert [lo for lo, *_ in walked] == list(range(0, m, step))
            for lo, n, col, value in walked:
                rows = np.arange(lo, min(lo + step, m))
                for got, want in zip((n, col, value), table._couplings(j, rows)):
                    assert got.tobytes() == want.tobytes()
            listed = np.zeros((m, m))
            for _, n, col, value in walked:
                listed[n, col] = value
            assert np.array_equal(listed, np.triu(table.power(j)))
            # a block's rows list exactly that block's pairs of the full walk, in steps of its rows
            whole = [np.concatenate(parts) for parts in list(zip(*walked))[1:]]
            for rows in table.blocks():
                walked = list(table.walk(j, rows))
                assert [lo for lo, *_ in walked] == list(rows[::step])
                part = [np.concatenate(parts) for parts in list(zip(*walked))[1:]]
                mine = np.isin(whole[0], rows)
                for got, want in zip(part, whole):
                    assert got.tobytes() == want[mine].tobytes()


def sigma_sup(profile, domain):
    """The sampled bound on sup |sigma| that the density check reads: the larger end of sigma_range."""
    return max(map(abs, sigma_range(profile, domain)))


def test_density_bound_validation():
    with pytest.raises(ValidationError):
        check_strength(COS2, String1D(1.0), 1.2)
    check_strength(COS2, String1D(1.0), 0.9)
    with pytest.raises(ValidationError):
        check_strength(COS2, Rectangle2D(1.0, 1.0), 0.1)


def test_2d_sigma_sup_adds_per_term_factor_sups():
    one = FourierCosine((1.0,))
    rect = Rectangle2D(1.0, 1.3)
    half = FourierCosine((0.0, 0.5))
    assert sigma_sup(Separable2D(((COS2, half),)), rect) == 0.5
    # exact sup of cos(2 pi x) + cos(2 pi y) is 2, reached at the origin
    two_terms = Separable2D(((COS2, one), (one, COS2)))
    assert sigma_sup(two_terms, rect) == 2.0
    # the bound may exceed the true sup: cos(2 pi x) - cos(2 pi x) is zero
    minus = FourierCosine((0.0, 0.0, -1.0))
    cancelling = Separable2D(((COS2, one), (minus, one)))
    assert sigma_sup(cancelling, rect) == 2.0


def test_2d_sigma_range_adds_each_terms_signed_corner_products():
    # x - y on the unit square spans [-1, 1]: the x term runs over [0, 1] and the -y term over
    # [-1, 0], so the signed ends add to (-1, 1) where the terms' sups added to 2
    rect = Rectangle2D(1.0, 1.0)
    one, x, minus_y = FourierCosine((1.0,)), Polynomial((0.0, 1.0)), Polynomial((0.0, -1.0))
    difference = Separable2D(((x, one), (one, minus_y)))
    assert sigma_range(difference, rect) == (-1.0, 1.0)
    assert sigma_sup(difference, rect) == 1.0
    assert sigma_range(difference, rect, -0.5) == (-0.5, 0.5)  # of -0.5 sigma
    check_strength(difference, rect, 0.9)  # sup|lambda sigma| = 0.9
    with pytest.raises(ValidationError, match="density bound"):
        check_strength(difference, rect, 1.0)
    # one term: the least and greatest corner products; on the string the sampled range itself
    assert sigma_range(Separable2D(((COS2, Polynomial((-0.5, 1.0))),)), rect) == (-0.5, 0.5)
    assert sigma_range(x, String1D(2.0)) == (0.0, 2.0)
    assert sigma_range(x, String1D(2.0), -3.0) == (-6.0, -0.0)
    # a side that overflows to inf times a zero side is inf * 0 = NaN at a corner, which fails the bound
    overflowing = Separable2D(((Polynomial((0.0, 0.0, 1e308)), Polynomial((0.0,))),))
    with pytest.raises(ValidationError, match="sup.lambda.sigma. = nan"):
        check_strength(overflowing, Rectangle2D(10.0, 1.0), 0.1)


def test_a_table_carries_its_basis_and_profile():
    basis = ModeBasis(String1D(1.0), 12)
    table = build_sigma_table(basis, COS2, 1)
    assert table.basis is basis and table.profile is COS2 and table.size == 12
    assert table.check_strength(0.5) is None
    with pytest.raises(ValidationError, match="density bound"):
        table.check_strength(1.5)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_domains_and_strength_must_be_finite(bad):
    with pytest.raises(ValidationError):
        String1D(bad)
    with pytest.raises(ValidationError):
        Rectangle2D(1.0, bad)
    if bad != 0.0 and bad != -1.0:
        with pytest.raises(ValidationError):
            check_strength(COS2, String1D(1.0), bad)


def test_a_profile_of_the_other_dimension_is_a_validation_error():
    # a 2D profile on a string, like a 1D one on a rectangle, is a problem with the input,
    # not an AttributeError from deep in the coefficients or the sampled range
    sep = Separable2D(((COS2, COS2),))
    with pytest.raises(ValidationError, match="1D tables need a 1D profile"):
        build_sigma_table(ModeBasis(String1D(), 5), sep, 1)
    with pytest.raises(ValidationError, match="2D tables need a Separable2D profile"):
        build_sigma_table(ModeBasis(Rectangle2D(), 5), COS2, 1)
    for domain, profile, text in ((String1D(), sep, "1D domains need a 1D profile"),
                                  (Rectangle2D(), COS2, "2D domains need a Separable2D profile")):
        for check in (lambda: sigma_range(profile, domain), lambda: check_strength(profile, domain, 0.1)):
            with pytest.raises(ValidationError, match=text):
                check()


def test_a_mode_count_is_an_integer():
    # a float, a bool or text is no count of modes (2.5 listed 3 eigenvalues); a numpy integer is an int
    for count in (3.0, False, "5", None):
        with pytest.raises(ValidationError, match="mode_count must be an integer"):
            ModeBasis(String1D(), count)
    basis = ModeBasis(String1D(), np.int64(3))
    assert type(basis.mode_count) is int and basis == ModeBasis(String1D(), 3)
    assert len(basis.eigenvalues()) == 3 and build_sigma_table(basis, COS2, 1).size == 3
    with pytest.raises(ValidationError, match="mode_count must be >= 1"):
        ModeBasis(String1D(), np.int32(0))


def test_table_size_validation():
    basis = ModeBasis(String1D(1.0), 4)
    with pytest.raises(ValidationError):
        build_sigma_table(basis, COS2, 0)
