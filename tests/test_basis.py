import itertools
import math

import numpy as np
import pytest

from billzeta.basis import (
    ROW_BLOCK,
    DensityPerturbation,
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    String1D,
    Tabulated,
    _cosine_coeffs,
    _enumerate_rectangle_modes,
    _exact_cosine_elements,
    _quad_cosine_coeffs,
    build_sigma_table,
    rectangle_table_doubles,
)
from billzeta.errors import QuadratureError, ValidationError

COS2 = FourierCosine((0.0, 0.0, 1.0))  # sigma(x) = cos(2 pi x / L)
POLY = Polynomial((0.0, 4.0, -4.0))  # a quadrature profile
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
    table = build_sigma_table(basis, DensityPerturbation(COS2, 0.1), 1)
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
    # quadrature path against the exact cosine algebra
    exact = build_sigma_table(ModeBasis(String1D(1.0), 10), COS2, 2).power(1)
    quad = _exact_cosine_elements(10, _quad_cosine_coeffs(10, 1.0, [[(COS2, 1)]], None)[0][0])
    assert np.max(np.abs(quad - exact)) < 1e-12


def test_quadrature_orthonormality():
    one = Polynomial((1.0,))
    s0 = _exact_cosine_elements(14, _quad_cosine_coeffs(14, 1.0, [[(one, 1)]], None)[0][0])
    assert np.max(np.abs(s0 - np.eye(14))) < 1e-12


def test_quadrature_insufficient_nodes_reported():
    bumpy = FourierCosine(tuple([0.0] * 40 + [1.0]))  # cos(40 pi x)
    with pytest.raises(QuadratureError):
        _quad_cosine_coeffs(40, 1.0, [[(bumpy, 2)]], nodes=64)
    # the CLI's case: sigma = x at M = 64 on 48 nodes
    with pytest.raises(QuadratureError):
        _quad_cosine_coeffs(64, 1.0, [[(Polynomial((0.0, 1.0)), 1)]], nodes=48)


def test_nan_profile_fails_the_quadrature_self_check():
    # a NaN error bound compares False against any threshold, so it must be caught explicitly
    with pytest.raises(QuadratureError):
        build_sigma_table(ModeBasis(String1D(1.0), 20), Polynomial((math.nan, 1.0)), 2)


def test_linear_profile_matches_analytic_elements():
    # <n|x|m> = 2 int_0^1 x sin(n pi x) sin(m pi x) dx
    m = 60
    n = np.arange(1, m + 1)
    nn, mm = np.meshgrid(n, n, indexing="ij")
    with np.errstate(divide="ignore"):
        odd = -8.0 * nn * mm / (math.pi**2 * (nn**2 - mm**2) ** 2.0)
    expected = np.where((nn + mm) % 2 == 1, odd, 0.0)
    np.fill_diagonal(expected, 0.5)
    table = build_sigma_table(ModeBasis(String1D(1.0), m), Polynomial((0.0, 1.0)), 1)
    assert np.max(np.abs(table.power(1) - expected)) < 1e-13


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



def test_string_quadrature_meta_records_the_shared_plan_and_check():
    m, max_power = 40, 3
    table = build_sigma_table(ModeBasis(String1D(1.0), m), POLY, max_power)
    meta = table.quadrature_meta
    # every power uses the plan of the highest one, 8 (M + J * bandwidth)
    plan = 8 * (m + max_power * POLY.bandwidth())
    assert type(meta["nodes"]) is int and meta["nodes"] == plan
    errors = []
    for j in range(1, max_power + 1):
        coeffs, (used, error) = _quad_cosine_coeffs(m, 1.0, [[(POLY, j)]], plan)
        assert used == plan
        assert np.max(np.abs(coeffs[0] - table.cosine[j])) < 1e-15
        errors.append(error)
    # the largest self-check bound over the powers
    assert meta["self_check_error"] == pytest.approx(max(errors), rel=1e-3)
    assert 0.0 < meta["self_check_error"] < 1e-10
    # an explicit plan is recorded as given
    given = build_sigma_table(ModeBasis(String1D(1.0), m), POLY, 2, nodes=700)
    assert given.quadrature_meta["nodes"] == 700


def test_quadrature_rows_are_accurate_at_the_highest_harmonics():
    # c_k of 4x(1-x) on [0, 1]: c_0 = 2/3, c_k = -8 (1 + (-1)^k) / (k pi)^2
    m = 3000
    table = build_sigma_table(ModeBasis(String1D(1.0), m), POLY, 2)
    k = np.arange(1, 2 * m + 1)
    expected = np.concatenate([[2.0 / 3.0], -8.0 * (1.0 + (-1.0) ** k) / (k * math.pi) ** 2])
    assert len(table.cosine[1]) == 2 * m + 1
    assert np.max(np.abs(table.cosine[1] - expected)) < 1e-12


def test_string_quadrature_build_works_in_node_chunks():
    # the rows of one node chunk, not of the whole grid, are live at once
    import tracemalloc

    tracemalloc.start()
    try:
        build_sigma_table(ModeBasis(String1D(1.0), 3000), POLY, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_2d_quadrature_factors_share_rows_and_match_string_tables():
    # sigma = x * 1 + 1 * y: S_1 = X_1 (x) I + I (x) Y_1, S_2 = X_2 (x) I + 2 X_1 (x) Y_1 + I (x) Y_2
    rect = Rectangle2D(1.0, 1.3)
    x, one = Polynomial((0.0, 1.0)), Polynomial((1.0,))
    basis = ModeBasis(rect, 60)
    table = build_sigma_table(basis, Separable2D(((x, one), (one, x))), 2)
    assert table.quadrature_meta["nodes"] == "auto"  # 2D meta is unchanged
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
            got = _cosine_coeffs(50, 1.0, [[(a, j), (b, k)]])[0][0]
            scale = np.sum(np.abs(expected))
            assert len(got) == len(np.trim_zeros(expected, "b"))
            assert np.max(np.abs(got - expected[: len(got)])) <= 16 * np.finfo(float).eps * scale
    # the reference profile's powers are exact
    for j in range(1, 5):
        expected = np.ones(1)
        for _ in range(j):
            expected = product_to_sum(expected, (0.0, 0.0, 1.0))
        assert np.array_equal(_cosine_coeffs(10, 1.0, [[(COS2, j)]])[0][0], expected)


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
        expected = _exact_cosine_elements(m, _cosine_coeffs(m, 1.0, [[(profile, j)]])[0][0])
        assert dense.tobytes() == expected.tobytes()  # bit for bit, signed zeros included
        assert table.power(j) is dense  # built once
        assert table.width(j) == min(j * b, m - 1)
        for d in range(table.width(j) + 1):
            assert table.diagonal(j, d).tobytes() == np.diagonal(dense, d).tobytes()
        # entries outside the band are exactly zero
        outside = np.abs(np.subtract.outer(range(m), range(m))) > table.width(j)
        assert np.all(dense[outside] == 0.0)


def test_rectangle_diagonals_match_the_dense_power():
    # every diagonal of every power, the identity's included, and the smallest sizes
    for m in (1, 2, 7, 40):
        table = build_sigma_table(ModeBasis(RECT, m), SEP, 2)
        for j in range(3):
            assert table.width(j) == m - 1
            main = table.diagonal(j)
            assert j not in table._dense  # the main diagonal comes from the factors
            for d in range(m):
                assert table.diagonal(j, d).tobytes() == np.diagonal(table.power(j), d).tobytes()
            assert main.tobytes() == np.diagonal(table.power(j)).tobytes()


def test_rectangle_table_stores_no_identity():
    # nor any M x M array: two side factors per split of each power, until power(j) is called
    basis = ModeBasis(RECT, 2 * ROW_BLOCK + 3)
    m, sides = basis.mode_count, np.max(basis.mode_indices(), axis=0)
    table = build_sigma_table(basis, SEP, 3)
    assert table._dense == {} and table.index.shape == (2, m) and max(sides) < m
    assert [len(splits) for splits in table.factors] == [1, 1, 1, 1]  # one term: one split per power
    for splits in table.factors:
        for multinomial, x, y in splits:
            assert multinomial == 1.0 and x.shape == (sides[0],) * 2 and y.shape == (sides[1],) * 2
    assert table.power(0).tobytes() == np.eye(m).tobytes()
    assert list(table._dense) == [0]
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
        stored = table.index.size + sum(x.size + y.size for splits in table.factors for _, x, y in splits)
        counted = rectangle_table_doubles(Rectangle2D(*sides), profile, m, 3)
        assert stored <= counted <= stored + math.comb(3 + len(terms), len(terms)) * 8 * (m + 2)
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
        coeffs = _cosine_coeffs(n_max, length, lists)[0]
        sides.append([_exact_cosine_elements(n_max, c)[np.ix_(index, index)] for c in coeffs])
    expected = np.zeros((max_power + 1, m, m))
    expected[0] = np.eye(m)
    for alpha, x, y in zip(alphas, *sides):
        j = sum(alpha)
        multinomial = math.factorial(j) // math.prod(map(math.factorial, alpha))
        expected[j] += float(multinomial) * x * y
    return expected


def test_rectangle_table_is_built_in_row_blocks_bit_for_bit():
    # row blocks, diagonals and the dense power give the reference's bits, and nothing
    # M x M exists before power(j) is called
    for terms, max_power, m in RECTANGLE_TABLES:
        basis = ModeBasis(Rectangle2D(1.0, 1.3), m)
        table = build_sigma_table(basis, Separable2D(terms), max_power)
        expected = rectangle_reference(basis, terms, max_power)
        blocks = [(lo, min(lo + ROW_BLOCK, m)) for lo in range(0, m, ROW_BLOCK)] + [(m // 2, m)]
        for j in range(max_power + 1):
            for lo, hi in blocks:
                c0, block = table.rows(j, lo, hi)
                assert c0 == 0 and block.tobytes() == expected[j, lo:hi].tobytes()
            assert table.diagonal(j).tobytes() == np.diagonal(expected[j]).tobytes()
        assert table._dense == {}
        for j in range(max_power + 1):
            assert table.power(j).tobytes() == expected[j].tobytes()
            for d in sorted({1, m // 2, m - 1} & set(range(1, m))):
                assert table.diagonal(j, d).tobytes() == np.diagonal(expected[j], d).tobytes()


@pytest.mark.parametrize("profile", [COS2, POLY], ids=["cosine", "polynomial"])
def test_string_diagonal_is_read_without_a_dense_power(profile):
    table = build_sigma_table(ModeBasis(String1D(1.0), 30), profile, 2)
    diagonals = [[table.diagonal(j, d) for d in range(table.width(j) + 1)] for j in range(3)]
    assert table._dense == {}  # no dense S_j was formed
    for j, diags in enumerate(diagonals):
        for d, diag in enumerate(diags):
            assert diag.tobytes() == np.diagonal(table.power(j), d).tobytes()
        assert table.diagonal(j).tobytes() == diags[0].tobytes()  # the offset defaults to 0
    for d in (-1, 30):
        with pytest.raises(ValidationError):
            table.diagonal(1, d)


def test_rectangle_main_diagonal_is_read_from_the_factors():
    table = build_sigma_table(ModeBasis(RECT, 9), SEP, 2)
    diagonals = [table.diagonal(j) for j in range(3)]
    assert table._dense == {}  # no dense S_j was formed
    for j, diag in enumerate(diagonals):
        assert diag.tobytes() == np.diagonal(table.power(j)).tobytes()
    assert diagonals[0].tobytes() == np.ones(9).tobytes()  # the identity's
    assert table.diagonal(0, 3).tobytes() == np.zeros(6).tobytes()


ROW_SIZES = (1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3)


@pytest.mark.parametrize("profile", [
    COS2, FourierCosine((0.1, -0.3, 0.2, 0.0, 0.05)), FourierCosine(()), POLY,
    FourierCosine(tuple(0.01 * (k % 7 - 3) for k in range(45))),  # band wider than small M
], ids=["cos2", "cosine", "zero", "polynomial", "wide"])
def test_string_rows_match_the_dense_power_bit_for_bit(profile):
    for m in ROW_SIZES:
        table = build_sigma_table(ModeBasis(String1D(1.0), m), profile, 2)
        blocks = {j: [table.rows(j, lo, min(lo + ROW_BLOCK, m)) for lo in range(0, m, ROW_BLOCK)]
                  for j in range(3)}
        assert table._dense == {}  # read without a dense S_j
        for j, row_blocks in blocks.items():
            dense, w = table.power(j), table.width(j)
            for lo, (c0, block) in zip(range(0, m, ROW_BLOCK), row_blocks):
                hi = min(lo + ROW_BLOCK, m)
                assert c0 == max(0, lo - w)
                assert block.tobytes() == dense[lo:hi, c0 : min(m, hi + w)].tobytes()
                outside = np.ones(m, bool)
                outside[c0 : min(m, hi + w)] = False
                assert not np.any(dense[lo:hi, outside])  # nothing beyond the width
    with pytest.raises(ValidationError):
        table.rows(1, 3, 3)


def test_rectangle_rows_are_read_from_the_factors():
    table = build_sigma_table(ModeBasis(RECT, 9), SEP, 2)
    blocks = [table.rows(j, 3, 7) for j in range(3)]
    assert table._dense == {}  # every column of the rows, without a dense S_j
    for j, (c0, block) in enumerate(blocks):
        assert c0 == 0 and block.tobytes() == table.power(j)[3:7].tobytes()
    assert blocks[0][1].tobytes() == np.eye(9)[3:7].tobytes()


def test_density_bound_validation():
    dens = DensityPerturbation(COS2, 1.2)
    with pytest.raises(ValidationError):
        dens.validate(String1D(1.0))
    ok = DensityPerturbation(COS2, 0.9)
    ok.validate(String1D(1.0))
    with pytest.raises(ValidationError):
        DensityPerturbation(COS2, 0.1).validate(Rectangle2D(1.0, 1.0))


def test_2d_sigma_sup_adds_per_term_factor_sups():
    one = FourierCosine((1.0,))
    rect = Rectangle2D(1.0, 1.3)
    half = FourierCosine((0.0, 0.5))
    assert DensityPerturbation(Separable2D(((COS2, half),))).sigma_sup(rect) == 0.5
    # exact sup of cos(2 pi x) + cos(2 pi y) is 2, reached at the origin
    two_terms = Separable2D(((COS2, one), (one, COS2)))
    assert DensityPerturbation(two_terms).sigma_sup(rect) == 2.0
    # the bound may exceed the true sup: cos(2 pi x) - cos(2 pi x) is zero
    minus = FourierCosine((0.0, 0.0, -1.0))
    cancelling = Separable2D(((COS2, one), (minus, one)))
    assert DensityPerturbation(cancelling).sigma_sup(rect) == 2.0


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_domains_and_strength_must_be_finite(bad):
    with pytest.raises(ValidationError):
        String1D(bad)
    with pytest.raises(ValidationError):
        Rectangle2D(1.0, bad)
    if bad != 0.0 and bad != -1.0:
        with pytest.raises(ValidationError):
            DensityPerturbation(COS2, bad).validate(String1D(1.0))


def test_table_size_validation():
    basis = ModeBasis(String1D(1.0), 4)
    with pytest.raises(ValidationError):
        build_sigma_table(basis, COS2, 0)


@pytest.mark.parametrize("nodes", [0, -5])
def test_table_rejects_nonpositive_node_plan(nodes):
    # a negative plan collapses the main and the check grid to the same single
    # panel, so the quadrature self-check would compare a grid with itself;
    # 0 would silently stand for the automatic plan
    basis = ModeBasis(String1D(1.0), 40)
    with pytest.raises(ValidationError):
        build_sigma_table(basis, Polynomial((0.0, 1.0, -1.0)), 2, nodes=nodes)
