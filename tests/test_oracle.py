import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from billzeta import oracle
from billzeta.basis import (
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    String1D,
    Tabulated,
    build_sigma_table,
    sigma_range,
)
from billzeta.errors import (
    FactorizationError,
    InsufficientDataError,
    NumericalError,
    ValidationError,
)
from billzeta.oracle import (
    _graded_blocks,
    convergence_order_fit,
    effective_area,
    effective_length,
    effective_perimeter,
    oracle_sum_rule,
    residual_norms,
    solve_spectrum,
    z_direct_detail,
)
from billzeta.sumrules import RationalOrderSpec

COS2 = FourierCosine((0.0, 0.0, 1.0))
COS4 = FourierCosine((0.0, 0.0, 0.0, 0.0, 1.0))
POLY = Polynomial((0.0, 4.0, -4.0))  # 4x(1-x): mirror-even, so S_1 couples n + m even only
SKEW = Polynomial((0.3, 1.0, -0.5))  # not mirror-even: a dense S_1, one block
RECT = Rectangle2D(1.0, 1.3)
COS_2D = Separable2D(((COS2, COS2),))
ZETA3 = 1.2020569031595942854


def overlap(basis, profile, lam):
    """S = I + lam * S_1, formed from the table's dense S_1 apart from the oracle: an independent reference."""
    s1 = build_sigma_table(basis, profile, 1).power(1)
    return np.eye(basis.mode_count) + lam * s1


def spectrum(basis, profile, lam, want_vectors=False):
    """solve_spectrum on a power-1 table of the basis and the profile, at lambda."""
    return solve_spectrum(build_sigma_table(basis, profile, 1), lam, want_vectors=want_vectors)


def graded_matrix(table, lam):
    """The whole graded pencil B, the oracle's blocks scattered into a zero M x M matrix, and the blocks' modes."""
    m = table.size
    graded, blocks = np.zeros((m, m)), []
    for modes, block in _graded_blocks(table, lam):
        graded[np.ix_(modes, modes)] = block
        blocks.append(modes)
    return graded, blocks


def test_graded_blocks_overlap_pattern():
    basis = ModeBasis(String1D(1.0), 4)
    s = overlap(basis, COS2, 0.1)
    assert s[0, 0] == pytest.approx(0.95, abs=1e-14)
    assert s[0, 2] == pytest.approx(0.05, abs=1e-14)
    assert s[2, 0] == pytest.approx(0.05, abs=1e-14)
    assert s[1, 3] == pytest.approx(0.05, abs=1e-14)
    assert s[3, 1] == pytest.approx(0.05, abs=1e-14)
    zero_mask = np.ones((4, 4), dtype=bool)
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)):
        zero_mask[i, j] = False
    assert np.all(s[zero_mask] == 0.0)
    assert np.array_equal(s, s.T)


@pytest.mark.parametrize("profile, lam", [
    (COS2, 0.1), (COS2, -0.3), (Polynomial((0.0, 4.0, -4.0)), -0.2),
], ids=["cosine", "negative", "polynomial"])
def test_graded_blocks_grade_the_overlap_bit_for_bit(profile, lam):
    # B = r S r with r = K^-1/2, graded in place block by block: the bits of grading the
    # reference S, signed zeros included, and B is exactly 0 between blocks
    basis = ModeBasis(String1D(1.0), 30)
    graded, blocks = graded_matrix(build_sigma_table(basis, profile, 1), lam)
    modes = np.sort(np.concatenate(blocks))
    assert np.array_equal(modes, np.arange(30))  # the blocks partition the modes
    r = 1.0 / np.sqrt(basis.eigenvalues())
    expected = r[:, None] * overlap(basis, profile, lam) * r[None, :]
    assert graded.tobytes() == expected.tobytes()


def test_blocks_follow_the_exact_couplings():
    # off the diagonal S_1[n, m] = (c_|n-m| - c_{n+m}) / 2 on the string; blocks come in order
    # of their lowest mode
    basis = ModeBasis(String1D(1.0), 60)
    n = np.arange(1, 61)
    [whole] = build_sigma_table(basis, SKEW, 1).blocks()
    assert np.array_equal(whole, np.arange(60))
    # 4x(1-x) is even about x = 1/2: every odd coefficient is 0, so odd and even modes
    odd, even = build_sigma_table(basis, POLY, 1).blocks()
    assert np.array_equal(n[odd], n[n % 2 == 1]) and np.array_equal(n[even], n[n % 2 == 0])
    # cos(2 pi x): c_2 couples modes two apart, so odd and even modes
    odd, even = build_sigma_table(basis, COS2, 1).blocks()
    assert np.array_equal(n[odd], n[n % 2 == 1]) and np.array_equal(n[even], n[n % 2 == 0])
    # cos(4 pi x): c_4 couples modes four apart and 1 with 3 (n + m = 4), not 2 with 2
    odd, twos, fours = build_sigma_table(basis, COS4, 1).blocks()
    assert np.array_equal(n[odd], n[n % 2 == 1])
    assert np.array_equal(n[twos], n[n % 4 == 2]) and np.array_equal(n[fours], n[n % 4 == 0])


def components(nonzero):
    """Connected components of a symmetric boolean matrix, by breadth-first search: the reference."""
    seen = np.zeros(len(nonzero), dtype=bool)
    found = []
    for start in range(len(nonzero)):
        if seen[start]:
            continue
        seen[start] = True
        frontier, members = [start], []
        while frontier:
            node = frontier.pop()
            members.append(node)
            for new in np.flatnonzero(nonzero[node] & ~seen):
                seen[new] = True
                frontier.append(new)
        found.append(sorted(members))
    return found


@pytest.mark.parametrize("harmonics", [(3,), (6,), (4, 10), (5, 9), (12,), (7, 8)])
@pytest.mark.parametrize("kind", ["string", "rectangle"])
def test_blocks_are_the_components_of_the_nonzero_pattern(monkeypatch, kind, harmonics):
    # steps of 8 rows: the walk joins trees across many steps
    from billzeta import basis as basis_module

    monkeypatch.setattr(basis_module, "ROW_BLOCK", 8)
    coeffs = np.zeros(max(harmonics) + 1)
    coeffs[list(harmonics)] = 1.0
    profile = FourierCosine(tuple(coeffs))
    if kind == "string":
        basis = ModeBasis(String1D(1.0), 400)
    else:
        basis, profile = ModeBasis(RECT, 150), Separable2D(((profile, FourierCosine(tuple(coeffs[::-1]))),))
    table = build_sigma_table(basis, profile, 1)
    blocks = table.blocks()
    assert [list(modes) for modes in blocks] == components(table.power(1) != 0.0)


def test_rectangle_blocks_are_parity_classes_with_the_even_class_split():
    # each side factor of cos(2 pi x) cos(2 pi y / b) couples indices two apart, and index 1
    # with itself: an odd side index can stay put, so three parity classes are connected, but
    # (even, even) modes only move by (+-2, +-2), which keeps (j - k) / 2 mod 2
    basis = ModeBasis(RECT, 200)
    blocks = build_sigma_table(basis, COS_2D, 1).blocks()
    j, k = np.array(basis.mode_indices()).T
    cls = np.where((j % 2 == 0) & (k % 2 == 0), 2 + (j - k) // 2 % 2, 0) + 4 * (j % 2) + 8 * (k % 2)
    assert len(blocks) == 5
    assert sorted(tuple(modes) for modes in blocks) == sorted(
        tuple(np.flatnonzero(cls == c)) for c in np.unique(cls)
    )


def test_mirror_even_polynomial_splits_into_parity_blocks():
    # 4x(1-x) cos(2 pi y / b): both side factors are even about their midpoints, so S_1
    # couples modes of one side-index parity class only, and the dense x factor joins each
    # class whole (the even-even class is not split as for cos(2 pi x) cos(2 pi y / b))
    basis = ModeBasis(RECT, 2000)
    blocks = build_sigma_table(basis, Separable2D(((POLY, COS2),)), 1).blocks()
    j, k = np.array(basis.mode_indices()).T
    assert [len(modes) for modes in blocks] == [510, 502, 499, 489]
    assert sorted(tuple(modes) for modes in blocks) == sorted(
        tuple(np.flatnonzero((j % 2 == p) & (k % 2 == q))) for p in (0, 1) for q in (0, 1)
    )


@pytest.mark.parametrize("domain, profile, m", [
    (String1D(1.0), POLY, 90), (RECT, Separable2D(((POLY, COS2),)), 150),
], ids=["polynomial-string", "polynomial-x-cosine"])
def test_parity_blocks_are_the_components_of_the_nonzero_pattern(domain, profile, m):
    table = build_sigma_table(ModeBasis(domain, m), profile, 1)
    assert len(table.blocks()) == (2 if domain == String1D(1.0) else 4)
    assert [list(modes) for modes in table.blocks()] == components(table.power(1) != 0.0)


@pytest.mark.parametrize("domain, profile, size", [
    (String1D(1.0), COS2, 120), (String1D(1.0), COS4, 150), (RECT, COS_2D, 120),
    (RECT, COS_2D, 160), (RECT, Separable2D(((POLY, COS2),)), 140),
    (String1D(1.0), POLY, 120), (String1D(1.0), POLY, 131),
], ids=["cosine", "cos4", "rectangle", "rectangle-160", "polynomial-x-cosine", "polynomial",
        "polynomial-131"])
def test_block_spectrum_matches_the_dense_pencil(domain, profile, size):
    # one LAPACK call per block, merged in order: the eigenvalues of the whole graded pencil
    basis, lam = ModeBasis(domain, size), 0.16
    table = build_sigma_table(basis, profile, 1)
    assert len(table.blocks()) > 1
    r = 1.0 / np.sqrt(basis.eigenvalues())
    graded = r[:, None] * (np.eye(size) + lam * table.power(1)) * r[None, :]
    reference = 1.0 / np.linalg.eigvalsh(graded)[::-1]
    values = solve_spectrum(table, lam)
    assert np.max(np.abs(values - reference) / reference) <= 1e-13


@pytest.mark.parametrize("domain, profile, lam", [
    (String1D(1.0), COS2, 0.1), (RECT, COS_2D, 0.16),
], ids=["cosine", "rectangle"])
def test_block_eigenvectors_are_overlap_orthonormal(domain, profile, lam):
    # criterion 9's setup on the string: each vector lives in its block's modes
    basis = ModeBasis(domain, 200)
    table = build_sigma_table(basis, profile, 1)
    assert len(table.blocks()) > 1
    values, vectors = solve_spectrum(table, lam, want_vectors=True)
    label = np.empty(200, dtype=int)
    for b, modes in enumerate(table.blocks()):
        label[modes] = b
    for column in vectors.T:
        assert len(set(label[column != 0.0])) == 1
    gram = vectors.T @ overlap(basis, profile, lam) @ vectors
    assert np.max(np.abs(gram - np.eye(200))) < 1e-10
    assert np.max(residual_norms(table, lam, values, vectors)) <= 1e-10
    eigenvalues = solve_spectrum(table, lam)
    assert np.max(np.abs(values - eigenvalues) / eigenvalues) <= 1e-13


def test_homogeneous_spectrum_exact():
    basis = ModeBasis(String1D(1.0), 5)
    values = spectrum(basis, FourierCosine(()), 0.0)
    expected = np.array([1, 4, 9, 16, 25]) * math.pi**2
    assert np.max(np.abs(values - expected) / expected) < 1e-12


def test_spectrum_positive_and_sorted():
    basis = ModeBasis(String1D(1.0), 60)
    values = spectrum(basis, COS2, 0.3)
    assert np.all(values > 0.0)
    assert np.all(np.diff(values) > 0.0)


def test_small_lambda_limit_linear():
    basis = ModeBasis(String1D(1.0), 40)
    eps = basis.eigenvalues()
    devs = []
    lams = (0.01, 0.02, 0.04)
    for lam in lams:
        values = spectrum(basis, COS2, lam)
        devs.append(np.max(np.abs(values - eps) / eps))
    slope = np.polyfit(np.log(lams), np.log(devs), 1)[0]
    assert 0.9 < slope < 1.1


def test_first_order_eigenvalue_shift():
    # (E_1 - eps_1)/eps_1 ~ -lam <1|sigma|1> = +lam/2 for sigma = cos(2 pi x)
    basis = ModeBasis(String1D(1.0), 60)
    lam = 1e-3
    values = spectrum(basis, COS2, lam)
    eps1 = basis.eigenvalues()[0]
    shift = (values[0] - eps1) / eps1
    assert shift == pytest.approx(lam / 2, rel=1e-2)


def test_residual_invariant():
    basis = ModeBasis(String1D(1.0), 80)
    table = build_sigma_table(basis, COS2, 1)
    values, vectors = solve_spectrum(table, 0.2, want_vectors=True)
    assert np.max(residual_norms(table, 0.2, values, vectors)) < 1e-10


def test_residuals_at_400_modes_match_the_reference_overlap():
    # residual_norms reads S c from the graded blocks; about 2.6e-11 here
    basis = ModeBasis(String1D(1.0), 400)
    table = build_sigma_table(basis, COS2, 1)
    values, vectors = solve_spectrum(table, 0.16, want_vectors=True)
    assert np.max(residual_norms(table, 0.16, values, vectors)) < 1e-10
    kc = basis.eigenvalues()[:, None] * vectors
    sc = overlap(basis, COS2, 0.16) @ vectors
    reference = np.linalg.norm(kc - values * sc, axis=0) / np.linalg.norm(kc, axis=0)
    assert np.max(reference) < 1e-10


@pytest.mark.parametrize("lam", [0.16, -0.16])
@pytest.mark.parametrize("domain, profile", [
    (String1D(1.0), COS2), (String1D(1.0), SKEW), (RECT, COS_2D),
], ids=["cosine-string", "polynomial-string", "cosine-rectangle"])
def test_eigenvector_residuals_hold_criterion_9_at_400_modes(domain, profile, lam):
    # criterion 9 checks M = 200, but the worst residual grows with M: on the cosine string
    # 7.9e-12 at M = 200, 4.1e-11 at 400 and 1.43e-10 at 800, past the bound.  M = 400 is
    # held to criterion 9's 1e-10 so that any further loss shows here first
    table = build_sigma_table(ModeBasis(domain, 400), profile, 1)
    values, vectors = solve_spectrum(table, lam, want_vectors=True)
    assert np.max(residual_norms(table, lam, values, vectors)) <= 1e-10


def traced_peak(run):
    """tracemalloc's peak over run(), in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_traced_peak(profile, m, domain=String1D(1.0)):
    """tracemalloc's peak, in M x M arrays of doubles, over oracle_sum_rule at two lambdas."""
    orders, lams = [RationalOrderSpec.parse("3/2")], [0.08, 0.16]
    oracle_sum_rule(orders, build_sigma_table(ModeBasis(domain, 8), profile, 2), lams)  # lazy imports
    table = build_sigma_table(ModeBasis(domain, m), profile, 2)
    results = []
    peak = traced_peak(lambda: results.extend(oracle_sum_rule(orders, table, lams)))
    assert len(results) == 2
    return peak / (m * m * 8)


def test_oracle_holds_one_dense_matrix_per_solve():
    # one block: the pencil is graded in place from a fresh S_1, so tracemalloc sees one
    # M x M array per solve (LAPACK's copy is not traced)
    assert oracle_traced_peak(SKEW, 400) <= 1.5


def test_two_block_oracle_holds_half_a_dense_matrix():
    # the cosine string's odd and even blocks: one (M/2) x (M/2) array at a time, each solved
    # and dropped before the next is formed, 0.32 M^2 measured
    assert oracle_traced_peak(COS2, 400) <= 0.4


def test_five_block_rectangle_oracle_holds_its_largest_block():
    # COS_2D's five exact blocks, each near M/4 modes, one at a time: 0.076 M^2 measured,
    # where holding them all takes 0.245
    assert oracle_traced_peak(COS_2D, 1200, RECT) <= 0.12


@pytest.mark.parametrize("domain, profile, dense_sides", [
    (String1D(1.0), SKEW, False),
    (RECT, Separable2D(((SKEW, FourierCosine((0.0, 1.0))),)), False),
    (RECT, Separable2D(((SKEW, Polynomial((0.1, -0.7, 0.4))),)), True),
], ids=["polynomial-string", "polynomial-x-cosine", "polynomial-x-polynomial"])
def test_graded_blocks_hold_one_dense_s1_and_one_walk_step(domain, profile, dense_sides):
    # one block at M = 400: S_1 is formed once, in the graded block.  Dense side factors
    # list about 1.3 x 400 pairs per row, so one step of the walk, traced on its own, comes
    # on top there: 1.33 M^2 measured, with the step's candidate indices released before
    # its values are formed
    m = 400
    table = build_sigma_table(ModeBasis(domain, m), profile, 1)
    assert len(table.blocks()) == 1
    next(_graded_blocks(table, 0.1))  # lazy imports and the table's cached pattern
    step = traced_peak(lambda: next(table.walk(1))) if dense_sides else 0
    assert step <= 1.4 * m * m * 8
    peak = traced_peak(lambda: next(_graded_blocks(table, 0.1)))
    assert peak <= 1.5 * m * m * 8 + step


def test_galerkin_monotone_in_truncation():
    prev = None
    for m in (50, 100, 200):
        basis = ModeBasis(String1D(1.0), m)
        values = spectrum(basis, COS2, 0.1)
        if prev is not None:
            assert np.all(values[: prev.size] - prev <= 1e-9)
        prev = values


def test_added_mass_lowers_every_eigenvalue():
    # sin^2(pi x) profile: nonnegative, so all eigenvalues must drop
    profile = FourierCosine((0.5, 0.0, -0.5))
    basis = ModeBasis(String1D(1.0), 50)
    values = spectrum(basis, profile, 0.4)
    assert np.all(values < basis.eigenvalues())


def solve_graded(monkeypatch, basis, graded, want_vectors=False):
    """solve_spectrum on the basis with its one block replaced by the given graded matrix."""
    monkeypatch.setattr(oracle, "_graded_blocks", lambda *args: iter([(np.arange(basis.mode_count), graded)]))
    return spectrum(basis, COS2, 0.9, want_vectors)


def test_factorization_error_names_density_bound(monkeypatch):
    basis = ModeBasis(String1D(1.0), 3)
    r = 1.0 / np.sqrt(basis.eigenvalues())
    indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(FactorizationError, match="lambda\\*sigma"):
        solve_graded(monkeypatch, basis, r[:, None] * indefinite * r[None, :])


def test_kept_spectrum_matches_cholesky_reference():
    # test-only reference: S = L L^T, eigenvalues of L^-1 K L^-T
    basis = ModeBasis(String1D(1.0), 200)
    lower = np.linalg.cholesky(overlap(basis, COS2, 0.16))
    half = np.linalg.solve(lower, np.diag(basis.eigenvalues()))
    reduced = np.linalg.solve(lower, half.T)
    reference = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    values = spectrum(basis, COS2, 0.16)
    kept = 150
    rel = np.abs(values[:kept] - reference[:kept]) / reference[:kept]
    assert np.max(rel) < 1e-11


def test_eigenvectors_are_overlap_orthonormal():
    basis = ModeBasis(String1D(1.0), 200)
    _, vectors = spectrum(basis, COS2, 0.16, want_vectors=True)
    gram = vectors.T @ overlap(basis, COS2, 0.16) @ vectors
    assert np.max(np.abs(gram - np.eye(200))) < 1e-10


@pytest.mark.parametrize("want_vectors", [False, True])
def test_nan_overlap_is_a_numerical_failure(monkeypatch, want_vectors):
    basis = ModeBasis(String1D(1.0), 4)
    graded = np.diag(1.0 / basis.eigenvalues())
    graded[1, 2] = graded[2, 1] = np.nan
    with pytest.raises((NumericalError, FactorizationError)):
        solve_graded(monkeypatch, basis, graded, want_vectors)


def test_lapack_failure_is_a_numerical_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    basis = ModeBasis(String1D(1.0), 4)
    with pytest.raises(NumericalError, match="did not converge"):
        spectrum(basis, COS2, 0.1)


def test_z_direct_homogeneous_anchor():
    table = build_sigma_table(ModeBasis(String1D(1.0), 300), FourierCosine(()), 1)
    [(z, tail, kept)] = z_direct_detail(solve_spectrum(table, 0.0), [1.5], table, 0.0)
    assert kept == 225
    assert abs(z - ZETA3 / math.pi**3) <= 2 * tail


def test_z_direct_truncation_sequence_cauchy():
    details = []
    for m in (100, 200, 400):
        table = build_sigma_table(ModeBasis(String1D(1.0), m), COS2, 1)
        details.append(z_direct_detail(solve_spectrum(table, 0.1), [1.5], table, 0.1)[0])
    for (za, ta, _), (zb, tb, _) in zip(details, details[1:]):
        assert abs(za - zb) <= 2 * (ta + tb)


def test_z_direct_strong_2d_medium_keeps_what_the_basis_resolves():
    # COS_2D at lambda = 0.9: A_eff / (A max Sigma) = 1 / 1.9, so M = 400 modes resolve about
    # 0.95 * 400 / 1.9 = 200 eigenvalues; a fixed 25% discard kept 300 and missed by 1.1e-6
    z = {}
    for m in (400, 1500):
        table = build_sigma_table(ModeBasis(RECT, m), COS_2D, 1)
        [(z[m], _, kept)] = z_direct_detail(solve_spectrum(table, 0.9), [2.0], table, 0.9)
        if m == 400:
            assert kept == 200
    assert abs(z[400] - z[1500]) <= 3e-7


_COEFF = st.floats(-1.0, 1.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-3)  # lambda = strength / sup stays mild
_KEPT_PROFILES = st.one_of(
    st.lists(_COEFF, min_size=1, max_size=5).map(lambda c: FourierCosine(tuple(c))),
    st.lists(_COEFF, min_size=1, max_size=4).map(lambda c: Polynomial(tuple(c))),
    st.lists(_COEFF, min_size=2, max_size=6).map(
        lambda ys: Tabulated(tuple(np.linspace(-0.1, 1.1, len(ys))), tuple(ys))),
)


@settings(max_examples=60, deadline=None)
@given(profile=_KEPT_PROFILES, other=_KEPT_PROFILES, rectangle=st.booleans(),
       strength=st.floats(-0.95, 0.95), m=st.integers(1, 80))
def test_z_direct_kept_count_rule(profile, other, rectangle, strength, m):
    # kept = max(1, min(M - round(M/4), floor(0.95 M ratio))): ratio from the optical geometry and
    # max Sigma = 1 + max(lam sigma) from the profile's sampled range
    from billzeta.basis import _profile_range

    for p, length in ((profile, 1.0), (other, 1.3)):
        lo, hi = _profile_range(p, length)
        xs = np.linspace(0.0, length, max(4097, 32 * p.bandwidth() + 1))
        samples = p.evaluate(np.concatenate([xs, np.clip(getattr(p, "xs", ()), 0.0, length)]), length)
        assert lo <= samples.min() and samples.max() <= hi  # the signed range brackets every sample
        assert lo in samples and hi in samples
    domain, sigma = (RECT, Separable2D(((profile, other),))) if rectangle else (String1D(1.3), profile)
    sup = max(map(abs, sigma_range(sigma, domain)))
    lam = strength / sup if sup > 0.0 else strength
    basis = ModeBasis(domain, m)
    [(_, _, kept)] = z_direct_detail(basis.eigenvalues(), [2.0], build_sigma_table(basis, sigma, 1), lam)
    cap = m - round(m / 4)
    assert 1 <= kept <= cap
    if sigma.is_zero:  # the homogeneous spectrum is exact: every M keeps the cap
        assert kept == cap
        return
    if rectangle:
        rx, ry = _profile_range(profile, domain.a), _profile_range(other, domain.b)
        peak = max(lam * p * q for p in rx for q in ry)
        ratio = effective_area(domain, sigma, lam) / (domain.a * domain.b * (1.0 + peak))
    else:
        peak = max(lam * v for v in _profile_range(profile, domain.length))
        ratio = effective_length(domain, sigma, lam) / (domain.length * math.sqrt(1.0 + peak))
    if 0.95 * ratio >= 0.75 + 1.0 / m:  # every mild medium: three quarters, as a fixed discard kept
        assert kept == cap
    assert kept == max(1, min(cap, math.floor(0.95 * m * ratio)))


@pytest.mark.parametrize("domain, zero", [
    (String1D(1.0), FourierCosine(())), (RECT, Separable2D(((FourierCosine(()), COS2),))),
], ids=["string", "rectangle"])
def test_z_direct_keeps_the_cap_of_a_homogeneous_spectrum(domain, zero):
    # a zero profile: the spectrum is exact, so every M keeps the cap M - round(M/4)
    for m in range(1, 9):
        basis = ModeBasis(domain, m)
        table = build_sigma_table(basis, zero, 1)
        for lam in (0.0, 0.5):
            [(_, _, kept)] = z_direct_detail(basis.eigenvalues(), [2.0], table, lam)
            assert kept == m - round(m / 4), (m, lam)


def test_z_direct_validation():
    table = build_sigma_table(ModeBasis(String1D(1.0), 20), COS2, 1)
    vals = table.basis.eigenvalues()
    with pytest.raises(ValidationError, match="diverges"):
        z_direct_detail(vals, [0.3], table, 0.1)
    with pytest.raises(ValidationError, match="density bound"):
        z_direct_detail(vals, [1.5], table, 1.5)


def test_effective_geometry():
    ell = effective_length(String1D(1.0), COS2, 0.16)
    # 1 - lam^2/16 - 15 lam^4/1024 + O(lam^6)
    assert ell == pytest.approx(1.0 - 0.16**2 / 16.0 - 15 * 0.16**4 / 1024.0, abs=5e-7)
    rect = Rectangle2D(1.0, 1.0)
    prof2 = Separable2D(((COS2, COS2),))
    assert effective_area(rect, prof2, 0.05) == pytest.approx(1.0, abs=1e-13)
    assert effective_perimeter(rect, prof2, 0.05) == pytest.approx(
        4.0 * (1.0 - 0.05**2 / 16.0), abs=1e-6
    )


def test_oracle_sum_rule_record():
    basis = ModeBasis(String1D(1.0), 80)
    table = build_sigma_table(basis, COS2, 2)
    res = oracle_sum_rule([RationalOrderSpec.parse("3/2")], table, [0.1])[0]
    assert res.route == "oracle"
    assert res.z1 == 0.0 and res.z2 == 0.0
    assert res.z_total > 0.0 and res.tail_estimate > 0.0


def test_convergence_fit_insufficient_points():
    basis = ModeBasis(String1D(1.0), 40)
    table = build_sigma_table(basis, COS2, 2)
    with pytest.raises(InsufficientDataError):
        convergence_order_fit(RationalOrderSpec.parse("3/2"), table, [0.1, 0.2])


def test_convergence_fit_first_order_slope_two():
    basis = ModeBasis(String1D(1.0), 120)
    fit = convergence_order_fit(
        RationalOrderSpec.parse("3/2"),
        build_sigma_table(basis, COS2, 2),
        [0.04, 0.08, 0.16],
        drop_second_order=True,
    )
    assert 1.8 < fit.slope < 2.2


@pytest.mark.parametrize("basis, profile", [
    (ModeBasis(String1D(1.0), 20), FourierCosine((0.0, 0.0, 0.0))),
    (ModeBasis(Rectangle2D(10.0, 1.0), 20), Separable2D(((Polynomial((0.0,)), Polynomial((1.0,))),))),
], ids=["string", "rectangle-10x1"])
def test_convergence_fit_rejects_a_homogeneous_medium_before_any_solve(monkeypatch, basis, profile):
    # sigma = 0: Z does not depend on lambda, and there is no lambda^3 error to fit
    def never(*args, **kwargs):
        raise AssertionError("a route ran")

    monkeypatch.setattr(oracle, "z_closed_form", never)
    monkeypatch.setattr(oracle, "oracle_sum_rule", never)
    table = build_sigma_table(basis, profile, 2)
    with pytest.raises(ValidationError) as info:
        convergence_order_fit(RationalOrderSpec.parse("3/2"), table, [0.02, 0.04, 0.08])
    assert str(info.value) == "sigma is zero, so Z does not depend on lambda and there is no lambda^3 term to fit"


@pytest.mark.parametrize("order", [RationalOrderSpec.parse("1/2+1/2"), 1.0])
def test_convergence_fit_rejects_s_one_before_any_solve(monkeypatch, order):
    # Z(1) is linear in lambda: second order is exact and there is no lambda^3 error to fit

    def never(*args, **kwargs):
        raise AssertionError("a route ran")

    monkeypatch.setattr(oracle, "z_closed_form", never)
    monkeypatch.setattr(oracle, "oracle_sum_rule", never)
    basis = ModeBasis(String1D(1.0), 40)
    table = build_sigma_table(basis, COS2, 2)
    with pytest.raises(ValidationError, match=r"Z\(1\) is linear in lambda"):
        convergence_order_fit(order, table, [0.05, 0.1, 0.2])


@pytest.mark.parametrize("lambdas, error, named", [
    ((0.0, 0.04, 0.08, 0.16), ValidationError, "[0.0]"),
    ((-0.08, 0.04, 0.08, 0.16), ValidationError, "[-0.08]"),
    ((-0.04, 0.0, 0.08), ValidationError, "[-0.04, 0.0]"),
    ((0.08, 0.08, 0.16), InsufficientDataError, "distinct"),
], ids=["zero", "negative", "both", "repeated"])
def test_convergence_fit_rejects_unfittable_lambdas_before_any_solve(monkeypatch, lambdas, error, named):
    # the fit is a line through (log lambda, log error): non-positive lambdas have no
    # abscissa, and a repeated lambda adds no point
    from billzeta import oracle

    def never(*args, **kwargs):
        raise AssertionError("a route ran")

    monkeypatch.setattr(oracle, "z_closed_form", never)
    monkeypatch.setattr(oracle, "oracle_sum_rule", never)
    basis = ModeBasis(String1D(1.0), 40)
    table = build_sigma_table(basis, COS2, 2)
    with pytest.raises(error, match=re.escape(named)):
        convergence_order_fit(RationalOrderSpec.parse("3/2"), table, list(lambdas))


def fit_through(monkeypatch, points):
    """convergence_order_fit with routes that return the given (lambda, error) points, every one usable.

    The closed form reads z_total = error and the oracle z0 = 0 with no tails, so each point's
    floor is 1e3 eps error and its error is fitted as given.
    """
    errors = dict(points)
    monkeypatch.setattr(oracle, "z_closed_form", lambda orders, table, lams: [
        SimpleNamespace(lam=lam, z_total=errors[lam], z2=0.0, tail_estimate=0.0) for lam in lams])
    monkeypatch.setattr(oracle, "oracle_sum_rule", lambda orders, table, lams: [
        SimpleNamespace(z0=0.0, tail_estimate=0.0) for _ in lams])
    table = build_sigma_table(ModeBasis(String1D(1.0), 4), COS2, 1)
    return convergence_order_fit(RationalOrderSpec.parse("3/2"), table, list(errors))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(1e-300, 1e300)), min_size=3, max_size=8,
                unique_by=lambda point: point[0]))
def test_convergence_fit_slope_is_polyfits_least_squares_line(points):
    # the closed-form slope sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2 is the estimator of a
    # degree-1 np.polyfit through (log lambda, log error).  They are compared relative to
    # sqrt(sum y^2 / sum (x - x_mean)^2), which bounds |slope| and scales polyfit's own rounding:
    # on equal errors the closed form gives 0.0 and polyfit about 3e-16
    lams = [lam for lam, _ in points]
    assume(max(lams) >= 1.1 * min(lams))  # polyfit's Vandermonde solve loses digits on clustered lambdas
    with pytest.MonkeyPatch.context() as monkeypatch:
        fit = fit_through(monkeypatch, points)
    points = sorted(points)
    x, y = np.log([lam for lam, _ in points]), np.log([err for _, err in points])
    scale = math.sqrt(np.sum(y**2) / np.sum((x - x.mean()) ** 2))
    assert isinstance(fit.slope, float)
    assert abs(fit.slope - np.polyfit(x, y, 1)[0]) <= 1e-12 * scale
    assert fit.pairs == tuple(points) and fit.excluded == ()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("at", [0, 2])
def test_convergence_fit_slope_is_not_finite_when_an_error_is_not_positive_and_finite(monkeypatch, bad, at):
    # log 0 is -inf and log inf is inf: the slope is NaN or infinite, with no ValueError and no
    # warning, so cmd_verify exits 3 on it
    errors = [1e-6, 8e-6, 6.4e-5]
    errors[at] = bad
    fit = fit_through(monkeypatch, list(zip([0.02, 0.04, 0.08], errors)))
    assert not math.isfinite(fit.slope)


def test_convergence_fit_slope_is_nan_when_the_lambdas_logs_round_to_one_value(monkeypatch):
    # three adjacent doubles near 1e299 (a profile of 1e-300 admits them) share one log: no line
    # runs through one abscissa, where polyfit's rank-deficient solve gave a finite slope (-0.009
    # and a FAIL verdict on such a verify run)
    lams = [1e299, 1.0000000000000002e299, 1.0000000000000004e299]
    assert len({math.log(lam) for lam in lams}) == 1
    fit = fit_through(monkeypatch, list(zip(lams, [1e-6, 8e-6, 6.4e-5])))
    assert math.isnan(fit.slope)
