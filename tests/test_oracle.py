import math
import re

import numpy as np
import pytest

from billzeta.basis import (
    DensityPerturbation,
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    String1D,
    build_sigma_table,
)
from billzeta.errors import (
    FactorizationError,
    InsufficientDataError,
    NumericalError,
    ValidationError,
)
from billzeta.oracle import (
    GeneralizedProblem,
    assemble,
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
ZETA3 = 1.2020569031595942854


def overlap(basis, density):
    """S = I + lam * S_1, formed from the table apart from assemble: an independent reference."""
    s1 = build_sigma_table(basis, density, 1).power(1)
    return np.eye(basis.mode_count) + density.lam * s1


def test_assemble_pattern():
    basis = ModeBasis(String1D(1.0), 4)
    dens = DensityPerturbation(COS2, 0.1)
    s = overlap(basis, dens)
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
def test_assemble_grades_the_overlap_bit_for_bit(profile, lam):
    # B = r S r with r = K^-1/2, graded in place from a fresh S_1: the bits of grading the
    # reference S, signed zeros included
    basis = ModeBasis(String1D(1.0), 30)
    density = DensityPerturbation(profile, lam)
    problem = assemble(basis, density)
    r = 1.0 / np.sqrt(basis.eigenvalues())
    expected = r[:, None] * overlap(basis, density) * r[None, :]
    assert problem.graded.tobytes() == expected.tobytes()
    # a larger table's S_1 is cut to the basis size
    larger = build_sigma_table(ModeBasis(String1D(1.0), 45), profile, 1)
    expected = r[:, None] * (np.eye(30) + lam * larger.power(1)[:30, :30]) * r[None, :]
    assert assemble(basis, density, table=larger).graded.tobytes() == expected.tobytes()


def test_homogeneous_spectrum_exact():
    basis = ModeBasis(String1D(1.0), 5)
    zero = DensityPerturbation(FourierCosine(()), 0.0)
    values = solve_spectrum(assemble(basis, zero))
    expected = np.array([1, 4, 9, 16, 25]) * math.pi**2
    assert np.max(np.abs(values - expected) / expected) < 1e-12


def test_spectrum_positive_and_sorted():
    basis = ModeBasis(String1D(1.0), 60)
    dens = DensityPerturbation(COS2, 0.3)
    values = solve_spectrum(assemble(basis, dens))
    assert np.all(values > 0.0)
    assert np.all(np.diff(values) > 0.0)


def test_small_lambda_limit_linear():
    basis = ModeBasis(String1D(1.0), 40)
    eps = basis.eigenvalues()
    devs = []
    lams = (0.01, 0.02, 0.04)
    for lam in lams:
        values = solve_spectrum(assemble(basis, DensityPerturbation(COS2, lam)))
        devs.append(np.max(np.abs(values - eps) / eps))
    slope = np.polyfit(np.log(lams), np.log(devs), 1)[0]
    assert 0.9 < slope < 1.1


def test_first_order_eigenvalue_shift():
    # (E_1 - eps_1)/eps_1 ~ -lam <1|sigma|1> = +lam/2 for sigma = cos(2 pi x)
    basis = ModeBasis(String1D(1.0), 60)
    lam = 1e-3
    values = solve_spectrum(assemble(basis, DensityPerturbation(COS2, lam)))
    eps1 = basis.eigenvalues()[0]
    shift = (values[0] - eps1) / eps1
    assert shift == pytest.approx(lam / 2, rel=1e-2)


def test_residual_invariant():
    basis = ModeBasis(String1D(1.0), 80)
    dens = DensityPerturbation(COS2, 0.2)
    problem = assemble(basis, dens)
    values, vectors = solve_spectrum(problem, want_vectors=True)
    assert np.max(residual_norms(problem, values, vectors)) < 1e-10


def test_residuals_at_400_modes_match_the_reference_overlap():
    # residual_norms reads S c from the graded pencil; about 2.6e-11 here
    basis = ModeBasis(String1D(1.0), 400)
    dens = DensityPerturbation(COS2, 0.16)
    problem = assemble(basis, dens)
    values, vectors = solve_spectrum(problem, want_vectors=True)
    assert np.max(residual_norms(problem, values, vectors)) < 1e-10
    kc = basis.eigenvalues()[:, None] * vectors
    sc = overlap(basis, dens) @ vectors
    reference = np.linalg.norm(kc - values * sc, axis=0) / np.linalg.norm(kc, axis=0)
    assert np.max(reference) < 1e-10


def test_oracle_holds_one_dense_matrix_per_solve():
    # the pencil is graded in place from a fresh S_1, so tracemalloc sees one M x M array
    # per solve (LAPACK's copy is not traced)
    import tracemalloc

    m = 400
    orders = [RationalOrderSpec.parse("3/2")]
    densities = [DensityPerturbation(COS2, lam) for lam in (0.08, 0.16)]
    small = ModeBasis(String1D(1.0), 8)
    oracle_sum_rule(orders, build_sigma_table(small, COS2, 2), small, densities)  # lazy imports
    basis = ModeBasis(String1D(1.0), m)
    table = build_sigma_table(basis, COS2, 2)
    tracemalloc.start()
    try:
        results = oracle_sum_rule(orders, table, basis, densities)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 2
    assert peak <= 1.5 * m * m * 8


def test_galerkin_monotone_in_truncation():
    dens = DensityPerturbation(COS2, 0.1)
    prev = None
    for m in (50, 100, 200):
        basis = ModeBasis(String1D(1.0), m)
        values = solve_spectrum(assemble(basis, dens))
        if prev is not None:
            assert np.all(values[: prev.size] - prev <= 1e-9)
        prev = values


def test_added_mass_lowers_every_eigenvalue():
    # sin^2(pi x) profile: nonnegative, so all eigenvalues must drop
    profile = FourierCosine((0.5, 0.0, -0.5))
    basis = ModeBasis(String1D(1.0), 50)
    values = solve_spectrum(assemble(basis, DensityPerturbation(profile, 0.4)))
    assert np.all(values < basis.eigenvalues())


def test_factorization_error_names_density_bound():
    basis = ModeBasis(String1D(1.0), 3)
    r = 1.0 / np.sqrt(basis.eigenvalues())
    indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    bad = GeneralizedProblem(
        basis.eigenvalues(),
        r[:, None] * indefinite * r[None, :],
        basis,
        DensityPerturbation(COS2, 0.9),
    )
    with pytest.raises(FactorizationError, match="lambda\\*sigma"):
        solve_spectrum(bad)


def test_kept_spectrum_matches_cholesky_reference():
    # test-only reference: S = L L^T, eigenvalues of L^-1 K L^-T
    basis = ModeBasis(String1D(1.0), 200)
    dens = DensityPerturbation(COS2, 0.16)
    problem = assemble(basis, dens)
    lower = np.linalg.cholesky(overlap(basis, dens))
    half = np.linalg.solve(lower, np.diag(problem.stiffness))
    reduced = np.linalg.solve(lower, half.T)
    reference = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    values = solve_spectrum(problem)
    kept = 150
    rel = np.abs(values[:kept] - reference[:kept]) / reference[:kept]
    assert np.max(rel) < 1e-11


def test_eigenvectors_are_overlap_orthonormal():
    basis = ModeBasis(String1D(1.0), 200)
    dens = DensityPerturbation(COS2, 0.16)
    _, vectors = solve_spectrum(assemble(basis, dens), want_vectors=True)
    gram = vectors.T @ overlap(basis, dens) @ vectors
    assert np.max(np.abs(gram - np.eye(200))) < 1e-10


@pytest.mark.parametrize("want_vectors", [False, True])
def test_nan_overlap_is_a_numerical_failure(want_vectors):
    basis = ModeBasis(String1D(1.0), 4)
    graded = np.diag(1.0 / basis.eigenvalues())
    graded[1, 2] = graded[2, 1] = np.nan
    bad = GeneralizedProblem(basis.eigenvalues(), graded, basis, DensityPerturbation(COS2, 0.1))
    with pytest.raises((NumericalError, FactorizationError)):
        solve_spectrum(bad, want_vectors=want_vectors)


def test_lapack_failure_is_a_numerical_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    basis = ModeBasis(String1D(1.0), 4)
    with pytest.raises(NumericalError, match="did not converge"):
        solve_spectrum(assemble(basis, DensityPerturbation(COS2, 0.1)))


def test_z_direct_homogeneous_anchor():
    basis = ModeBasis(String1D(1.0), 300)
    zero = DensityPerturbation(FourierCosine(()), 0.0)
    values = solve_spectrum(assemble(basis, zero))
    [(z, tail, kept)] = z_direct_detail(values, [1.5], basis, zero)
    assert kept == 225
    assert abs(z - ZETA3 / math.pi**3) <= 2 * tail


def test_z_direct_discard_sequence_cauchy():
    basis = ModeBasis(String1D(1.0), 200)
    dens = DensityPerturbation(COS2, 0.1)
    values = solve_spectrum(assemble(basis, dens))
    details = [
        z_direct_detail(values, [1.5], basis, dens, top_discard=d)[0]
        for d in (0.5, 0.25, 0.1)
    ]
    for (za, ta, _), (zb, tb, _) in zip(details, details[1:]):
        assert abs(za - zb) <= 2 * (ta + tb)


def test_z_direct_validation():
    basis = ModeBasis(String1D(1.0), 20)
    vals = basis.eigenvalues()
    with pytest.raises(ValidationError):
        z_direct_detail(vals, [0.3], basis)
    with pytest.raises(ValidationError):
        z_direct_detail(vals, [1.5], basis, top_discard=1.0)


def test_effective_geometry():
    dens = DensityPerturbation(COS2, 0.16)
    ell = effective_length(String1D(1.0), dens)
    # 1 - lam^2/16 - 15 lam^4/1024 + O(lam^6)
    assert ell == pytest.approx(1.0 - 0.16**2 / 16.0 - 15 * 0.16**4 / 1024.0, abs=5e-7)
    rect = Rectangle2D(1.0, 1.0)
    prof2 = Separable2D(((COS2, COS2),))
    dens2 = DensityPerturbation(prof2, 0.05)
    assert effective_area(rect, dens2) == pytest.approx(1.0, abs=1e-13)
    assert effective_perimeter(rect, dens2) == pytest.approx(
        4.0 * (1.0 - 0.05**2 / 16.0), abs=1e-6
    )


def test_oracle_sum_rule_record():
    basis = ModeBasis(String1D(1.0), 80)
    dens = DensityPerturbation(COS2, 0.1)
    table = build_sigma_table(basis, dens, 2)
    res = oracle_sum_rule([RationalOrderSpec.parse("3/2")], table, basis, [dens])[0]
    assert res.route == "oracle"
    assert res.z1 == 0.0 and res.z2 == 0.0
    assert res.z_total > 0.0 and res.tail_estimate > 0.0


def test_convergence_fit_insufficient_points():
    basis = ModeBasis(String1D(1.0), 40)
    table = build_sigma_table(basis, COS2, 2)
    densities = [DensityPerturbation(COS2, lam) for lam in (0.1, 0.2)]
    with pytest.raises(InsufficientDataError):
        convergence_order_fit(RationalOrderSpec.parse("3/2"), table, basis, densities)


def test_convergence_fit_first_order_slope_two():
    basis = ModeBasis(String1D(1.0), 120)
    fit = convergence_order_fit(
        RationalOrderSpec.parse("3/2"),
        build_sigma_table(basis, COS2, 2),
        basis,
        [DensityPerturbation(COS2, lam) for lam in (0.04, 0.08, 0.16)],
        drop_second_order=True,
    )
    assert 1.8 < fit.slope < 2.2


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
    densities = [DensityPerturbation(COS2, lam) for lam in lambdas]
    with pytest.raises(error, match=re.escape(named)):
        convergence_order_fit(RationalOrderSpec.parse("3/2"), table, basis, densities)
