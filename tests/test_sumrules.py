import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

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
    build_sigma_table,
)
from billzeta.coefficients import build_Q_series, q_generic_recursion
from billzeta.errors import ValidationError
from billzeta.oracle import convergence_order_fit, oracle_sum_rule, solve_spectrum
from billzeta.sumrules import (
    RationalOrderSpec,
    kernel_pairs,
    tail_estimate,
    z_closed_form,
    z_via_trace,
)

from reference import kernel_second_order, kernel_second_order_presplit
from test_basis import no_dense_power

COS2 = FourierCosine((0.0, 0.0, 1.0))
ZETA3 = 1.2020569031595942854
STRING = ModeBasis(String1D(1.0), 120)


def reference_table(m=120, profile=COS2):
    return build_sigma_table(ModeBasis(String1D(1.0), m), profile, 2)


# ---------------------------------------------------------------------------
# rational order bookkeeping
# ---------------------------------------------------------------------------


def test_order_spec_parse_and_labels():
    a = RationalOrderSpec.parse("1+1/4")
    assert a.kind == "one_plus_inv" and a.n_root == 4
    assert a.s == 1.25 and a.label() == "1+1/4"
    b = RationalOrderSpec.parse("1/2+1/3")
    assert b.kind == "inv_sum" and (b.n_root, b.n_root2) == (2, 3)
    assert b.fraction == Fraction(5, 6) and b.label() == "1/2+1/3"
    c = RationalOrderSpec.parse("3/2")
    assert c.kind == "one_plus_inv" and c.n_root == 2
    d = RationalOrderSpec.parse("1")
    assert d.kind == "inv_sum" and (d.n_root, d.n_root2) == (2, 2)
    e = RationalOrderSpec.parse("1.25")
    assert e.n_root == 4


def test_order_spec_rejections():
    with pytest.raises(ValidationError):
        RationalOrderSpec.parse("0.9")  # not 1/N + 1/N'
    with pytest.raises(ValidationError):
        RationalOrderSpec.parse("7/3")  # not 1 + 1/N
    with pytest.raises(ValidationError):
        RationalOrderSpec("one_plus_inv", 1)
    with pytest.raises(ValidationError):
        RationalOrderSpec("inv_sum", 2)


def test_order_spec_convergence_ranges():
    string = ModeBasis(String1D(1.0), 10)
    rect = ModeBasis(Rectangle2D(1.0, 1.0), 10)
    RationalOrderSpec("inv_sum", 2, 4).validate_for(string)  # s = 3/4 fine in 1D
    with pytest.raises(ValidationError):
        RationalOrderSpec("inv_sum", 2, 4).validate_for(rect)  # diverges in 2D
    with pytest.raises(ValidationError):
        RationalOrderSpec("inv_sum", 32, 64).validate_for(string)  # s < 1/2


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_examples():
    assert kernel_second_order(1.0, 4.0, 1.5) == pytest.approx(1.0 / 6.0, rel=1e-15)
    for a, b in ((1.0, 4.0), (2.2, 2.3), (5.0, 0.01)):
        assert kernel_second_order(a, b, 1.0) == 0.0
    # cross-check against the pre-split identity preK = a^-s + b^-s + 4K
    for s in (0.75, 1.125, 1.5, 2.0):
        for a, b in ((1.0, 2.0), (3.0, 300.0), (7.0, 7.0000001)):
            pre = kernel_second_order_presplit(a, b, s)
            assert pre == pytest.approx(
                a ** (-s) + b ** (-s) + 4 * kernel_second_order(a, b, s), rel=1e-12
            )


def test_kernel_symmetry_bitexact():
    for s in (0.75, 1.5):
        for a, b in ((1.0, 4.0), (2.0, 2.0 + 1e-9), (0.02, 9000.0)):
            assert kernel_second_order(a, b, s) == kernel_second_order(b, a, s)
    # each unordered pair is evaluated once; the tied pair gets the diagonal limit exactly
    eps = np.array([1.0, 2.0, 2.0, 50.0])
    band = [kernel_pairs(eps[: eps.size - d], eps[d:], 1.25) for d in range(4)]
    assert band[1][1] == band[0][1] == band[0][2] == 0.25 * 2.0 ** -1.25


def test_kernel_band_matches_scalar():
    eps = np.array([1.0, 1.0 + 1e-14, 3.7, 88.0])
    band = [kernel_pairs(eps[: eps.size - d], eps[d:], 1.125) for d in range(4)]
    for i in range(4):
        for j in range(4):
            lo, hi = min(i, j), max(i, j)
            assert band[hi - lo][lo] == pytest.approx(
                kernel_second_order(eps[i], eps[j], 1.125), rel=1e-14
            )
    assert [k.size for k in band] == [4, 3, 2, 1]  # nothing past the end


def test_kernel_band_matches_decimal_reference_near_s_one():
    # 50-digit reference for exactly these float inputs; the direct difference
    # (lo^{1-s} - hi^{1-s})/(hi - lo) cancels as s -> 1 and misses 2e-15
    s = 1.0 + 1.0 / 64.0
    eps = (np.arange(1, 41) * np.pi) ** 2
    band = [kernel_pairs(eps[: eps.size - d], eps[d:], s) for d in range(eps.size)]
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        one_minus_s = 1 - Decimal(s)
        pw = [(Decimal(e).ln() * one_minus_s).exp() for e in eps]
        for i in range(eps.size):
            for j in range(i + 1, eps.size):
                ref = (pw[i] - pw[j]) / (Decimal(eps[j]) - Decimal(eps[i]))
                worst = max(worst, abs(float((Decimal(band[j - i][i]) - ref) / ref)))
    assert worst <= 2e-15


@pytest.mark.parametrize("basis, profile", [
    (ModeBasis(String1D(1.0), 40), COS2),
    (ModeBasis(Rectangle2D(1.0, 1.0), 40), Separable2D(((COS2, COS2),))),  # degenerate pairs
])
def test_closed_form_z2_equals_explicit_double_sum(basis, profile):
    s, lam = 1.5, 0.1
    table = build_sigma_table(basis, profile, 2)
    s1 = table.power(1)
    eps = basis.eigenvalues()
    total = 0.0
    for n in range(eps.size):
        for m in range(eps.size):
            k = (s - 1) * eps[n] ** (-s) if n == m else kernel_second_order(eps[n], eps[m], s)
            total += k * s1[n, m] * s1[m, n]
    expected = 0.5 * lam * lam * s * total
    z2 = z_closed_form([s], table, basis, [DensityPerturbation(profile, lam)])[0].z2
    assert z2 == pytest.approx(expected, rel=1e-14)


def dense_kernel(eps, s):
    """Reference: K on every pair (lo, hi) by the expm1/log1p formula, the diagonal by its limit."""
    lo = np.minimum.outer(eps, eps)
    h = (np.maximum.outer(eps, eps) - lo) / lo
    with np.errstate(divide="ignore", invalid="ignore"):
        k = lo ** (-s) * (-np.expm1((1.0 - s) * np.log1p(h))) / h
    return np.where(h <= 1e-12, (s - 1.0) * lo ** (-s), k)


@pytest.mark.parametrize("coeffs", [
    (0.0, 0.0, 1.0),
    (0.3, 0.1, 0.0, -0.2, 0.0, 0.05),
    tuple(0.004 * (k % 5 - 2) for k in range(41)),  # band 40: wider than M for M <= 41
])
@pytest.mark.parametrize("m", [1, 2, 30, 1500])
def test_banded_closed_form_matches_dense_sum(coeffs, m):
    profile = FourierCosine(coeffs)
    basis = ModeBasis(String1D(1.0), m)
    table = build_sigma_table(basis, profile, 2)
    s1 = table.power(1)
    eps = basis.eigenvalues()
    orders = [1.5, 1.125, 5.0 / 6.0]
    densities = [DensityPerturbation(profile, lam) for lam in (0.1, -0.15)]
    results = z_closed_form(orders, table, basis, densities)
    for i, s in enumerate(orders):
        dense_sum = float(np.sum(dense_kernel(eps, s) * s1 * s1))
        for density, res in zip(densities, results[2 * i : 2 * i + 2]):
            lam = density.lam
            assert res.z1 == lam * s * float(np.sum(np.diag(s1) * eps ** (-s)))
            assert res.z2 == pytest.approx(0.5 * lam * lam * s * dense_sum, rel=1e-14, abs=0.0)


def test_closed_form_working_set_is_one_row_block_of_pairs():
    # a dense S_1 (a polynomial string, not mirror-even) lists every pair m >= n, yet the
    # route holds only one row block's couplings at a time: O(ROW_BLOCK M), a few per cent
    # of M^2 here
    import tracemalloc

    m = 2000
    profile = Polynomial((0.3, 1.0, -0.5))
    basis = ModeBasis(String1D(1.0), m)
    table = build_sigma_table(basis, profile, 2)
    assert table._couplings(1, np.array([m - 1]))[0].size == 1 and table._couplings(1, np.array([0]))[0].size == m
    densities = [DensityPerturbation(profile, lam) for lam in (0.02, 0.04, 0.08, 0.16)]
    tracemalloc.start()
    try:
        with no_dense_power():
            results = z_closed_form([1.5, 1.125, 5.0 / 6.0], table, basis, densities)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 12 and all(r.z2 != 0.0 for r in results)
    assert peak < 12 * ROW_BLOCK * m * 8


def test_banded_closed_form_zero_profile_keeps_signed_zeros():
    zero = FourierCosine(())
    basis = ModeBasis(String1D(1.0), 50)
    table = build_sigma_table(basis, zero, 2)
    for lam in (0.3, -0.3, 0.0):
        res = z_closed_form([1.5], table, basis, [DensityPerturbation(zero, lam)])[0]
        for value in (res.z1, res.z2):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_presplit_diagonal_limit():
    # 2(2s-1) eps^-s, numerically from both sides at eps_m = eps_n (1 +- 1e-6)
    for s in (0.75, 1.5):
        for e in (1.0, 13.0):
            limit = 2 * (2 * s - 1) * e ** (-s)
            up = kernel_second_order_presplit(e, e * (1 + 1e-6), s)
            dn = kernel_second_order_presplit(e, e * (1 - 1e-6), s)
            assert up == pytest.approx(limit, rel=1e-5)
            assert dn == pytest.approx(limit, rel=1e-5)
            assert kernel_second_order_presplit(e, e, s) == pytest.approx(limit, rel=1e-14)


def test_kernel_regularity_error_is_linear_in_h():
    s, e = 1.5, 1.0
    limit = 2 * (2 * s - 1) * e ** (-s)
    hs = np.array([1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    errs = np.array(
        [abs(kernel_second_order_presplit(e, e * (1 + h), s) - limit) for h in hs]
    )
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.9 < slope < 1.1


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def test_tail_1d_closed_form():
    basis = ModeBasis(String1D(1.0), 1000)
    tail = tail_estimate(basis, 1.5, 1000)
    assert tail == pytest.approx(math.pi**-3 / (2 * 1000.5**2), rel=1e-14)


def test_tail_large_s_underflows_to_zero():
    basis = ModeBasis(String1D(1.0), 100)
    assert tail_estimate(basis, 10.0, 100) < 1e-30


def test_tail_2d_monotone_to_zero():
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 4000)
    tails = [tail_estimate(basis, 1.25, m) for m in (100, 400, 1600, 4000)]
    assert all(t > 0 for t in tails)
    assert tails == sorted(tails, reverse=True)


def test_tail_rejects_divergent():
    with pytest.raises(ValidationError):
        tail_estimate(ModeBasis(String1D(1.0), 10), 0.5, 10)
    with pytest.raises(ValidationError):
        tail_estimate(ModeBasis(Rectangle2D(1.0, 1.0), 10), 1.0, 10)


def test_tail_2d_tracks_true_remainder():
    # +-50% contract, checked against exact lattice enumeration
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 4000)
    big = ModeBasis(Rectangle2D(1.0, 1.0), 200000)
    eigs = big.eigenvalues()
    for m, s in ((500, 1.5), (2000, 1.25)):
        exact = float(np.sum(eigs[m:] ** (-s))) + tail_estimate(big, s, 200000)
        est = tail_estimate(basis, s, m)
        assert abs(est - exact) < 0.5 * exact


# ---------------------------------------------------------------------------
# closed form and traces
# ---------------------------------------------------------------------------


def test_closed_form_homogeneous_anchor():
    basis = ModeBasis(String1D(1.0), 400)
    zero = DensityPerturbation(FourierCosine(()), 0.0)
    table = build_sigma_table(basis, zero, 2)
    res = z_closed_form([1.5], table, basis, [zero])[0]
    assert res.z1 == 0.0 and res.z2 == 0.0
    assert abs(res.z_total - ZETA3 / math.pi**3) <= 2 * res.tail_estimate


def test_closed_form_lambda_zero():
    basis = ModeBasis(String1D(1.0), 60)
    dens = DensityPerturbation(COS2, 0.0)
    table = build_sigma_table(basis, dens, 2)
    res = z_closed_form([RationalOrderSpec.parse("3/2")], table, basis, [dens])[0]
    assert res.z1 == 0.0 and res.z2 == 0.0


def test_first_order_sign_for_added_mass():
    # sigma(x) = sin^2(pi x) = 1/2 - cos(2 pi x)/2 >= 0: mass added, Z^(1) > 0
    profile = FourierCosine((0.5, 0.0, -0.5))
    basis = ModeBasis(String1D(1.0), 80)
    dens = DensityPerturbation(profile, 0.2)
    table = build_sigma_table(basis, dens, 2)
    for order in ("3/2", "1", "5/4"):
        res = z_closed_form([RationalOrderSpec.parse(order)], table, basis, [dens])[0]
        assert res.z1 > 0.0


def test_result_invariants():
    basis = ModeBasis(String1D(1.0), 60)
    dens = DensityPerturbation(COS2, 0.1)
    table = build_sigma_table(basis, dens, 2)
    res = z_closed_form([RationalOrderSpec.parse("3/2")], table, basis, [dens])[0]
    assert res.z_total == res.z0 + res.z1 + res.z2
    assert res.tail_estimate >= 0.0
    assert res.order_label == "1+1/2"
    assert res.truncation == 60


def test_route_agreement_one_plus_inv():
    dens = DensityPerturbation(COS2, 0.1)
    table = reference_table()
    for n in (2, 3, 4):
        spec = RationalOrderSpec("one_plus_inv", n)
        closed = z_closed_form([spec], table, STRING, [dens])[0]
        trace = z_via_trace([spec], table, STRING, [dens])[0]
        assert abs(closed.z_total - trace.z_total) <= 1e-9 * abs(closed.z_total)
        # order-by-order agreement, not only the total
        assert trace.z0 == pytest.approx(closed.z0, rel=1e-13)
        assert trace.z1 == pytest.approx(closed.z1, rel=1e-12)
        assert trace.z2 == pytest.approx(closed.z2, rel=1e-10)


def test_route_agreement_inv_sum():
    dens = DensityPerturbation(COS2, 0.1)
    table = reference_table()
    for n, n2 in ((2, 2), (2, 3), (2, 4), (3, 4)):
        spec = RationalOrderSpec("inv_sum", n, n2)
        closed = z_closed_form([spec], table, STRING, [dens])[0]
        trace = z_via_trace([spec], table, STRING, [dens])[0]
        assert abs(closed.z_total - trace.z_total) <= 1e-9 * abs(closed.z_total)


def test_route_agreement_2d_one_plus_inv():
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 400)
    prof = Separable2D(((COS2, COS2),))
    dens = DensityPerturbation(prof, 0.1)
    table = build_sigma_table(basis, prof, 2)
    spec = RationalOrderSpec("one_plus_inv", 4)
    closed = z_closed_form([spec], table, basis, [dens])[0]
    trace = z_via_trace([spec], table, basis, [dens])[0]
    assert abs(closed.z_total - trace.z_total) <= 1e-9 * abs(closed.z_total)


def test_trace_zero_profile_reduces_to_plain_sum():
    zero = DensityPerturbation(FourierCosine(()), 0.0)
    table = build_sigma_table(STRING, zero, 2)
    res = z_via_trace([RationalOrderSpec("one_plus_inv", 3)], table, STRING, [zero])[0]
    eps = STRING.eigenvalues()
    expected = float(np.sum(eps ** (-4.0 / 3.0))) + res.tail_estimate
    assert res.z_total == pytest.approx(expected, rel=1e-14)
    assert res.z1 == 0.0 and res.z2 == 0.0


def test_trace_route_forms_no_order_two_matrix():
    # Q^(1), the live q^(1) and one temporary; a dense order-2 matrix or its
    # lambda^2 convolution would add at least one more
    import tracemalloc

    m = 400
    basis = ModeBasis(Rectangle2D(1.0, 1.3), m)
    prof = Separable2D(((COS2, COS2),))
    table = build_sigma_table(basis, prof, 2)
    basis.eigenvalues()
    # a long order list given twice holds no more: each q set goes once no later order needs it
    for roots in ((2, 8), tuple(range(2, 9)) * 2):
        specs = [RationalOrderSpec("one_plus_inv", n) for n in roots]
        tracemalloc.start()
        try:
            results = z_via_trace(specs, table, basis, [DensityPerturbation(prof, 0.1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * m * 8
    assert [r.order_label for r in results] == [spec.label() for spec in specs]
    assert results[:7] == results[7:]  # one trace per distinct order, mapped back to each


def dense_trace_reference(spec, table, basis, lam):
    """(z0, z1, z2) of the trace route from the dense series: build_Q_series + q_generic_recursion."""
    series = build_Q_series(2, table, basis)
    roots = (1, spec.n_root) if spec.kind == "one_plus_inv" else (spec.n_root, spec.n_root2)
    a, b = (series if n == 1 else q_generic_recursion(n, series, basis).q_orders for n in roots)
    eps, s = basis.eigenvalues(), spec.s
    s1 = table.power(1)
    deficit = np.diagonal(table.power(2)) - np.sum(s1 * s1, axis=1)
    t0 = np.trace(a[0] @ b[0])
    t1 = np.trace(a[0] @ b[1]) + np.trace(a[1] @ b[0])
    t2 = np.vdot(a[1], b[1]) + np.trace(a[2] @ b[0]) + np.trace(a[0] @ b[2])
    t2 += 0.25 * s * np.sum(deficit * eps ** (-s))
    return t0 + tail_estimate(basis, s), lam * t1, lam * lam * t2


BLOCK_SIZES = (1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3)
TRACE_ORDERS = {
    "one_plus_inv": ("1+1/2", "1+1/3", "1+1/8"),
    "inv_sum": ("1/2+1/3", "1/3+1/4", "1/2+1/2"),
}


@pytest.mark.parametrize("m", BLOCK_SIZES)
@pytest.mark.parametrize("kind, profile", [
    ("string", FourierCosine((0.1, -0.3, 0.2, 0.0, 0.05))),
    ("string", Polynomial((0.0, 4.0, -4.0))),
    ("rectangle", Separable2D(((Polynomial((0.0, 4.0, -4.0)), COS2),))),
], ids=["cosine-string", "polynomial-string", "rectangle"])
def test_trace_row_blocks_match_the_dense_series(kind, profile, m):
    domain = String1D(1.0) if kind == "string" else Rectangle2D(1.0, 1.3)
    basis = ModeBasis(domain, m)
    table = build_sigma_table(basis, profile, 2)
    density = DensityPerturbation(profile, 0.1)
    order_kinds = TRACE_ORDERS if kind == "string" else {"one_plus_inv": TRACE_ORDERS["one_plus_inv"]}
    specs = [RationalOrderSpec.parse(label) for labels in order_kinds.values() for label in labels]
    with no_dense_power():  # the route reads S_1 by row blocks only
        results = z_via_trace(specs, table, basis, [density])
    for spec, res in zip(specs, results):
        expected = dense_trace_reference(spec, table, basis, density.lam)
        scale = abs(sum(expected))
        for got, want in zip((res.z0, res.z1, res.z2), expected):
            assert abs(got - want) <= 1e-14 * scale


POLY = Polynomial((0.0, 4.0, -4.0))
ONE = FourierCosine((1.0,))
COUPLING_CASES = {  # the couplings of S_1: banded, dense, sparse 2D, dense x sparse, two terms
    "cosine-string": (String1D(1.0), COS2),
    "polynomial-string": (String1D(1.0), POLY),
    "cosine-rectangle": (Rectangle2D(1.0, 1.3), Separable2D(((COS2, COS2),))),
    "polynomial-x-cosine": (Rectangle2D(1.0, 1.3), Separable2D(((POLY, COS2),))),
    "two-terms": (Rectangle2D(1.0, 1.0), Separable2D(((COS2, ONE), (ONE, FourierCosine((0.2, 0.0, 0.5)))))),
}


def dense_z2_sum(s1, eps, s):
    """sum_{n, m} K(eps_n, eps_m; s) S_1[n, m]^2 from the dense S_1, a few hundred rows at a time."""
    total = 0.0
    for lo in range(0, eps.size, 500):
        rows = slice(lo, lo + 500)
        small, large = np.minimum.outer(eps[rows], eps), np.maximum.outer(eps[rows], eps)
        h = (large - small) / small
        with np.errstate(divide="ignore", invalid="ignore"):
            k = small ** (-s) * (-np.expm1((1.0 - s) * np.log1p(h))) / h
        k = np.where(h <= 1e-12, (s - 1.0) * small ** (-s), k)
        total += float(np.sum(k * s1[rows] ** 2))
    return total


@pytest.mark.parametrize("m", [1, ROW_BLOCK + 1, 3000])
@pytest.mark.parametrize("case", sorted(COUPLING_CASES))
def test_closed_form_over_couplings_matches_the_dense_sum(case, m):
    domain, profile = COUPLING_CASES[case]
    basis = ModeBasis(domain, m)
    table = build_sigma_table(basis, profile, 2)
    densities = [DensityPerturbation(profile, lam) for lam in (0.05, -0.1)]
    orders = [1.5, 1.125] + ([5.0 / 6.0] if basis.dimension == 1 else [])
    with no_dense_power():  # read as couplings, never dense
        results = z_closed_form(orders, table, basis, densities)
    eps, s1 = basis.eigenvalues(), table.power(1)
    for i, s in enumerate(orders):
        dense = 0.5 * s * dense_z2_sum(s1, eps, s)
        for density, res in zip(densities, results[2 * i : 2 * i + 2]):
            assert res.z2 == pytest.approx(density.lam**2 * dense, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [1, ROW_BLOCK + 1, 300])
@pytest.mark.parametrize("case", sorted(COUPLING_CASES))
def test_trace_route_over_couplings_matches_the_dense_series(case, m):
    domain, profile = COUPLING_CASES[case]
    basis = ModeBasis(domain, m)
    table = build_sigma_table(basis, profile, 2)
    density = DensityPerturbation(profile, 0.1)
    labels = ("1+1/2", "1+1/8", "1+1/64") + (("1/2+1/3",) if basis.dimension == 1 else ())
    specs = [RationalOrderSpec.parse(label) for label in labels]
    with no_dense_power():
        results = z_via_trace(specs, table, basis, [density])
    for spec, res in zip(specs, results):
        expected = dense_trace_reference(spec, table, basis, density.lam)
        for got, want in zip((res.z0, res.z1, res.z2), expected):
            assert abs(got - want) <= 1e-14 * abs(res.z_total)


def test_rectangle_trace_route_peaks_below_half_a_dense_matrix():
    # the rectangle table holds side factors and the route reads S_1 in row blocks
    import tracemalloc

    m = 1500
    profile = Separable2D(((Polynomial((0.0, 4.0, -4.0)), COS2),))
    basis = ModeBasis(Rectangle2D(1.0, 1.3), m)
    basis.mode_indices()  # memoized enumeration, not part of the route
    tracemalloc.start()
    try:
        table = build_sigma_table(basis, profile, 2)
        with no_dense_power():
            z_via_trace([RationalOrderSpec.parse("1+1/2")], table, basis, [DensityPerturbation(profile, 0.1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * m * m * 8


def test_trace_route_needs_a_second_power():
    basis = ModeBasis(String1D(1.0), 5)
    table = build_sigma_table(basis, COS2, 1)
    with pytest.raises(ValidationError):
        z_via_trace([RationalOrderSpec("one_plus_inv", 2)], table, basis, [DensityPerturbation(COS2, 0.1)])


def test_trace_inv_sum_rejects_2d():
    rect = ModeBasis(Rectangle2D(1.0, 1.0), 20)
    prof = Separable2D(((COS2, COS2),))
    dens = DensityPerturbation(prof, 0.05)
    table = build_sigma_table(rect, prof, 2)
    with pytest.raises(ValidationError):
        z_via_trace([RationalOrderSpec("inv_sum", 2, 2)], table, rect, [dens])


def test_closed_form_rejects_bad_inputs():
    dens = DensityPerturbation(COS2, 0.1)
    table = build_sigma_table(ModeBasis(String1D(1.0), 20), dens, 1)
    with pytest.raises(ValidationError):
        z_closed_form([1.5], table, ModeBasis(String1D(1.0), 20), [dens])  # J < 2
    table2 = build_sigma_table(ModeBasis(String1D(1.0), 20), dens, 2)
    with pytest.raises(ValidationError):
        z_closed_form([0.4], table2, ModeBasis(String1D(1.0), 20), [dens])  # divergent
    bad = DensityPerturbation(COS2, 1.01)
    with pytest.raises(ValidationError):
        z_closed_form([1.5], table2, ModeBasis(String1D(1.0), 20), [bad])


ALL_ORDERS = "3/2,1+1/4,1/2+1/3"


@pytest.mark.parametrize(
    "route, order",
    [("closed", "3/2"), ("trace", "1+1/4"), ("trace", "1/2+1/3"), ("oracle", "3/2"),
     ("closed", ALL_ORDERS), ("trace", ALL_ORDERS), ("oracle", ALL_ORDERS)],
)
def test_route_over_densities_equals_single_density_calls(route, order):
    basis = ModeBasis(String1D(1.0), 60)
    table = reference_table(60)
    specs = [RationalOrderSpec.parse(o) for o in order.split(",")]
    call = {
        "closed": lambda os, ds: z_closed_form(os, table, basis, ds),
        "trace": lambda os, ds: z_via_trace(os, table, basis, ds),
        "oracle": lambda os, ds: oracle_sum_rule(os, table, basis, ds),
    }[route]
    densities = [DensityPerturbation(COS2, lam) for lam in (0.0, 0.05, -0.1)]
    results = call(specs, densities)
    # order-major: every density of one order before the next order
    assert [(r.order_label, r.lam) for r in results] == [
        (spec.label(), lam) for spec in specs for lam in (0.0, 0.05, -0.1)
    ]
    # every field, exactly; across orders this covers shared and released q sets
    assert results == [call([spec], [d])[0] for spec in specs for d in densities]


def test_route_validates_every_density():
    basis = ModeBasis(String1D(1.0), 20)
    table = reference_table(20)
    densities = [DensityPerturbation(COS2, 0.1), DensityPerturbation(COS2, 1.01)]
    spec = RationalOrderSpec.parse("3/2")
    for route in (z_closed_form, z_via_trace, oracle_sum_rule):
        with pytest.raises(ValidationError):
            route([spec], table, basis, densities)


def test_route_validates_every_order():
    basis = ModeBasis(String1D(1.0), 20)
    table = reference_table(20)
    densities = [DensityPerturbation(COS2, 0.1)]
    specs = [RationalOrderSpec.parse("3/2"), RationalOrderSpec("inv_sum", 4, 8)]  # s = 3/8
    for route in (z_closed_form, z_via_trace, oracle_sum_rule):
        with pytest.raises(ValidationError, match="diverges"):
            route(specs, table, basis, densities)


@pytest.mark.parametrize("order", [1.5, Fraction(3, 2), "1+1/2"])
def test_trace_route_rejects_plain_number_orders(order):
    # the closed form and the oracle take a number for s; the trace route needs the
    # decomposition, and names the order it cannot read
    specs = [RationalOrderSpec.parse("1+1/4"), order]
    density = DensityPerturbation(COS2, 0.1)
    with pytest.raises(ValidationError, match=re.escape(repr(order))):
        z_via_trace(specs, reference_table(20), ModeBasis(String1D(1.0), 20), [density])


@pytest.mark.parametrize("modes", [10, 30])
def test_a_table_serves_exactly_its_basis(modes):
    # a 20-mode table with a smaller or a larger basis: every function that takes both
    # raises before any work, where it used to index past the table or cut the sums short
    table = reference_table(20)
    basis = ModeBasis(String1D(1.0), modes)
    spec = RationalOrderSpec.parse("3/2")
    densities = [DensityPerturbation(COS2, lam) for lam in (0.04, 0.08, 0.16)]
    calls = {
        "closed form": lambda: z_closed_form([spec], table, basis, densities),
        "trace": lambda: z_via_trace([spec], table, basis, densities),
        "oracle": lambda: oracle_sum_rule([spec], table, basis, densities),
        "spectrum": lambda: solve_spectrum(basis, densities[0], table=table),
        "Q series": lambda: build_Q_series(2, table, basis),
        "fit": lambda: convergence_order_fit(spec, table, basis, densities),
    }
    for name, call in calls.items():
        with pytest.raises(ValidationError, match=f"table of 20 modes cannot serve a basis of {modes}"):
            call()
