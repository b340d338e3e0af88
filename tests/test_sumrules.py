import math
import re
import time
from decimal import Decimal, localcontext
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

from reference import kernel_second_order, kernel_second_order_presplit, order_roots
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
    assert a.roots == (1, 4)
    assert a.s == 1.25 and a.label() == "1+1/4"
    b = RationalOrderSpec.parse("1/2+1/3")
    assert b.roots == (2, 3)
    assert b.s == 5 / 6 and b.label() == "1/2+1/3"
    c = RationalOrderSpec.parse("3/2")
    assert c.roots == (1, 2)
    d = RationalOrderSpec.parse("1")
    assert d.roots == (2, 2)
    e = RationalOrderSpec.parse("1.25")
    assert e.roots == (1, 4)


def test_order_spec_rejections():
    with pytest.raises(ValidationError):
        RationalOrderSpec.parse("0.9")  # not 1/N + 1/N'
    with pytest.raises(ValidationError):
        RationalOrderSpec.parse("7/3")  # not 1 + 1/N
    with pytest.raises(ValidationError):
        RationalOrderSpec((1, 1))  # s = 2: the second root order is at least 2
    with pytest.raises(ValidationError):
        RationalOrderSpec((2,))


def _parsed(text):
    """parse's roots of text, or its problem's text."""
    try:
        return RationalOrderSpec.parse(text).roots
    except ValidationError as exc:
        return str(exc)


def _referenced(text):
    try:
        return order_roots(text)
    except ValidationError as exc:
        return str(exc)


_SIGN = st.sampled_from(["", "", "-"])
_RATIO = st.builds(lambda sign, p, q: f"{sign}{p}/{q}", _SIGN, st.integers(0, 130), st.integers(0, 130))
_TERMINATING = [1, 2, 4, 5, 8, 10, 16, 20, 25, 32, 40, 50, 64]  # 1/N has at most 6 decimal places


@st.composite
def _decimal(draw):
    """A signed decimal text with a bounded exponent, most often spelling some 1/a + 1/b exactly."""
    a = draw(st.sampled_from(_TERMINATING))
    b = draw(st.sampled_from(_TERMINATING) | st.integers(1, 70))
    value = Fraction(1, a) + Fraction(1, b)
    digits = str(value.numerator * 10**12 // value.denominator)  # value = digits e-12 when 1/b ends
    if draw(st.integers(0, 3)) == 0:
        digits = draw(st.text("0123456789", min_size=1, max_size=14))
    digits = "0" * draw(st.integers(0, 3)) + digits
    point = draw(st.integers(0, len(digits)))
    mantissa = f"{digits[:point]}.{digits[point:]}" if point < len(digits) or draw(st.booleans()) else digits
    exp = len(digits) - point - 12 + draw(st.sampled_from([0, 0, 0, 1, -3, 11]))
    exp_text = f"{draw(st.sampled_from('eE'))}{exp}" if exp or draw(st.booleans()) else ""
    return draw(_SIGN) + mantissa + exp_text


@st.composite
def _order_texts(draw):
    term = _RATIO | _decimal() | st.builds(str, st.integers(-2, 3))
    pair = st.builds(lambda a, b: f"1/{a}+1/{b}", st.integers(1, 70), st.integers(1, 70))
    return draw(pair | term | st.builds(lambda x, y: f"{x}+{y}", term, term))


@settings(max_examples=400, deadline=None)
@given(_order_texts())
def test_integer_parse_agrees_with_fraction_arithmetic(text):
    # the same roots, or the same problem text, as Fraction arithmetic on every bounded text
    assert _parsed(text) == _referenced(text)


def test_integer_parse_agrees_with_fraction_arithmetic_past_the_digit_limits():
    texts = [
        "1.25", "125e-2", "0.0125E2", ".75", "1.", "-0+1.5", "1/1+1/64", "3/000", "0e12+1.5", "2/4+2/6",
        "1e-4+1.5", "0.1e-320+1.5",  # a subnormal double is finite and nonzero: exact arithmetic reads it
        "0.125" + "0" * 4297 + "1",  # a denominator of 4301 digits: str's digit limit, in the message
        "0.1" + "0" * 4300 + "+1.5",  # a fraction part of 4301 digits: int's digit limit
        "1" + "0" * 4301 + "e-4301",  # an integer part of 4302 digits
        "1/2+1/" + "1" * 4301,
        "1e-" + "1" * 4301 + "+1.5",  # an exponent of 4301 digits
    ]
    for text in texts:
        assert _parsed(text) == _referenced(text), text


@pytest.mark.parametrize("text, problem", [
    ("0e10000000+1.5", "neither 1 + 1/N nor 1/N + 1/N'"),  # a zero mantissa is 0 whatever its exponent
    ("1e-10000000+1.5", "term '1e-10000000' is not 0, but its double is 0.0"),
    ("1e-300000000+1.5", "term '1e-300000000' is not 0, but its double is 0.0"),
])
def test_an_orders_exponent_cannot_stall_the_parser(text, problem):
    # 10**exp alone would take seconds (7.6 s at 1e-10000000): a zero mantissa and a double of 0
    # are settled before it
    start = time.perf_counter()
    with pytest.raises(ValidationError) as info:
        RationalOrderSpec.parse(text)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == f"order {text!r}: {problem}"


def test_order_spec_convergence_ranges():
    string = ModeBasis(String1D(1.0), 10)
    rect = ModeBasis(Rectangle2D(1.0, 1.0), 10)
    RationalOrderSpec((2, 4)).validate_for(string)  # s = 3/4 fine in 1D
    with pytest.raises(ValidationError):
        RationalOrderSpec((2, 4)).validate_for(rect)  # diverges in 2D
    with pytest.raises(ValidationError):
        RationalOrderSpec((32, 64)).validate_for(string)  # s < 1/2


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
    z2 = z_closed_form([s], table, [lam])[0].z2
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
    lams = [0.1, -0.15]
    results = z_closed_form(orders, table, lams)
    for i, s in enumerate(orders):
        dense_sum = float(np.sum(dense_kernel(eps, s) * s1 * s1))
        for lam, res in zip(lams, results[2 * i : 2 * i + 2]):
            assert res.z1 == lam * (s * float(np.sum(np.diag(s1) * eps ** (-s))))
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
    tracemalloc.start()
    try:
        with no_dense_power():
            results = z_closed_form([1.5, 1.125, 5.0 / 6.0], table, [0.02, 0.04, 0.08, 0.16])
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
        res = z_closed_form([1.5], table, [lam])[0]
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


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("domain, profile", [
    (String1D(1.0), COS2), (Rectangle2D(1.0, 1.0), Separable2D(((COS2, COS2),))),
], ids=["string", "rectangle"])
def test_a_non_finite_order_is_rejected(domain, profile, s):
    # nan <= 1/2 is False: a non-finite s is refused by name, not summed to NaN records
    basis = ModeBasis(domain, 10)
    table = build_sigma_table(basis, profile, 2)
    calls = [lambda: tail_estimate(basis, s), lambda: z_closed_form([s], table, [0.1]),
             lambda: oracle_sum_rule([s], table, [0.1])]
    for call in calls:
        with pytest.raises(ValidationError, match=f"s = {s} is not finite"):
            call()


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
    table = build_sigma_table(basis, FourierCosine(()), 2)
    res = z_closed_form([1.5], table, [0.0])[0]
    assert res.z1 == 0.0 and res.z2 == 0.0
    assert abs(res.z_total - ZETA3 / math.pi**3) <= 2 * res.tail_estimate


def test_closed_form_lambda_zero():
    basis = ModeBasis(String1D(1.0), 60)
    table = build_sigma_table(basis, COS2, 2)
    res = z_closed_form([RationalOrderSpec.parse("3/2")], table, [0.0])[0]
    assert res.z1 == 0.0 and res.z2 == 0.0


def test_first_order_sign_for_added_mass():
    # sigma(x) = sin^2(pi x) = 1/2 - cos(2 pi x)/2 >= 0: mass added, Z^(1) > 0
    profile = FourierCosine((0.5, 0.0, -0.5))
    basis = ModeBasis(String1D(1.0), 80)
    table = build_sigma_table(basis, profile, 2)
    for order in ("3/2", "1", "5/4"):
        res = z_closed_form([RationalOrderSpec.parse(order)], table, [0.2])[0]
        assert res.z1 > 0.0


def test_result_invariants():
    basis = ModeBasis(String1D(1.0), 60)
    table = build_sigma_table(basis, COS2, 2)
    res = z_closed_form([RationalOrderSpec.parse("3/2")], table, [0.1])[0]
    assert res.z_total == res.z0 + res.z1 + res.z2
    assert res.tail_estimate >= 0.0
    assert res.order_label == "1+1/2"
    assert res.truncation == 60


def test_route_agreement_one_plus_inv():
    table = reference_table()
    for n in (2, 3, 4):
        spec = RationalOrderSpec((1, n))
        closed = z_closed_form([spec], table, [0.1])[0]
        trace = z_via_trace([spec], table, [0.1])[0]
        assert abs(closed.z_total - trace.z_total) <= 1e-9 * abs(closed.z_total)
        # order-by-order agreement, not only the total
        assert trace.z0 == pytest.approx(closed.z0, rel=1e-13)
        assert trace.z1 == pytest.approx(closed.z1, rel=1e-12)
        assert trace.z2 == pytest.approx(closed.z2, rel=1e-10)


def test_route_agreement_inv_sum():
    table = reference_table()
    for n, n2 in ((2, 2), (2, 3), (2, 4), (3, 4)):
        spec = RationalOrderSpec((n, n2))
        closed = z_closed_form([spec], table, [0.1])[0]
        trace = z_via_trace([spec], table, [0.1])[0]
        assert abs(closed.z_total - trace.z_total) <= 1e-9 * abs(closed.z_total)


def test_route_agreement_2d_one_plus_inv():
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 400)
    prof = Separable2D(((COS2, COS2),))
    table = build_sigma_table(basis, prof, 2)
    spec = RationalOrderSpec((1, 4))
    closed = z_closed_form([spec], table, [0.1])[0]
    trace = z_via_trace([spec], table, [0.1])[0]
    assert abs(closed.z_total - trace.z_total) <= 1e-9 * abs(closed.z_total)


def test_trace_zero_profile_reduces_to_plain_sum():
    table = build_sigma_table(STRING, FourierCosine(()), 2)
    res = z_via_trace([RationalOrderSpec((1, 3))], table, [0.0])[0]
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
        specs = [RationalOrderSpec((1, n)) for n in roots]
        tracemalloc.start()
        try:
            results = z_via_trace(specs, table, [0.1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * m * 8
    assert [r.order_label for r in results] == [spec.label() for spec in specs]
    assert results[:7] == results[7:]  # one trace per distinct order, mapped back to each


def dense_trace_reference(spec, table, lam):
    """(z0, z1, z2) of the trace route from the dense series: build_Q_series + q_generic_recursion."""
    basis = table.basis
    series = build_Q_series(2, table)
    a, b = (series if n == 1 else q_generic_recursion(n, series, basis).q_orders for n in spec.roots)
    eps, s = basis.eigenvalues(), spec.s
    s1 = table.power(1)
    deficit = np.diagonal(table.power(2)) - np.sum(s1 * s1, axis=1)
    t0 = np.trace(a[0] @ b[0])
    t1 = np.trace(a[0] @ b[1]) + np.trace(a[1] @ b[0])
    t2 = np.vdot(a[1], b[1]) + np.trace(a[2] @ b[0]) + np.trace(a[0] @ b[2])
    t2 += 0.25 * s * np.sum(deficit * eps ** (-s))
    return t0 + tail_estimate(basis, s), lam * t1, lam * lam * t2


BLOCK_SIZES = (1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3)
TRACE_ORDERS = ("1+1/2", "1+1/3", "1+1/8", "1/2+1/3", "1/3+1/4", "1/2+1/2")


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
    specs = [RationalOrderSpec.parse(label) for label in TRACE_ORDERS]
    if kind == "rectangle":  # 1/N + 1/N' <= 1 diverges there
        specs = [spec for spec in specs if spec.roots[0] == 1]
    with no_dense_power():  # the route reads S_1 by row blocks only
        results = z_via_trace(specs, table, [0.1])
    for spec, res in zip(specs, results):
        expected = dense_trace_reference(spec, table, 0.1)
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
    lams = [0.05, -0.1]
    orders = [1.5, 1.125] + ([5.0 / 6.0] if basis.dimension == 1 else [])
    with no_dense_power():  # read as couplings, never dense
        results = z_closed_form(orders, table, lams)
    eps, s1 = basis.eigenvalues(), table.power(1)
    for i, s in enumerate(orders):
        dense = 0.5 * s * dense_z2_sum(s1, eps, s)
        for lam, res in zip(lams, results[2 * i : 2 * i + 2]):
            assert res.z2 == pytest.approx(lam**2 * dense, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [1, ROW_BLOCK + 1, 300])
@pytest.mark.parametrize("case", sorted(COUPLING_CASES))
def test_trace_route_over_couplings_matches_the_dense_series(case, m):
    domain, profile = COUPLING_CASES[case]
    basis = ModeBasis(domain, m)
    table = build_sigma_table(basis, profile, 2)
    labels = ("1+1/2", "1+1/8", "1+1/64") + (("1/2+1/3",) if basis.dimension == 1 else ())
    specs = [RationalOrderSpec.parse(label) for label in labels]
    with no_dense_power():
        results = z_via_trace(specs, table, [0.1])
    for spec, res in zip(specs, results):
        expected = dense_trace_reference(spec, table, 0.1)
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
            z_via_trace([RationalOrderSpec.parse("1+1/2")], table, [0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * m * m * 8


def test_trace_route_needs_a_second_power(monkeypatch):
    # the deficit reads S_2's diagonal: a table of S_1 alone is refused before the walk starts
    basis = ModeBasis(String1D(1.0), 5)
    table = build_sigma_table(basis, COS2, 1)
    walks = []
    monkeypatch.setattr(SigmaPowerTable, "walk", lambda self, j, rows=None: walks.append(j))
    with pytest.raises(ValidationError, match=r"power 2 outside table range 0\.\.1"):
        z_via_trace([RationalOrderSpec((1, 2))], table, [0.1])
    assert walks == []


def test_trace_inv_sum_rejects_2d():
    rect = ModeBasis(Rectangle2D(1.0, 1.0), 20)
    prof = Separable2D(((COS2, COS2),))
    table = build_sigma_table(rect, prof, 2)
    with pytest.raises(ValidationError):
        z_via_trace([RationalOrderSpec((2, 2))], table, [0.05])


@pytest.mark.parametrize("basis, profile", [
    (ModeBasis(String1D(1.0), 20), COS2),
    (ModeBasis(String1D(1.0), 20), Polynomial((0.0, 4.0, -4.0))),
    (ModeBasis(Rectangle2D(1.0, 1.3), 40), Separable2D(((COS2, COS2),))),
], ids=["cosine-string", "polynomial-string", "cosine-rectangle"])
def test_closed_form_reads_s1_alone(basis, profile):
    # the closed form reads S_1's couplings and diagonal only: a J = 1 table gives the records
    # of a J = 2 table bit for bit
    orders, lams = [RationalOrderSpec.parse("3/2"), RationalOrderSpec.parse("1+1/8")], [0.05, -0.1]
    one, two = (z_closed_form(orders, build_sigma_table(basis, profile, j), lams) for j in (1, 2))
    assert one == two


def test_closed_form_rejects_bad_inputs():
    table2 = build_sigma_table(ModeBasis(String1D(1.0), 20), COS2, 2)
    with pytest.raises(ValidationError):
        z_closed_form([0.4], table2, [0.1])  # divergent
    with pytest.raises(ValidationError):
        z_closed_form([1.5], table2, [1.01])


ALL_ORDERS = "3/2,1+1/4,1/2+1/3"


@pytest.mark.parametrize(
    "route, order",
    [("closed", "3/2"), ("trace", "1+1/4"), ("trace", "1/2+1/3"), ("oracle", "3/2"),
     ("closed", ALL_ORDERS), ("trace", ALL_ORDERS), ("oracle", ALL_ORDERS)],
)
def test_route_over_densities_equals_single_density_calls(route, order):
    table = reference_table(60)
    specs = [RationalOrderSpec.parse(o) for o in order.split(",")]
    call = {"closed": z_closed_form, "trace": z_via_trace, "oracle": oracle_sum_rule}[route]
    lams = [0.0, 0.05, -0.1]
    results = call(specs, table, lams)
    # order-major: every lambda of one order before the next order
    assert [(r.order_label, r.lam) for r in results] == [(spec.label(), lam) for spec in specs for lam in lams]
    # every field, exactly; across orders this covers shared and released q sets
    assert results == [call([spec], table, [lam])[0] for spec in specs for lam in lams]


def test_route_validates_every_density():
    table = reference_table(20)
    spec = RationalOrderSpec.parse("3/2")
    for route in (z_closed_form, z_via_trace, oracle_sum_rule):
        with pytest.raises(ValidationError):
            route([spec], table, [0.1, 1.01])


def test_route_validates_every_order():
    table = reference_table(20)
    specs = [RationalOrderSpec.parse("3/2"), RationalOrderSpec((4, 8))]  # s = 3/8
    for route in (z_closed_form, z_via_trace, oracle_sum_rule):
        with pytest.raises(ValidationError, match="diverges"):
            route(specs, table, [0.1])


@pytest.mark.parametrize("orders", [[], ["3/2", "1/2+1/3"]], ids=["no-orders", "two-orders"])
@pytest.mark.parametrize("lams", [[], [0.0, 0.1]], ids=["no-densities", "two-densities"])
def test_every_route_returns_a_result_per_order_and_density(orders, lams):
    # with no orders or no densities every route returns [], as the oracle always did
    specs = [RationalOrderSpec.parse(text) for text in orders]
    table = reference_table(20)
    for route in (z_closed_form, z_via_trace, oracle_sum_rule):
        results = route(specs, table, lams)
        assert [(r.order_label, r.lam) for r in results] == [(o.label(), lam) for o in specs for lam in lams]


def test_a_mirrored_order_keeps_its_text(monkeypatch):
    from billzeta import sumrules

    mirrored = RationalOrderSpec.parse("1/3+1/2")
    assert mirrored.roots == (3, 2) and mirrored.label() == "1/3+1/2"
    specs = [RationalOrderSpec.parse("1/2+1/3"), mirrored]
    table = reference_table()
    block, handed = sumrules._trace_block, []
    monkeypatch.setattr(sumrules, "_trace_block", lambda *args: handed.append(args[6]) or block(*args))
    first, second = z_via_trace(specs, table, [0.1])
    assert (first.order_label, second.order_label) == ("1/2+1/3", "1/3+1/2")
    # tr(q[1/2] q[1/3]) = tr(q[1/3] q[1/2]): every step forms the one pair's share once
    assert handed and all(pairs == [(2, 3)] for pairs in handed)
    assert (first.z0, first.z1, first.z2) == (second.z0, second.z1, second.z2)
    closed = z_closed_form(specs[:1], table, [0.1])[0]
    for res in (first, second):
        assert abs(res.z_total - closed.z_total) <= 1e-8 * abs(closed.z_total)


def test_a_zero_first_order_term_is_positive_zero(tmp_path):
    # S_1 of cos(pi x) on the string has a zero diagonal, so every route's z1 is zero:
    # +0.0 whatever the sign of lambda, in the records and in the CSV
    from billzeta.cli import EXIT_OK, main

    profile = FourierCosine((0.0, 1.0))
    basis = ModeBasis(String1D(1.0), 20)
    table = build_sigma_table(basis, profile, 2)
    assert not table.diagonal(1).any()
    specs = [RationalOrderSpec.parse(text) for text in ("1+1/2", "1/2+1/3")]
    for route in (z_closed_form, z_via_trace, oracle_sum_rule):
        for res in route(specs, table, [-0.1, 0.0]):
            assert res.z1 == 0.0 and math.copysign(1.0, res.z1) == 1.0, (res.route, res.lam)
    config = tmp_path / "run.json"
    config.write_text('{"version": 1, "density": {"profile": {"type": "fourier-cosine", "coeffs": [0.0, 1.0]}}}')
    out = tmp_path / "all.csv"
    argv = ["sumrule", "--config", str(config), "--route", "all", "--modes", "20", "--s", "1+1/2",
            "--lambda=-0.1,0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 6 and not any(cell == "-0" for row in rows for cell in row)


@pytest.mark.parametrize("order", [1.5, Fraction(3, 2), "1+1/2"])
def test_trace_route_rejects_plain_number_orders(order):
    # the closed form and the oracle take a number for s; the trace route needs the
    # root orders, and names the order it cannot read
    specs = [RationalOrderSpec.parse("1+1/4"), order]
    with pytest.raises(ValidationError, match=re.escape(repr(order))):
        z_via_trace(specs, reference_table(20), [0.1])


def test_a_route_checks_lambda_against_its_tables_profile():
    # the table is the medium: on a table of 5 cos(2 pi x), lambda = 0.5 puts sup|lambda sigma| at 2.5,
    # so every function that takes the table refuses it before any work
    table = reference_table(200, FourierCosine((0.0, 0.0, 5.0)))
    spec = RationalOrderSpec.parse("3/2")
    calls = {
        "closed form": lambda: z_closed_form([spec], table, [0.5]),
        "trace": lambda: z_via_trace([spec], table, [0.5]),
        "oracle": lambda: oracle_sum_rule([spec], table, [0.5]),
        "spectrum": lambda: solve_spectrum(table, 0.5),
        "fit": lambda: convergence_order_fit(spec, table, [0.05, 0.1, 0.5]),
    }
    for call in calls.values():
        with pytest.raises(ValidationError, match=re.escape("density bound violated: sup|lambda*sigma| = 2.5,")):
            call()


@pytest.mark.parametrize("size, lam", [(1e300, 1e-301), (1e-200, 1e199)], ids=["huge", "tiny"])
def test_closed_form_scales_a_profile_past_the_doubles_squares(size, lam):
    # S_1^2 of sigma = 1e300, or lam^2 at 1e199, leaves the doubles; the closed form squares
    # S_1 2^-e and lam 2^e instead, so each term is sigma = 1's at lam size
    table, unit = (build_sigma_table(ModeBasis(String1D(1.0), 20), Polynomial((c,)), 1) for c in (size, 1.0))
    [big], [plain] = z_closed_form([1.5], table, [lam]), z_closed_form([1.5], unit, [lam * size])
    for name in ("z0", "z1", "z2"):
        assert getattr(big, name) == pytest.approx(getattr(plain, name), rel=1e-12, abs=0.0)
