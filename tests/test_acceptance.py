"""Acceptance suite: every criterion at its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import math
import time

import numpy as np
import pytest

from billzeta.basis import (
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    String1D,
    build_sigma_table,
)
from billzeta.coefficients import (
    build_Q_series,
    q_generic_recursion,
    verify_convolution,
)
from billzeta.kernels import MAX_ROOT_ORDER, eta_xi
from billzeta.oracle import (
    convergence_order_fit,
    oracle_sum_rule,
    residual_norms,
    solve_spectrum,
    z_direct_detail,
)
from billzeta.sumrules import (
    RationalOrderSpec,
    z_closed_form,
    z_via_trace,
)

from reference import (
    delta,
    eta,
    kernel_second_order_presplit,
    q_closed_form,
    reference_Q,
    xi,
    z_one_exact,
)
from test_coefficients import half_order_recursive_forms, max_rel, random_table
from test_kernels import delta_table, eta_table, xi_table

RNG = np.random.default_rng(987654321)
COS2 = FourierCosine((0.0, 0.0, 1.0))
ZETA3 = 1.2020569031595942854


def report(number: int, description: str, passed: bool, detail: str, budget: float, elapsed: float):
    status = "PASS" if passed else "FAIL"
    print(
        f"\n[ACCEPTANCE {number}] {status} ({elapsed:.2f}s / budget {budget:.0f}s) "
        f"{description} | {detail}"
    )
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def test_criterion_1_kernel_identities():
    start = time.time()
    worst_identity = 0.0
    for n in range(1, 9):
        a = RNG.uniform(1e-2, 1e6, 1250)
        b = RNG.uniform(1e-2, 1e6, 1250)
        lhs = delta(n, a, b) * eta(n, a, b)
        rhs = 1.0 / a + 1.0 / b
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs) / rhs)))
    # eta_xi, the Horner form the routes and the recursion use, against the power sums
    a, b = a[:64], b[:64]
    worst_horner = 0.0
    for n in (*range(1, 9), 16, 32, MAX_ROOT_ORDER):  # xi's power sum has N^2 / 2 terms
        for horner, power_sum in zip(eta_xi(n, a ** (-1.0 / n), b ** (-1.0 / n)),
                                     (eta(n, a, b), xi(n, a, b, a), xi(n, b, a, b))):
            scale = np.maximum(np.abs(power_sum), 1e-300)  # xi(1, ...) = 0
            worst_horner = max(worst_horner, float(np.max(np.abs(horner - power_sum) / scale)))
    worst_table = 0.0
    for n in range(1, 5):
        for _ in range(100):
            a, r, b = RNG.uniform(1e-2, 1e6, 3)
            eta_h, xi_n, xi_m = eta_xi(n, a ** (-1.0 / n), b ** (-1.0 / n))
            for generic, table in (
                (eta(n, a, b), eta_table(n, a, b)),
                (delta(n, a, b), delta_table(n, a, b)),
                (xi(n, a, r, b), xi_table(n, a, r, b)),
                (float(eta_h), eta_table(n, a, b)),
                (float(xi_n), xi_table(n, a, b, a)),
                (float(xi_m), xi_table(n, b, a, b)),
            ):
                scale = max(abs(table), 1e-300)
                worst_table = max(worst_table, abs(generic - table) / scale if table else abs(generic))
    elapsed = time.time() - start
    ok = max(worst_identity, worst_horner, worst_table) <= 1e-13
    report(1, "kernel identities, Horner kernels and closed-form table rows", ok,
           f"identity {worst_identity:.2e}, Horner {worst_horner:.2e}, tables {worst_table:.2e} "
           "(tol 1e-13)", 1.0, elapsed)


def test_criterion_2_recursion_equivalence():
    start = time.time()
    inner = slice(0, 6)  # discard M/4 of an 8x8 system
    worst_low = 0.0
    for n_root in (2, 3, 4, 5):
        basis = ModeBasis(String1D(1.0 + 0.1 * n_root), 8)
        table = random_table(basis, 3, seed=500 + n_root)
        cset = q_generic_recursion(n_root, build_Q_series(2, table), basis)
        for k in (1, 2):
            closed = q_closed_form(n_root, k, table)
            worst_low = max(worst_low, max_rel(cset.q_orders[k][inner, inner], closed[inner, inner]))
    # explicit half-order third order is covered by the closed-form identity of
    # the recursion step; check it via a fresh 8x8 system and direct recursion
    table = random_table(ModeBasis(String1D(1.0), 8), 8, seed=4242)
    cset, forms = half_order_recursive_forms(table)
    worst_high = max(
        max_rel(cset.q_orders[k][inner, inner], forms[k][inner, inner]) for k in range(4, 9)
    )
    elapsed = time.time() - start
    ok = worst_low <= 1e-11 and worst_high <= 1e-10
    report(2, "generic recursion matches the explicit closed and recursive forms", ok,
           f"orders<=2: {worst_low:.2e} (tol 1e-11), orders 4..8: {worst_high:.2e} (tol 1e-10)",
           10.0, elapsed)


def test_criterion_3_convolution_truncation_decreases():
    start = time.time()
    ok = True
    details = []
    for n_root in (2, 3):
        residuals = []
        for m in (20, 40, 80):
            basis = ModeBasis(String1D(1.0), m)
            table = build_sigma_table(basis, COS2, 2)
            cset = q_generic_recursion(n_root, build_Q_series(2, table), basis)
            refs = reference_Q(2, basis, COS2, m)
            worst = max(verify_convolution(cset, discard=0, reference_q=refs))
            residuals.append(worst)
        ok = ok and residuals[0] > residuals[1] > residuals[2]
        details.append(f"N={n_root}: " + " > ".join(f"{r:.2e}" for r in residuals))
    elapsed = time.time() - start
    report(3, "N-fold convolution residual decreases with truncation", ok,
           "; ".join(details), 30.0, elapsed)


def test_criterion_4_homogeneous_anchors():
    start = time.time()
    basis = ModeBasis(String1D(1.0), 2000)
    table = build_sigma_table(basis, FourierCosine(()), 2)
    res32 = z_closed_form([RationalOrderSpec.parse("3/2")], table, [0.0])[0]
    err32 = abs(res32.z_total - ZETA3 / math.pi**3)
    res1 = z_closed_form([RationalOrderSpec.parse("1")], table, [0.0])[0]
    err1 = abs(res1.z_total - 1.0 / 6.0)
    elapsed = time.time() - start
    ok = err32 <= 2 * res32.tail_estimate and err1 <= 2 * res1.tail_estimate
    report(4, "homogeneous zeta anchors at M=2000", ok,
           f"|dZ(3/2)|={err32:.2e} (<= {2 * res32.tail_estimate:.2e}), "
           f"|dZ(1)|={err1:.2e} (<= {2 * res1.tail_estimate:.2e})", 5.0, elapsed)


def test_criterion_5_route_agreement():
    start = time.time()
    basis = ModeBasis(String1D(1.0), 200)
    table = build_sigma_table(basis, COS2, 2)
    worst = 0.0
    details = []
    for n in (2, 3, 4):
        spec = RationalOrderSpec((1, n))
        closed = z_closed_form([spec], table, [0.1])[0]
        trace = z_via_trace([spec], table, [0.1])[0]
        rel = abs(closed.z_total - trace.z_total) / abs(closed.z_total)
        worst = max(worst, rel)
        details.append(f"s={closed.s:g}:{rel:.1e}")
    for n, n2 in ((2, 2), (2, 3), (2, 4)):
        spec = RationalOrderSpec((n, n2))
        closed = z_closed_form([spec], table, [0.1])[0]
        trace = z_via_trace([spec], table, [0.1])[0]
        rel = abs(closed.z_total - trace.z_total) / abs(closed.z_total)
        worst = max(worst, rel)
        details.append(f"s={closed.s:g}:{rel:.1e}")
    elapsed = time.time() - start
    report(5, "closed form vs both trace routes (lam=0.1, M=200)", worst <= 1e-8,
           ", ".join(details) + " (tol 1e-8)", 60.0, elapsed)


def test_criterion_6_lambda_cubed_scaling():
    start = time.time()
    basis = ModeBasis(String1D(1.0), 400)
    lams = [0.02, 0.04, 0.08, 0.16]
    spec = RationalOrderSpec.parse("3/2")
    table = build_sigma_table(basis, COS2, 2)
    fit = convergence_order_fit(spec, table, lams)
    fit_first = convergence_order_fit(spec, table, lams, drop_second_order=True)
    elapsed = time.time() - start
    ok = fit.slope >= 2.7 and 1.8 <= fit_first.slope <= 2.2
    report(6, "O(lambda^3) error scaling of the second-order sum rule", ok,
           f"slope={fit.slope:.3f} (>=2.7), first-order-only slope={fit_first.slope:.3f} "
           f"(in [1.8, 2.2])", 120.0, elapsed)


def test_criterion_7_2d_near_threshold():
    start = time.time()
    basis = ModeBasis(Rectangle2D(1.0, 1.0), 900)
    prof = Separable2D(((COS2, COS2),))
    table = build_sigma_table(basis, prof, 2)
    pert = z_closed_form([RationalOrderSpec((1, 8))], table, [0.05])[0]
    eigs = solve_spectrum(table, 0.05)
    [(z_oracle, _, _)] = z_direct_detail(eigs, [pert.s], table, 0.05)
    rel = abs(pert.z_total - z_oracle) / abs(z_oracle)
    tol = max(1e-3, 5 * 0.05**3)
    elapsed = time.time() - start
    report(7, "2D sum rule at s = 1.125 vs oracle (M=900)", rel <= tol,
           f"rel diff {rel:.2e} (tol {tol:.1e})", 300.0, elapsed)


def test_criterion_8_kernel_regularity():
    start = time.time()
    s_value, e = 1.5, 1.0
    limit = 2 * (2 * s_value - 1) * e ** (-s_value)
    hs = np.array([1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    errs = np.array(
        [abs(kernel_second_order_presplit(e, e * (1 + h), s_value) - limit) for h in hs]
    )
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    decreasing = bool(np.all(np.diff(errs) < 0))
    elapsed = time.time() - start
    ok = 0.9 <= slope <= 1.1 and decreasing
    report(8, "pre-split kernel approaches 2(2s-1) eps^-s with O(h) error", ok,
           f"log-log slope {slope:.3f}, max err {errs[0]:.2e} at h=1e-3", 1.0, elapsed)


def test_criterion_9_oracle_soundness():
    start = time.time()
    basis = ModeBasis(String1D(1.0), 200)
    table = build_sigma_table(basis, COS2, 1)
    values, vectors = solve_spectrum(table, 0.1, want_vectors=True)
    worst_residual = float(np.max(residual_norms(table, 0.1, values, vectors)))
    monotone = True
    prev = None
    for m in (50, 100, 200):
        vals = solve_spectrum(build_sigma_table(ModeBasis(String1D(1.0), m), COS2, 1), 0.1)
        if prev is not None:
            monotone = monotone and bool(np.all(vals[: prev.size] - prev <= 1e-9))
        prev = vals
    basis0 = ModeBasis(String1D(1.0), 100)
    vals0 = solve_spectrum(build_sigma_table(basis0, FourierCosine(()), 1), 0.0)
    exact_err = float(np.max(np.abs(vals0 - basis0.eigenvalues()) / basis0.eigenvalues()))
    elapsed = time.time() - start
    ok = worst_residual <= 1e-10 and monotone and exact_err <= 1e-12
    report(9, "oracle eigenproblem soundness", ok,
           f"residual {worst_residual:.2e} (<=1e-10), Galerkin monotone {monotone}, "
           f"sigma=0 error {exact_err:.2e} (<=1e-12)", 30.0, elapsed)


def test_criterion_10_exact_z1_anchor():
    # Z(1) = int_0^L x (L - x) / L (1 + lam sigma) dx holds at every admissible lambda and no M.
    # The oracle's worst measured miss at M=400 is 1.4e-9 (L=2 string); 1e-8 leaves a 7x margin.
    # At lambda sup|sigma| = -0.9 a fixed 25% discard missed by up to 1.4e-6; keeping only the
    # eigenvalues the basis resolves brings that to 9e-10.
    start = time.time()
    spec = RationalOrderSpec.parse("1/2+1/2")
    worst, z2_trace, z2_closed = 0.0, 0.0, set()
    # (profile, L, sup|sigma| on [0, L]): lambda sup|sigma| runs from -0.9 to 0.9
    strings = [(FourierCosine((0.3, 0.0, 1.0)), 1.0, 1.3), (Polynomial((0.0, 4.0, -4.0)), 1.0, 1.0),
               (Polynomial((0.3, 1.0, -0.5)), 2.0, 0.8)]
    for profile, length, sup in strings:
        basis = ModeBasis(String1D(length), 400)
        table = build_sigma_table(basis, profile, 2)
        lams = [0.9 * f / sup for f in (0.25, 0.5, 0.75, 1.0)] + [f / sup for f in (-0.25, -0.5, -0.75, -0.9)]
        for lam, r in zip(lams, oracle_sum_rule([spec], table, lams)):
            worst = max(worst, abs(r.z_total - z_one_exact(profile, length, lam)))
        z2_closed |= {r.z2 for r in z_closed_form([spec], table, lams)}
        z2_trace = max([z2_trace] + [abs(r.z2) for r in z_via_trace([spec], table, lams)])
    elapsed = time.time() - start
    ok = worst <= 1e-8 and z2_closed == {0.0} and z2_trace < 1e-15
    report(10, "exact Z(1) on three heterogeneous strings (M=400)", ok,
           f"oracle |dZ| {worst:.2e} (<=1e-8), closed z2 {sorted(z2_closed)} (== 0), "
           f"trace |z2| {z2_trace:.1e} (<1e-15)", 60.0, elapsed)
