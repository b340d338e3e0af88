"""Brute-force ground truth: the truncated generalized eigenproblem.

Projecting the heterogeneous Helmholtz equation onto the first M homogeneous
modes gives K c = E S c with K = diag(eps_n) and S = I + lam * S_1.  Because K
is diagonal, the pencil is solved as a dense symmetric eigenproblem for the
graded matrix K^{-1/2} S K^{-1/2} (numpy/LAPACK), which is block diagonal
over the exact blocks of S_1 (the connected components of S_1 != 0): one
LAPACK call per block, merged in order.  Each block is graded in place from
the table's fresh S_1 on it (``SigmaPowerTable.restrict``), solved and
dropped before the next is formed, so a solve holds one block at a time
besides LAPACK's copy of it.  The heterogeneous eigenvalues' direct zeta
sums validate every perturbative claim.  They keep only the eigenvalues the
basis resolves, a count worked out from the optical geometry and the
profile's sampled range, and add one Weyl tail from that count in 1D and 2D
(``z_direct_detail``).  Like the perturbative routes, every solve reads its
basis and profile from the table and takes plain lambdas, checked against
that profile, so the oracle cross-checks exactly the medium the routes expand.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import dataclass
from .basis import Profile1D, Rectangle2D, Separable2D, SigmaPowerTable, String1D, sigma_range
from .errors import (
    FactorizationError,
    InsufficientDataError,
    NumericalError,
    ValidationError,
)
from .sumrules import (
    ROUTE_ORACLE,
    SumRuleResult,
    _resolve_route_inputs,
    _s_and_label,
    _validate_s_for_basis,
    tail_estimate,
    z_closed_form,
)


def _graded_blocks(table: SigmaPowerTable, lam: float):
    """(modes, B[modes][:, modes]) for each exact block of S_1 in turn, B = r (I + lam S_1) r.

    Each block is S_1 on its modes in a new array (``restrict``), graded in
    place and dropped here once it is yielded, so the next block is formed
    only after the caller lets go of this one.
    """
    r = 1.0 / np.sqrt(table.basis.eigenvalues())
    for modes in table.blocks():
        graded = table.restrict(1, modes)
        # S = I + lam * S_1 with no identity matrix: adding 0.0 turns the -0.0 of a negative
        # lam into the +0.0 the identity's zeros give, since LAPACK's reflectors read its sign
        graded *= lam
        graded += 0.0
        graded.flat[:: len(modes) + 1] += 1.0
        graded *= r[modes, None]
        graded *= r[None, modes]
        yield modes, graded
        del graded


def solve_spectrum(table: SigmaPowerTable, lam: float, *, want_vectors: bool = False):
    """Eigenvalues (ascending) of K c = E S c, one LAPACK call per exact block of S_1.

    With r = K^{-1/2}, the eigenvalues mu of each block of the symmetric
    B = r S r give E = 1/mu; each block is formed, solved and dropped before
    the next, and the blocks' values are merged in order.  The table gives
    the basis and S_1, and lam is checked against the table's profile
    (``SigmaPowerTable.check_strength``); no table is built here.  A non-positive
    mu means S is not positive definite, which is reported as a
    density-bound problem: S stays positive definite whenever
    sup|lam*sigma| < 1.  With want_vectors=True the S-orthonormal
    generalized eigenvectors c = r y / sqrt(mu) are returned as columns,
    each zero outside its block's modes.
    """
    table.check_strength(lam)
    solved = []
    for _, graded in _graded_blocks(table, lam):
        try:
            solved.append(np.linalg.eigh(graded) if want_vectors else (np.linalg.eigvalsh(graded), None))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"dense eigensolve failed: {exc}") from exc
        del graded  # before the next block is formed
    mu = np.concatenate([mu for mu, _ in solved])
    if not np.all(np.isfinite(mu)):
        raise NumericalError("non-finite eigenvalue: overlap or stiffness is not finite")
    if mu.min() <= 0.0:
        raise FactorizationError(
            "overlap matrix is not positive definite; the density bound "
            f"sup|lambda*sigma| < 1 is violated or nearly so (min eigenvalue {mu.min():.3e})"
        )
    order = np.argsort(mu, kind="stable")[::-1]  # descending mu: ascending E
    if not want_vectors:
        return 1.0 / mu[order]
    r = 1.0 / np.sqrt(table.basis.eigenvalues())
    column = np.empty(len(mu), dtype=np.intp)
    column[order] = np.arange(len(mu))  # each block eigenvalue's place in the merged order
    vectors = np.zeros((len(mu), len(mu)))
    start = 0
    for modes, (block_mu, y) in zip(table.blocks(), solved):
        y *= r[modes, None]
        y /= np.sqrt(block_mu)
        vectors[np.ix_(modes, column[start : start + len(modes)])] = y
        start += len(modes)
    return 1.0 / mu[order], vectors


def residual_norms(table: SigmaPowerTable, lam: float, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Relative residuals ||K c - E S c|| / ||K c|| per eigenpair, S c = r^-1 B (r^-1 c) block by block."""
    stiffness = table.basis.eigenvalues()
    root = np.sqrt(stiffness)  # r^-1
    kc = stiffness[:, None] * vectors
    sc = np.empty_like(vectors)
    for modes, graded in _graded_blocks(table, lam):
        sc[modes] = root[modes, None] * (graded @ (root[modes, None] * vectors[modes]))
    num = np.linalg.norm(kc - values[None, :] * sc, axis=0)
    den = np.linalg.norm(kc, axis=0)
    return num / den


# ---------------------------------------------------------------------------
# effective (optical) geometry for heterogeneous tails
# ---------------------------------------------------------------------------


# The positive half of the 32-point Gauss-Legendre rule on [-1, 1], ascending; numpy's
# leggauss(32) symmetrises its rule, so the negative half mirrors these bits exactly.
_GL_NODES = (
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
)
_GL_WEIGHTS = (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
)
# Quadrature nodes of the effective geometry: along the string, and along each rectangle side.
_LENGTH_NODES, _SIDE_NODES = 2048, 1024


def _gl_panel() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the 32-point Gauss-Legendre rule: leggauss(32), bit for bit."""
    x, w = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _composite_grid(length: float, total_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre grid on [0, length]: equal 32-node panels, >= total_nodes nodes."""
    xg, wg = _gl_panel()
    edges = np.linspace(0.0, length, max(1, math.ceil(total_nodes / len(xg))) + 1)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * xg).ravel(), (half * wg).ravel()


def effective_length(domain: String1D, profile: Profile1D, lam: float) -> float:
    """Optical length int_0^L sqrt(Sigma) dx of Sigma = 1 + lam sigma."""
    x, w = _composite_grid(domain.length, _LENGTH_NODES)
    sigma = profile.evaluate(x, domain.length)
    return float(np.sum(w * np.sqrt(1.0 + lam * sigma)))


def effective_area(domain: Rectangle2D, profile: Separable2D, lam: float) -> float:
    """Optical area int Sigma dA; separable terms integrate factor by factor."""
    area = domain.a * domain.b
    x, wx = _composite_grid(domain.a, _SIDE_NODES)
    y, wy = _composite_grid(domain.b, _SIDE_NODES)
    extra = 0.0
    for px, py in profile.terms:
        extra += float(np.sum(wx * px.evaluate(x, domain.a))) * float(
            np.sum(wy * py.evaluate(y, domain.b))
        )
    return area + lam * extra


def effective_perimeter(domain: Rectangle2D, profile: Separable2D, lam: float) -> float:
    """Optical perimeter: int sqrt(Sigma) along the four Dirichlet edges."""
    x, wx = _composite_grid(domain.a, _SIDE_NODES)
    y, wy = _composite_grid(domain.b, _SIDE_NODES)
    total = 0.0
    for edge_y in (0.0, domain.b):
        sigma = sum(
            px.evaluate(x, domain.a) * py.evaluate(np.array([edge_y]), domain.b)[0]
            for px, py in profile.terms
        )
        total += float(np.sum(wx * np.sqrt(1.0 + lam * sigma)))
    for edge_x in (0.0, domain.a):
        sigma = sum(
            px.evaluate(np.array([edge_x]), domain.a)[0] * py.evaluate(y, domain.b)
            for px, py in profile.terms
        )
        total += float(np.sum(wy * np.sqrt(1.0 + lam * sigma)))
    return total


# ---------------------------------------------------------------------------
# direct zeta sums
# ---------------------------------------------------------------------------


def z_direct_detail(eigenvalues: np.ndarray, exponents, table: SigmaPowerTable, lam: float) -> list[tuple]:
    """Direct sums over the eigenvalues the basis resolves plus a heterogeneous Weyl tail.

    The basis and the profile sigma are the table's, and lam is checked
    against them (``SigmaPowerTable.check_strength``).  M modes resolve the
    spectrum up to about eps_M, below which the medium holds about M ratio
    eigenvalues: ratio = ell / (L sqrt(max Sigma)) in 1D and A_eff / (A max
    Sigma) in 2D, with the optical length or area and max Sigma = 1 +
    max(lam sigma) over ``sigma_range``.  max(1, min(M - round(M/4),
    floor(0.95 M ratio))) are kept, and the tail is the optical geometry's
    Weyl integral from that count; a homogeneous spectrum (a zero profile)
    keeps max(1, M - round(M/4)) at every M.  Returns (value, tail, kept)
    per exponent.
    """
    basis, profile = table.basis, table.profile
    for s in exponents:
        _validate_s_for_basis(s, basis)
    table.check_strength(lam)
    eigs = np.asarray(eigenvalues, dtype=float)
    m = eigs.size
    dom = basis.domain
    kept = m - round(m / 4)
    if profile.is_zero:
        geometry = {}
    else:
        peak = sigma_range(profile, dom, lam)[1]  # max(lam sigma)
        if basis.dimension == 1:
            geometry = {"length": effective_length(dom, profile, lam)}
            ratio = geometry["length"] / (dom.length * math.sqrt(1.0 + peak))
        else:
            geometry = {"area": effective_area(dom, profile, lam), "perimeter": effective_perimeter(dom, profile, lam)}
            ratio = geometry["area"] / (dom.a * dom.b * (1.0 + peak))
        kept = min(kept, math.floor(0.95 * m * ratio))
    kept = max(1, kept)
    details = []
    for s in exponents:
        tail = tail_estimate(basis, s, kept, **geometry)
        details.append((float(np.sum(eigs[:kept] ** (-s))) + tail, tail, kept))
    return details


def oracle_sum_rule(orders, table: SigmaPowerTable, lams) -> list[SumRuleResult]:
    """Full oracle route: one spectrum per lambda, summed for every order (z0 carries all)."""
    resolved = _resolve_route_inputs(orders, table, lams, 1)
    exponents = [s for s, _ in resolved]
    per_lam = [z_direct_detail(solve_spectrum(table, lam), exponents, table, lam) for lam in lams]
    by_order = zip(*per_lam)  # per order, one (value, tail, kept) per lambda
    return [
        SumRuleResult(
            s=s, lam=lam, z0=value, z1=0.0, z2=0.0,
            tail_estimate=tail, truncation=kept, route=ROUTE_ORACLE, order_label=label,
        )
        for (s, label), row in zip(resolved, by_order)
        for lam, (value, tail, kept) in zip(lams, row)
    ]


# ---------------------------------------------------------------------------
# lambda-scaling validation
# ---------------------------------------------------------------------------


# verify fits only errors at least this many times their estimated numerical floor
FLOOR_FACTOR = 10.0
# why no order at s = 1 is fitted
_LINEAR_AT_ONE = "Z(1) is linear in lambda, so second order is exact and there is no lambda^3 term to fit"
# why no homogeneous medium is fitted
_HOMOGENEOUS = "sigma is zero, so Z does not depend on lambda and there is no lambda^3 term to fit"


@dataclass
class ConvergenceFit:
    """Least-squares slope of log|Z_pert - Z_direct| against log lambda."""

    slope: float
    pairs: tuple  # (lambda, error) actually fitted
    excluded: tuple  # (lambda, error, floor) dropped as below FLOOR_FACTOR x the numeric floor


def convergence_order_fit(order, table: SigmaPowerTable, lams, *, drop_second_order: bool = False) -> ConvergenceFit:
    """Fit the lambda-scaling of the perturbative error against the oracle.

    The closed form and the oracle both run on ``table`` (max_power >= 2) for
    every lambda, taken in ascending order.  Every lambda must be positive,
    the order's s must not be 1, where Z is exactly linear in lambda, and
    the table's profile must not be zero, where Z does not depend on lambda
    (ValidationError otherwise, before any solve); at least three lambdas
    must be distinct.  Points whose error sits below FLOOR_FACTOR x the estimated
    numerical floor (tail and rounding mismatch) are excluded and reported;
    at least three usable points are required.  With drop_second_order=True
    the second-order term is left out, so the fitted slope should drop to
    about two (harness self-check).
    """
    s, label = _s_and_label(order)
    if s == 1.0:
        raise ValidationError(f"order {label}: {_LINEAR_AT_ONE}")
    if table.profile.is_zero:
        raise ValidationError(_HOMOGENEOUS)
    bad = [lam for lam in lams if not lam > 0.0]
    if bad:  # the fit is a line through (log lambda, log error)
        raise ValidationError(f"the fit needs positive lambda values, got {bad}")
    if len(set(lams)) < 3:
        raise InsufficientDataError("need at least 3 distinct lambda values")
    lams = sorted(lams)
    perts = z_closed_form([order], table, lams)
    directs = oracle_sum_rule([order], table, lams)
    points = []
    for pert, direct in zip(perts, directs):
        z_pert = pert.z_total - (pert.z2 if drop_second_order else 0.0)
        err = abs(z_pert - direct.z0)
        floor = max(
            1e3 * np.finfo(float).eps * abs(z_pert),
            1e-4 * (pert.tail_estimate + direct.tail_estimate),
        )
        points.append((pert.lam, err, floor))
    usable = [(lam, err) for lam, err, floor in points if err >= FLOOR_FACTOR * floor]
    excluded = tuple((lam, err, floor) for lam, err, floor in points if err < FLOOR_FACTOR * floor)
    if len(usable) < 3:
        raise InsufficientDataError(
            f"only {len(usable)} usable points above the numerical floor; "
            "cannot fit below the truncation noise"
        )
    logs = np.log([p[0] for p in usable])
    loge = np.log([p[1] for p in usable])
    slope = np.polyfit(logs, loge, 1)[0]
    return ConvergenceFit(float(slope), tuple(usable), excluded)
