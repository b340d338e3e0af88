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
sums validate every perturbative claim.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import dataclass
from .basis import (
    DensityPerturbation,
    ModeBasis,
    Rectangle2D,
    SigmaPowerTable,
    String1D,
    build_sigma_table,
)
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
    _validate_s_for_basis,
    tail_estimate,
    z_closed_form,
)


def _graded_blocks(table: SigmaPowerTable, basis: ModeBasis, density: DensityPerturbation):
    """(modes, B[modes][:, modes]) for each exact block of S_1 in turn, B = r (I + lam S_1) r.

    Each block is S_1 on its modes in a new array (``restrict``), graded in
    place and dropped here once it is yielded, so the next block is formed
    only after the caller lets go of this one.
    """
    table.check_basis(basis)
    r = 1.0 / np.sqrt(basis.eigenvalues())
    for modes in table.blocks():
        graded = table.restrict(1, modes)
        # S = I + lam * S_1 with no identity matrix: adding 0.0 turns the -0.0 of a negative
        # lam into the +0.0 the identity's zeros give, since LAPACK's reflectors read its sign
        graded *= density.lam
        graded += 0.0
        graded.flat[:: len(modes) + 1] += 1.0
        graded *= r[modes, None]
        graded *= r[None, modes]
        yield modes, graded
        del graded


def solve_spectrum(basis: ModeBasis, density: DensityPerturbation, *, table: SigmaPowerTable | None = None,
                   want_vectors: bool = False):
    """Eigenvalues (ascending) of K c = E S c, one LAPACK call per exact block of S_1.

    With r = K^{-1/2}, the eigenvalues mu of each block of the symmetric
    B = r S r give E = 1/mu; each block is formed, solved and dropped before
    the next, and the blocks' values are merged in order.  The table, of
    exactly the basis's modes, gives S_1; without one a power-1 table of the
    basis is built.  A non-positive mu means S is not positive definite,
    which is reported as a density-bound problem: S stays positive definite
    whenever sup|lam*sigma| < 1.  With want_vectors=True the S-orthonormal
    generalized eigenvectors c = r y / sqrt(mu) are returned as columns,
    each zero outside its block's modes.
    """
    density.validate(basis.domain)
    if table is None:
        table = build_sigma_table(basis, density, 1)
    solved = []
    for _, graded in _graded_blocks(table, basis, density):
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
    r = 1.0 / np.sqrt(basis.eigenvalues())
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


def residual_norms(table: SigmaPowerTable, basis: ModeBasis, density: DensityPerturbation,
                   values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Relative residuals ||K c - E S c|| / ||K c|| per eigenpair, S c = r^-1 B (r^-1 c) block by block."""
    stiffness = basis.eigenvalues()
    root = np.sqrt(stiffness)  # r^-1
    kc = stiffness[:, None] * vectors
    sc = np.empty_like(vectors)
    for modes, graded in _graded_blocks(table, basis, density):
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


def effective_length(domain: String1D, density: DensityPerturbation, nodes: int = 2048) -> float:
    """Optical length int_0^L sqrt(Sigma) dx."""
    x, w = _composite_grid(domain.length, nodes)
    sigma = density.profile.evaluate(x, domain.length)
    return float(np.sum(w * np.sqrt(1.0 + density.lam * sigma)))


def effective_area(domain: Rectangle2D, density: DensityPerturbation, nodes: int = 1024) -> float:
    """Optical area int Sigma dA; separable terms integrate factor by factor."""
    area = domain.a * domain.b
    x, wx = _composite_grid(domain.a, nodes)
    y, wy = _composite_grid(domain.b, nodes)
    extra = 0.0
    for px, py in density.profile.terms:
        extra += float(np.sum(wx * px.evaluate(x, domain.a))) * float(
            np.sum(wy * py.evaluate(y, domain.b))
        )
    return area + density.lam * extra


def effective_perimeter(domain: Rectangle2D, density: DensityPerturbation, nodes: int = 1024) -> float:
    """Optical perimeter: int sqrt(Sigma) along the four Dirichlet edges."""
    x, wx = _composite_grid(domain.a, nodes)
    y, wy = _composite_grid(domain.b, nodes)
    total = 0.0
    for edge_y in (0.0, domain.b):
        sigma = sum(
            px.evaluate(x, domain.a) * py.evaluate(np.array([edge_y]), domain.b)[0]
            for px, py in density.profile.terms
        )
        total += float(np.sum(wx * np.sqrt(1.0 + density.lam * sigma)))
    for edge_x in (0.0, domain.a):
        sigma = sum(
            px.evaluate(np.array([edge_x]), domain.a)[0] * py.evaluate(y, domain.b)
            for px, py in density.profile.terms
        )
        total += float(np.sum(wy * np.sqrt(1.0 + density.lam * sigma)))
    return total


# ---------------------------------------------------------------------------
# direct zeta sums
# ---------------------------------------------------------------------------


def z_direct_detail(
    eigenvalues: np.ndarray,
    exponents,
    basis: ModeBasis,
    density: DensityPerturbation | None = None,
    *,
    top_discard: float = 0.25,
) -> list[tuple[float, float, int]]:
    """Direct sums over the computed spectrum plus a heterogeneous Weyl tail.

    The least-accurate top fraction of the Galerkin spectrum is discarded.
    In 1D the tail uses the optical length; in 2D the discarded shell is
    bridged with (rescaled) homogeneous eigenvalues before the smooth Weyl
    integral takes over at the truncation cutoff, so comparisons against the
    perturbative route share the same far tail.  The effective geometry is
    computed once for all exponents.  Returns (value, tail, kept) per exponent.
    """
    for s in exponents:
        _validate_s_for_basis(s, basis)
    if not 0.0 <= top_discard < 1.0:
        raise ValidationError("top_discard must be in [0, 1)")
    eigs = np.asarray(eigenvalues, dtype=float)
    m = eigs.size
    kept = max(1, m - int(round(top_discard * m)))
    homogeneous = density is None or density.profile.is_zero
    dom = basis.domain
    if basis.dimension == 1:
        ell = dom.length if homogeneous else effective_length(dom, density)
    else:
        a_eff, p_eff = (
            (dom.a * dom.b, 2.0 * (dom.a + dom.b)) if homogeneous
            else (effective_area(dom, density), effective_perimeter(dom, density))
        )
        scale = (dom.a * dom.b) / a_eff  # E ~ eps * (A / A_eff) for high modes
        shell = basis.eigenvalues()[kept:m] * scale
    details = []
    for s in exponents:
        if basis.dimension == 1:
            tail = tail_estimate(basis, s, kept, length=ell)
        else:
            tail = float(np.sum(shell ** (-s))) + tail_estimate(
                basis, s, m, area=a_eff, perimeter=p_eff
            )
        details.append((float(np.sum(eigs[:kept] ** (-s))) + tail, tail, kept))
    return details


def oracle_sum_rule(
    orders,
    table: SigmaPowerTable,
    basis: ModeBasis,
    densities: list[DensityPerturbation],
    *,
    top_discard: float = 0.25,
) -> list[SumRuleResult]:
    """Full oracle route: one spectrum per density, summed for every order (z0 carries all)."""
    resolved = _resolve_route_inputs(orders, table, basis, densities)
    per_density = [
        z_direct_detail(
            solve_spectrum(basis, density, table=table), [s for s, _ in resolved],
            basis, density, top_discard=top_discard,
        )
        for density in densities
    ]
    by_order = zip(*per_density)  # per order, one (value, tail, kept) per density
    return [
        SumRuleResult(
            s=s, lam=density.lam, z0=value, z1=0.0, z2=0.0,
            tail_estimate=tail, truncation=kept, route=ROUTE_ORACLE, order_label=label,
        )
        for (s, label), row in zip(resolved, by_order)
        for density, (value, tail, kept) in zip(densities, row)
    ]


# ---------------------------------------------------------------------------
# lambda-scaling validation
# ---------------------------------------------------------------------------


# verify fits only errors at least this many times their estimated numerical floor
FLOOR_FACTOR = 10.0


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares slope of log|Z_pert - Z_direct| against log lambda."""

    slope: float
    pairs: tuple  # (lambda, error) actually fitted
    excluded: tuple  # (lambda, error, floor) dropped as below FLOOR_FACTOR x the numeric floor


def convergence_order_fit(
    order,
    table: SigmaPowerTable,
    basis: ModeBasis,
    densities: list[DensityPerturbation],
    *,
    drop_second_order: bool = False,
    top_discard: float = 0.25,
) -> ConvergenceFit:
    """Fit the lambda-scaling of the perturbative error against the oracle.

    The closed form and the oracle both run on ``table`` (max_power >= 2) for
    every density, taken in ascending lambda.  Every lambda must be positive
    (ValidationError otherwise, before any solve), and at least three
    distinct.  Points whose error sits below FLOOR_FACTOR x the estimated
    numerical floor (tail and rounding mismatch) are excluded and reported;
    at least three usable points are required.  With drop_second_order=True
    the second-order term is left out, so the fitted slope should drop to
    about two (harness self-check).
    """
    bad = [d.lam for d in densities if not d.lam > 0.0]
    if bad:  # the fit is a line through (log lambda, log error)
        raise ValidationError(f"the fit needs positive lambda values, got {bad}")
    if len({d.lam for d in densities}) < 3:
        raise InsufficientDataError("need at least 3 distinct lambda values")
    densities = sorted(densities, key=lambda d: d.lam)
    perts = z_closed_form([order], table, basis, densities)
    directs = oracle_sum_rule([order], table, basis, densities, top_discard=top_discard)
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
