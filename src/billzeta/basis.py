"""Homogeneous Dirichlet eigenbasis and matrix elements of density powers.

The homogeneous problem is the negative Laplacian with Dirichlet conditions
on a string [0, L] or a rectangle [0, a] x [0, b].  Everything downstream
consumes the basis through two objects built here:

* ``ModeBasis``   -- eigenvalues and mode bookkeeping, sorted ascending
                     (ties broken by lexicographic multi-index);
* ``SigmaPowerTable`` -- the matrices <n| sigma^j |m> for j = 0..J.

On the string 2 sin(n t) sin(m t) = cos((n-m) t) - cos((n+m) t), so every
matrix element is read from the cosine coefficients c_k of the function:
<n| f |m> = (c_|n-m| - c_{n+m})/2, plus c_0 on the diagonal.  Those are
exact products of cosine series (convolutions) for a cosine profile and
composite Gauss-Legendre moments otherwise; a profile even about the
midpoint of its side has exactly zero odd coefficients, so S_j[n, m] is 0
for n + m odd (mirror parity, an exact selection rule).  A string table
keeps only the coefficients of sigma^j.  On the rectangle sigma^j is a sum of separable
products, so S_j is a sum of elementwise products of such string factors,
one per side; a rectangle table keeps those factors.  Either table lists the
nonzero couplings S_j[n, m], m >= n, of any block of rows (O(j b) per row
for a cosine profile of highest harmonic b) and its main diagonal without
forming S_j, and finds the exact blocks of S_1 from those couplings.  A
dense S_j is formed only on request, in new arrays the caller owns, and
is never kept.  Every table is built from scratch on each call.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from ._record import dataclass, field
from .errors import QuadratureError, ValidationError

_GL_PANEL_NODES = 32
_NODE_CHUNK = 256  # quadrature nodes per block of exponential rows
ROW_BLOCK = 64  # rows per step wherever S_j's couplings are walked


# ---------------------------------------------------------------------------
# domains and mode bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class String1D:
    """Dirichlet string on [0, length]; mode n has eigenvalue (n pi / length)^2."""

    length: float = 1.0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValidationError("string length must be finite and positive")


@dataclass(frozen=True)
class Rectangle2D:
    """Dirichlet rectangle [0,a] x [0,b]; mode (j,k) has pi^2 (j^2/a^2 + k^2/b^2)."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValidationError("rectangle sides must be finite and positive")


@functools.lru_cache(maxsize=None)
def _enumerate_rectangle_modes(a: float, b: float, count: int) -> np.ndarray:
    """The count lowest modes (j, k), shape (count, 2): ascending eigenvalue, ties by j then k.

    The lattice up to each side's bound (``_rectangle_side_bounds``) holds
    every mode at or below the count-th eigenvalue; one lexsort orders it.
    Memoized, so the array is read-only.
    """
    nx, ny = _rectangle_side_bounds(a, b, count)
    j, k = np.repeat(np.arange(1, nx + 1), ny), np.tile(np.arange(1, ny + 1), nx)
    eps = math.pi**2 * (j * j / a**2 + k * k / b**2)
    order = np.lexsort((k, j, eps))[:count]
    modes = np.stack((j[order], k[order]), axis=1)
    modes.flags.writeable = False
    return modes


@dataclass(frozen=True)
class ModeBasis:
    """Truncated homogeneous eigenbasis: a domain plus the retained mode count."""

    domain: String1D | Rectangle2D
    mode_count: int

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValidationError("mode_count must be >= 1")

    @property
    def dimension(self) -> int:
        return 1 if isinstance(self.domain, String1D) else 2

    def mode_indices(self) -> list:
        """Mode labels in ascending-eigenvalue order (1-based ints, or (j,k))."""
        if isinstance(self.domain, String1D):
            return list(range(1, self.mode_count + 1))
        return [tuple(jk) for jk in self._modes().tolist()]

    def _modes(self) -> np.ndarray:
        return _enumerate_rectangle_modes(self.domain.a, self.domain.b, self.mode_count)

    def eigenvalues(self) -> np.ndarray:
        if isinstance(self.domain, String1D):
            n = np.arange(1, self.mode_count + 1, dtype=float)
            return (n * math.pi / self.domain.length) ** 2
        jk = self._modes().astype(float)
        return math.pi**2 * (jk[:, 0] ** 2 / self.domain.a**2 + jk[:, 1] ** 2 / self.domain.b**2)


# ---------------------------------------------------------------------------
# density profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierCosine:
    """sigma(x) = sum_k coeffs[k] * cos(k pi x / L); coeffs[0] is the constant."""

    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                out += c * np.cos(k * math.pi * np.asarray(x) / length)
        return out

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def bandwidth(self) -> int:
        return max((k for k, c in enumerate(self.coeffs) if c != 0.0), default=0)

    def is_even(self, length: float) -> bool:
        """sigma(L - x) = sigma(x) exactly: cos(k pi (L - x) / L) = (-1)^k cos(k pi x / L), so no odd k."""
        return all(c == 0.0 for c in self.coeffs[1::2])


@dataclass(frozen=True)
class Polynomial:
    """sigma(x) = sum_p coeffs[p] * x^p in the physical coordinate."""

    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def bandwidth(self) -> int:
        # algebraic, not oscillatory; small constant keeps the node plan safe
        return len(self.coeffs) + 8

    def is_even(self, length: float) -> bool:
        """p(L - x) = p(x) exactly: p(L - x) expanded in rationals, each float taken exactly, is p."""
        if not all(map(math.isfinite, self.coeffs)):
            return False
        a, ell = [Fraction(c) for c in self.coeffs], Fraction(length)
        mirrored = [
            (-1) ** q * sum(a[p] * math.comb(p, q) * ell ** (p - q) for p in range(q, len(a)))
            for q in range(len(a))
        ]
        return mirrored == a


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear interpolation through (x, y) samples (lower-accuracy path)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ys = tuple(float(v) for v in self.ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValidationError("tabulated profile needs >= 2 matching samples")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValidationError("tabulated abscissae must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)

    @property
    def is_zero(self) -> bool:
        return all(y == 0.0 for y in self.ys)

    def bandwidth(self) -> int:
        return max(16, len(self.xs))

    def is_even(self, length: float) -> bool:
        """The interpolant is mirror-even exactly: ys a palindrome, xs[i] + xs[-1-i] = L in rationals."""
        if not all(map(math.isfinite, self.xs)):
            return False
        ell = Fraction(length)
        return self.ys == self.ys[::-1] and all(
            Fraction(a) + Fraction(b) == ell for a, b in zip(self.xs, reversed(self.xs))
        )


Profile1D = FourierCosine | Polynomial | Tabulated


@dataclass(frozen=True)
class Separable2D:
    """sigma(x, y) = sum_t px_t(x) * py_t(y): sums of separable products."""

    terms: tuple[tuple[Profile1D, Profile1D], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((px, py) for px, py in self.terms))

    @property
    def is_zero(self) -> bool:
        return all(px.is_zero or py.is_zero for px, py in self.terms)


Profile = Profile1D | Separable2D


@functools.lru_cache(maxsize=None)
def _profile_sup(profile: Profile1D, length: float) -> float:
    """Sampled sup |profile| on [0, length], memoized: profiles are frozen and hashable."""
    # 32 samples per period of the fastest cosine, so high frequencies cannot alias
    xs = np.linspace(0.0, length, max(4097, 32 * profile.bandwidth() + 1))
    if isinstance(profile, Tabulated):
        xs = np.union1d(xs, np.clip(profile.xs, 0.0, length))
    return float(np.max(np.abs(profile.evaluate(xs, length))))


@dataclass(frozen=True)
class DensityPerturbation:
    """Density Sigma(x) = 1 + lam * sigma(x) with a mild profile sigma.

    The strength must satisfy sup |lam * sigma| < 1 so Sigma stays positive
    and the square-root binomial series converges.
    """

    profile: Profile
    lam: float = 0.0

    def sigma_sup(self, domain: String1D | Rectangle2D) -> float:
        """Sampled estimate of sup |sigma| over the domain.

        In 2D each separable term is bounded by sup|px| * sup|py|, each factor
        sampled as in 1D, and the terms' bounds are added: exact for one term,
        an upper bound for several.
        """
        if isinstance(domain, String1D):
            return _profile_sup(self.profile, domain.length)
        if not isinstance(self.profile, Separable2D):
            raise ValidationError("2D domains need a Separable2D profile")
        a, b = domain.a, domain.b
        return sum((_profile_sup(px, a) * _profile_sup(py, b) for px, py in self.profile.terms), 0.0)

    def validate(self, domain: String1D | Rectangle2D) -> None:
        if isinstance(domain, Rectangle2D) and not isinstance(self.profile, Separable2D):
            raise ValidationError("2D domains need a Separable2D profile")
        if isinstance(domain, String1D) and isinstance(self.profile, Separable2D):
            raise ValidationError("1D domains need a 1D profile")
        if not math.isfinite(self.lam):
            raise ValidationError(f"lambda must be finite, got {self.lam!r}")
        bound = abs(self.lam) * self.sigma_sup(domain)
        if not bound < 1.0:  # also rejects a NaN bound
            raise ValidationError(
                f"density bound violated: sup|lambda*sigma| = {bound:.6g}, needs < 1"
            )


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------


# The positive half of the 32-point Gauss-Legendre rule on [-1, 1], ascending: (node, weight).
# numpy's leggauss(32) symmetrises its rule, so the negative half mirrors these bits exactly.
_GL_HALF = (
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
)


def _gl_panel() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the 32-point Gauss-Legendre rule: leggauss(32), bit for bit."""
    x, w = np.array(_GL_HALF).T
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _composite_grid(length: float, total_nodes: int, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre grid on [0, length] with >= total_nodes nodes.

    Panel edges include any interpolation breakpoints so piecewise-smooth
    integrands stay panelwise analytic.
    """
    panels = max(1, math.ceil(total_nodes / _GL_PANEL_NODES))
    edges = np.linspace(0.0, length, panels + 1)
    if len(breakpoints):
        inner = np.asarray(breakpoints, dtype=float)
        inner = inner[(inner > 0.0) & (inner < length)]
        edges = np.unique(np.concatenate([edges, inner]))
    xg, wg = _gl_panel()
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def _padded_cosine(coeffs: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients c_0..c_{2 n_max}, the ones the n_max-mode selection rule reads."""
    c = np.zeros(2 * n_max + 1)
    c[: min(len(coeffs), len(c))] = coeffs[: len(c)]
    return c


def _exact_cosine_elements(n_max: int, coeffs: np.ndarray) -> np.ndarray:
    """<n| f |m> for f a cosine series: (1/2)(c_|n-m| - c_{n+m}) + c_0 delta_nm."""
    c = _padded_cosine(coeffs, n_max)
    windows = np.lib.stride_tricks.sliding_window_view
    toeplitz = windows(np.concatenate([c[n_max - 1 : 0 : -1], c[:n_max]]), n_max)[:, ::-1]  # c[|n-m|]
    hankel = windows(c[2:], n_max)  # c[n+m]
    out = toeplitz - hankel
    out *= 0.5
    np.fill_diagonal(out, c[0] - 0.5 * c[2::2])
    return out


def _exp_rows(step: np.ndarray, count: int) -> np.ndarray:
    """Rows step**k, k = 0..count-1, by doubling: each new block is the rows so far times one row.

    That takes about log2(count) vectorised multiplications.  Row k is still a
    product of k factors, so for |step| = 1 its error stays within about k
    rounding units.
    """
    rows = np.empty((count, len(step)), dtype=complex)
    rows[0] = 1.0
    filled = 1
    while filled < count:
        block = min(filled, count - filled)
        np.multiply(rows[:block], rows[filled - 1] * step, out=rows[filled : filled + block])
        filled += block
    return rows


def _cosine_moments(count: int, length: float, factor_lists, plan: int, breakpoints) -> np.ndarray:
    """I_k = (1/L) int_0^L f(x) cos(k pi x / L) dx, k = 0..count-1, for each list's f.

    Returns one row per factor list, all from one plan-node grid.  With
    k = a r + q, r ~ sqrt(count), cos(k t) = Re[e^{i a r t} e^{i q t}], so each
    chunk of _NODE_CHUNK nodes forms about 2 sqrt(count) exponential rows by
    recurrence (two np.exp calls) and every list shares them in one product.
    """
    x, w = _composite_grid(length, plan, breakpoints)
    values = {p: p.evaluate(x, length) for factors in factor_lists for p, _ in factors}
    wf = np.empty((len(factor_lists), len(x)))
    for row, factors in zip(wf, factor_lists):
        row[:] = w / length
        for p, power in factors:
            row *= values[p] ** power
    t = x * (math.pi / length)
    r = math.isqrt(count - 1) + 1
    coarse_count = -(-count // r)
    moments = np.zeros((len(factor_lists) * coarse_count, r))
    for lo in range(0, len(t), _NODE_CHUNK):
        chunk = t[lo : lo + _NODE_CHUNK]
        fine = _exp_rows(np.exp(-1j * chunk), r)  # conjugate rows e^{-i q t}
        coarse = _exp_rows(np.exp(1j * r * chunk), coarse_count)
        weighted = (coarse * wf[:, None, lo : lo + _NODE_CHUNK]).reshape(-1, len(chunk))
        # a complex row viewed as floats interleaves (Re, Im), so one real product of the
        # weighted rows with the conjugate rows is Re[(E_coarse wf) @ E_fine^T]
        moments += weighted.view(float) @ fine.view(float).T
    return moments.reshape(len(factor_lists), -1)[:, :count]


def _quad_cosine_coeffs(n_max: int, length: float, factor_lists, nodes: int | None):
    """Cosine coefficients c_0..c_{2 n_max} of each list's prod_i p_i^{power_i}, by quadrature.

    All lists share one node plan, the largest any of them needs (``nodes``
    overrides it), and so share every exponential row.  Every element
    <n| f |m> = I_|n-m| - I_{n+m} of the moments I_k, so a recomputation of
    every moment on a 1.5x grid bounds each list's element error by
    2 max |dI|; it guards against an insufficient node plan.  A list whose
    factors are all mirror-even (``is_even``) has every odd coefficient
    exactly 0, so those are set to 0.0 after the check; the rest are the
    quadrature's.  Returns the coefficients (one row per list) and (the
    plan, the largest error bound).
    """
    breakpoints = [
        x for factors in factor_lists for p, _ in factors if isinstance(p, Tabulated) for x in p.xs
    ]
    plan = nodes or max(
        max(256, 8 * (n_max + sum(p.bandwidth() * power for p, power in factors)))
        for factors in factor_lists
    )
    count = 2 * n_max + 1
    moments = _cosine_moments(count, length, factor_lists, plan, breakpoints)
    check_plan = int(plan * 1.5) + _GL_PANEL_NODES
    check = _cosine_moments(count, length, factor_lists, check_plan, breakpoints)
    diagonal = moments[:, :1] - moments[:, 2::2]
    scale = np.maximum(1.0, np.max(np.abs(diagonal), axis=1))
    err = 2.0 * np.max(np.abs(check - moments), axis=1)
    for e, s in zip(err, scale):
        if not e <= 1e-10 * s:  # also catches a NaN error
            raise QuadratureError(
                f"quadrature self-check failed: element error {e:.3e} at {plan} nodes"
            )
    moments[:, 1:] *= 2.0  # c_k = 2 I_k past the constant
    for c, factors in zip(moments, factor_lists):
        if all(p.is_even(length) for p, _ in factors):
            c[1::2] = 0.0  # the integrand is odd about the midpoint: not quadrature noise, 0
    return moments, (plan, float(np.max(err)))


def _cosine_power_product(factors) -> np.ndarray:
    """Cosine coefficients of prod_i p_i^{power_i} for cosine factors, as chebpow and chebmul.

    c_0 + sum_k c_k cos k t is c_0 + sum_k (c_k / 2)(e^{ikt} + e^{-ikt}), so a
    product is the np.convolve of such two-sided coefficients.  Each power is
    a chain of convolutions; it and the product so far are then folded back
    to one side and multiplied, with trailing zeros trimmed, so the result
    is bit for bit the Chebyshev route's (halving and doubling are exact).
    """
    def trimmed(c):
        return c[: max(1, len(np.trim_zeros(c, "b")))]

    def two_sided(c):
        half = 0.5 * c
        return np.concatenate([half[:0:-1], c[:1], half[1:]])

    def one_sided(z):
        c = z[len(z) // 2 :].copy()
        c[1:] *= 2.0
        return c

    product = np.ones(1)
    for p, power in factors:
        z = two_sided(trimmed(np.asarray(p.coeffs or (0.0,))))
        term = np.ones(1)
        for _ in range(power):
            term = np.convolve(term, z)
        product = trimmed(one_sided(np.convolve(two_sided(product), two_sided(one_sided(term)))))
    return product


def _cosine_coeffs(n_max: int, length: float, factor_lists, nodes: int | None = None):
    """Cosine coefficients of each list's prod_i p_i^{power_i}, enough for n_max modes.

    Exact (``_cosine_power_product``) for cosine factors; every other list
    goes into one shared quadrature call.  Returns the coefficients, one
    array per list, and that call's (node plan, largest self-check error),
    or None when no list needed quadrature.
    """
    out = []
    for factors in factor_lists:
        if any(p.is_zero and power > 0 for p, power in factors):
            out.append(np.zeros(1))
        elif all(isinstance(p, FourierCosine) for p, _ in factors):
            out.append(_cosine_power_product(factors))
        else:
            out.append(None)
    quad = [i for i, c in enumerate(out) if c is None]
    if not quad:
        return out, None
    coeffs, check = _quad_cosine_coeffs(n_max, length, [factor_lists[i] for i in quad], nodes)
    for i, c in zip(quad, coeffs):
        out[i] = c
    return out, check


# ---------------------------------------------------------------------------
# the sigma-power table
# ---------------------------------------------------------------------------


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, k) for every k < counts[row], row-major: ragged rows flattened without a loop."""
    row = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(row))
    k -= np.repeat(np.cumsum(counts) - counts, counts)
    return row, k


def _join(root: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The forest ``root`` with the trees of n[i] and m[i] joined for every pair, roots the lowest.

    Each entry of root points at its tree's root, which is its lowest
    member.  Each round hooks the higher root of every pair that still spans
    two trees onto the lower (any one offer wins: every hook points down, so
    no cycle forms), then repoints every entry at its new root by pointer
    jumping.
    """
    while True:
        a, b = root[n], root[m]
        apart = a != b
        if not apart.any():
            return root
        n, m, a, b = n[apart], m[apart], a[apart], b[apart]
        root[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


@dataclass(frozen=True, eq=False)  # holds arrays: identity == and hash
class SigmaPowerTable:
    """Matrices S_j[n, m] = <n| sigma^j |m> for j = 0..max_power, n, m = 1..size.

    Two storage forms, each what generates the matrices.  On the string, the
    cosine coefficients of each sigma^j (``cosine[j]``), cut after the
    highest harmonic for a cosine profile and c_0..c_{2 size} otherwise.  On
    the rectangle, the separable factors of each S_j: ``factors[j]`` lists
    (multinomial, X, Y) with S_j[n, m] the sum of multinomial X[x_n, x_m]
    Y[y_n, y_m] in list order, where (x_n, y_n) = ``index[:, n]`` is mode
    n's 0-based index on either side and ``pos[x, y]`` maps it back (-1 past
    the truncation).  A mirror-even profile (``is_even``) has exactly zero
    odd coefficients, in ``cosine[j]`` or behind a side factor, so S_j[n, m]
    = 0 where n + m, or that side's index sum, is odd.
    ``couplings(j, lo, hi)`` lists the entries of a block of rows of S_j
    that can be nonzero and ``diagonal(j)`` the main diagonal; ``blocks()``
    lists the exact blocks of S_1, found once from its couplings.
    ``restrict(j, blocks, size)`` forms S_j on the blocks of a partition of
    the first ``size`` modes, and ``power(j)`` on one block of every mode, in
    new arrays the caller owns.  All of them give the same bits.
    """

    max_power: int
    size: int
    quadrature_meta: dict
    cosine: tuple[np.ndarray, ...] | None = None
    factors: tuple[tuple[tuple[float, np.ndarray, np.ndarray], ...], ...] | None = None
    index: np.ndarray | None = None  # shape (2, size) with the factors; None on the string
    pos: np.ndarray | None = None  # the inverse of index, shape (X.shape[0], Y.shape[0])
    _padded: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _patterns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _blocks: list = field(default_factory=list, init=False, repr=False, compare=False)

    def _check(self, j: int) -> None:
        if not 0 <= j <= self.max_power:
            raise ValidationError(f"power {j} outside table range 0..{self.max_power}")

    def power(self, j: int) -> np.ndarray:
        """A new dense S_j, which the caller owns: ``restrict`` on one block of every mode."""
        return self.restrict(j, [np.arange(self.size)], self.size)[0]

    def restrict(self, j: int, blocks, size: int) -> list[np.ndarray]:
        """S_j[np.ix_(modes, modes)] for each of ``blocks``, in new arrays the caller owns.

        ``blocks`` partitions modes 0..size-1 into ascending arrays, and S_j
        must be exactly 0 between two of them, as S_1 is between its exact
        blocks (``blocks()``, cut to ``size``); that is not checked.  One
        block on the string is the selection rule: one M x M array, where the
        scatter traces 2.3 M^2 (M = 400) and takes 7x as long (M = 2000).
        Everything else is one scatter into a zero-filled buffer the blocks
        share, entry (n, m) of a block at ``buffer[row[n] + col[m]]``, one
        ``row_step`` of couplings at a time; columns past ``size`` are
        dropped only when the table has more modes.
        """
        self._check(j)
        if not 0 < size <= self.size:
            raise ValidationError(f"size {size} outside the table's 1..{self.size} modes")
        if self.cosine is not None and len(blocks) == 1:
            return [_exact_cosine_elements(size, self.cosine[j])]
        sizes = np.array([len(modes) for modes in blocks])
        starts = np.cumsum(sizes * sizes) - sizes * sizes
        buffer = np.zeros(int(np.sum(sizes * sizes)))
        row, col = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
        for start, modes in zip(starts, blocks):
            col[modes] = np.arange(len(modes))
            row[modes] = start + col[modes] * len(modes)
        step = self.row_step(j)
        for lo in range(0, size, step):
            n, m, value = self.couplings(j, lo, min(lo + step, size))
            if size < self.size:
                inside = m < size
                n, m, value = n[inside], m[inside], value[inside]
            buffer[row[n] + col[m]] = value
            buffer[row[m] + col[n]] = value
        return [buffer[start : start + k * k].reshape(k, k) for start, k in zip(starts, sizes)]

    def _add_factors(self, j: int, rows, cols, out: np.ndarray) -> np.ndarray:
        """Add S_j[rows, cols] to out (zeros): multinomial * X * Y per split, in list order."""
        (xr, yr), (xc, yc) = self.index[:, rows], self.index[:, cols]
        for multinomial, x, y in self.factors[j]:
            term = x[xr, xc]  # (multinomial * X) * Y, formed in place: two temporaries, not three
            term *= multinomial
            term *= y[yr, yc]
            out += term
        return out

    def _coefficients(self, j: int) -> tuple[np.ndarray, int]:
        """c_0..c_{2 size} of sigma^j on the string, padded once, and the step of the offsets it couples.

        The coefficients are all the selection rule reads.  The step is 2 when
        every odd one is exactly 0 (sigma^j mirror-even about the midpoint):
        an odd offset m - n then has n + m odd too, and S_j[n, m] is (0 - 0)/2.
        """
        if j not in self._padded:
            c = _padded_cosine(self.cosine[j], self.size)
            self._padded[j] = c, 1 if c[1::2].any() else 2
        return self._padded[j]

    def _pattern(self, j: int) -> tuple:
        """Per side, (start, columns) of each row's exact nonzeros in any split of S_j, CSR style."""
        if j not in self._patterns:
            sides = []
            for side, size in zip((1, 2), self.pos.shape):
                nonzero = np.zeros((size, size), dtype=bool)
                for split in self.factors[j]:
                    nonzero |= split[side] != 0.0
                rows, cols = np.nonzero(nonzero)
                sides.append((np.searchsorted(rows, np.arange(size + 1)), cols))
            self._patterns[j] = tuple(sides)
        return self._patterns[j]

    def diagonal(self, j: int) -> np.ndarray:
        """S_j[n, n], from the selection rule or the factors in O(size), without forming S_j."""
        self._check(j)
        if self.cosine is None:
            return self._add_factors(j, slice(None), slice(None), np.zeros(self.size))
        c, _ = self._coefficients(j)
        return c[0] - 0.5 * c[2::2]

    def row_step(self, j: int) -> int:
        """Rows per ``couplings(j, ...)`` call in a walk over S_j.

        ROW_BLOCK, or more when rows have few candidate entries, so that a
        step considers at most about ROW_BLOCK x max(ROW_BLOCK, entries per row);
        on the string those are the offsets ``couplings`` strides over.
        """
        self._check(j)
        if self.cosine is not None:
            per_row = (min(len(self.cosine[j]), self.size) - 1) // self._coefficients(j)[1] + 1
        else:
            (x_start, _), (y_start, _) = self._pattern(j)
            per_row = int(np.max(np.diff(x_start)[self.index[0]] * np.diff(y_start)[self.index[1]]))
        return max(ROW_BLOCK, ROW_BLOCK * ROW_BLOCK // max(per_row, 1))

    def couplings(self, j: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, m, S_j[n, m]) for the nonzero entries with m >= n of rows lo..hi-1, row by row.

        Entries are listed where the structure allows a nonzero and kept where
        the value is nonzero; every other entry of the rows with m >= n is
        exactly 0.  On the string the selection rule allows offsets m - n up
        to the highest stored harmonic of sigma^j, so a cosine profile of
        highest harmonic b lists O(j b) pairs per row, and only the even
        offsets when every odd coefficient of sigma^j is exactly 0 (a
        mirror-even profile: half the pairs of a dense S_j).  On the rectangle, a
        pair of side indices nonzero in X and in Y of some split, mapped
        through ``pos``: a few per row for cosine factors, and at most
        ``size`` per row (O(size^2) in all) for dense ones.  Each value is bit
        for bit what ``power(j)`` returns, and S_j is not formed.
        """
        self._check(j)
        m_size = self.size
        if not 0 <= lo < hi <= m_size:
            raise ValidationError(f"row range {lo}..{hi} outside 0..{m_size}")
        rows = np.arange(lo, hi)
        if self.cosine is not None:
            # the selection rule of _exact_cosine_elements on the offsets d = m - n it allows
            c, step = self._coefficients(j)
            width = min(len(self.cosine[j]), m_size) - 1
            n, d = _ragged(np.minimum(width, m_size - 1 - rows) // step + 1)
            d *= step
            n += lo
            m = n + d
            value = c[d]
            value -= c[n + m + 2]  # c_|n-m| - c_{n+m}, 1-based
            value *= 0.5
            on = d == 0
            value[on] = c[0] - 0.5 * c[2 * n[on] + 2]
        else:
            (x_start, x_cols), (y_start, y_cols) = self._pattern(j)
            x, y = self.index[:, lo:hi]
            x_count, y_count = np.diff(x_start)[x], np.diff(y_start)[y]
            row, k = _ragged(x_count * y_count)
            y_count = y_count[row]
            m = self.pos[x_cols[x_start[x[row]] + k // y_count], y_cols[y_start[y[row]] + k % y_count]]
            n = rows[row]
            upper = m >= n  # also drops side pairs past the truncation, where pos is -1
            n, m = n[upper], m[upper]
            value = self._add_factors(j, n, m, np.zeros(len(n)))
        nonzero = value != 0.0
        return n[nonzero], m[nonzero], value[nonzero]

    def blocks(self) -> tuple[np.ndarray, ...]:
        """The exact blocks of S_1: each connected component of S_1 != 0, as ascending modes.

        Every entry of S_1 between two blocks is exactly 0.  The couplings are
        walked one ``row_step`` at a time, after row 0 alone, and each step's
        pairs join the trees of a forest over the modes; the walk stops as
        soon as one block is left, so a dense S_1 settles after its first
        row; a mirror-even profile's S_1, odd and even modes apart, is walked
        whole.  Blocks come in order of their lowest mode.  Found once per
        table, so the arrays are read-only.
        """
        if not self._blocks:
            root = np.arange(self.size)  # every mode's tree root: the lowest mode joined to it
            # row 0 on its own first: a dense S_1 joins every mode to it, and the walk ends
            bounds = [0, *range(1, self.size, self.row_step(1)), self.size]
            for lo, hi in itertools.pairwise(bounds):
                n, m, _ = self.couplings(1, lo, hi)
                root = _join(root, n, m)
                if not root.any():  # every mode's root is mode 0: one block
                    break
            order = np.argsort(root, kind="stable")
            order.flags.writeable = False  # every caller shares the blocks, views of order
            cuts = np.flatnonzero(np.diff(root[order])) + 1
            self._blocks.append(tuple(np.split(order, cuts)))
        return self._blocks[0]


def _rectangle_side_bounds(a: float, b: float, count: int) -> tuple[int, int]:
    """Upper bounds on each side's highest index among the count lowest rectangle modes.

    No mode is listed.  With r = lam / pi^2, bisection finds the least r
    with at least count lattice modes j^2/a^2 + k^2/b^2 <= r, counted in
    one numpy pass over the shorter side's indices (O(sqrt(count))), from
    the k x k square's corner k^2 (1/a^2 + 1/b^2), k = ceil(sqrt(count)).
    The count-th eigenvalue is at most that r, so a retained mode has
    n_x^2 / a^2 + 1 / b^2 <= r, and likewise n_y; no index exceeds count.
    """
    k = math.isqrt(count - 1) + 1
    lo, hi = 0.0, k * k * (1 / a**2 + 1 / b**2)
    short, long_ = sorted((a, b))

    def modes_below(r: float) -> int:
        i = np.arange(1, int(short * math.sqrt(r)) + 1)
        return int(np.floor(long_ * np.sqrt(np.maximum(r - (i / short) ** 2, 0.0))).sum())

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if modes_below(mid) >= count else (mid, hi)
    r = hi * (1 + 1e-9)  # room for rounding in the lattice counts
    return tuple(
        min(count, int(side * math.sqrt(max(r - 1 / other**2, 0.0))) + 1)
        for side, other in ((a, b), (b, a))
    )


def rectangle_table_doubles(domain: Rectangle2D, profile: Profile, mode_count: int, max_power: int) -> int:
    """Doubles ``build_sigma_table`` stores for a rectangle, counted from above without listing modes.

    Each split of the powers 0..J over the profile's T terms, C(J + T, T) of
    them, keeps two side factors, n x n for a bound on the side's highest
    mode index n; the index map adds 2 per mode and its inverse ``pos``
    n_x n_y.  The nonzero pattern ``couplings`` keeps for the power it reads
    takes at most n^2 + n + 1 more per side.
    """
    nx, ny = _rectangle_side_bounds(domain.a, domain.b, mode_count)
    terms = len(profile.terms) if isinstance(profile, Separable2D) else 1
    splits = math.comb(max_power + terms, terms)
    return splits * (nx * nx + ny * ny) + (nx + 1) ** 2 + (ny + 1) ** 2 + nx * ny + 2 * mode_count


def row_couplings_bound(domain: String1D | Rectangle2D, profile: Profile, mode_count: int) -> int:
    """Entries ``couplings(1, ...)`` considers per row at most, counted without building the table.

    On the string, the offsets up to S_1's highest harmonic: b + 1 for a
    cosine profile of highest harmonic b, else every column.  On the
    rectangle, every pair of side indices up to the side bounds: about
    1.3 mode_count, which covers dense side factors.
    """
    if isinstance(domain, String1D):
        return min(mode_count, profile.bandwidth() + 1 if isinstance(profile, FourierCosine) else mode_count)
    return math.prod(_rectangle_side_bounds(domain.a, domain.b, mode_count))


def build_sigma_table(
    basis: ModeBasis,
    density: DensityPerturbation | Profile,
    max_power: int,
    *,
    nodes: int | None = None,
) -> SigmaPowerTable:
    """Build the table of <n| sigma^j |m>, j = 0..max_power.

    A string table keeps the cosine coefficients of each sigma^j: exact for
    a cosine profile (O(J b) numbers), from quadrature otherwise (2M + 1
    each).  Quadrature coefficients of a power whose factors are all
    mirror-even (``is_even``) keep exactly 0.0 at every odd harmonic, so
    S_j[n, m] = 0 exactly for n + m odd and the blocks of S_1 split by
    parity; a profile whose float coefficients are not exactly
    mirror-symmetric keeps its quadrature noise there and one block, which
    is still correct, only slower.  A rectangle table keeps, for each split
    of each power over the profile's terms, the multinomial and the two side
    factors: matrices of the side's highest mode index squared, built from
    one coefficient call per side, plus the mode index map.  No M x M matrix
    is formed.

    Parameters
    ----------
    basis : ModeBasis
    density : DensityPerturbation or a bare profile
        Only the profile matters; the table is independent of the strength.
    max_power : int
        Highest power J >= 1.
    nodes : int, optional
        Override the automatic quadrature node plan (at least 1 node).
    """
    if max_power < 1:
        raise ValidationError("max_power must be >= 1")
    if nodes is not None and nodes < 1:
        raise ValidationError(f"quadrature nodes must be >= 1, got {nodes}")
    m_size = basis.mode_count
    profile = density.profile if isinstance(density, DensityPerturbation) else density

    if isinstance(basis.domain, String1D):
        powers = [[(profile, j)] for j in range(1, max_power + 1)]
        coeffs, quad = _cosine_coeffs(m_size, basis.domain.length, powers, nodes)
        meta = {"rule": "exact-cosine"}
        if quad is not None:  # the plan every power used and its largest element error bound
            plan, error = quad
            meta = {"rule": "composite-gauss-legendre-32", "nodes": plan, "self_check_error": error}
        return SigmaPowerTable(max_power, m_size, meta, cosine=(np.ones(1), *coeffs))

    if not isinstance(profile, Separable2D):
        raise ValidationError("2D tables need a Separable2D profile")
    meta = {"rule": "composite-gauss-legendre-32", "nodes": nodes or "auto"}
    index = basis._modes().T - 1
    sizes = [int(n) + 1 for n in index.max(axis=1)]
    pos = np.full(sizes, -1)
    pos[index[0], index[1]] = np.arange(m_size)
    factors = [[] for _ in range(max_power + 1)]
    factors[0].append((1.0, np.eye(sizes[0]), np.eye(sizes[1])))  # S_0, the identity
    terms = profile.terms
    alphas = [  # every split of each power j over the terms
        alpha for j in range(1, max_power + 1)
        for alpha in itertools.product(range(j + 1), repeat=len(terms)) if sum(alpha) == j
    ]

    def factor(side: int, length: float) -> list:
        """Cosine coefficients of prod_t p_t^alpha_t on one side, for every alpha, from one call."""
        lists = [[(terms[t][side], p) for t, p in enumerate(alpha) if p > 0] for alpha in alphas]
        return _cosine_coeffs(sizes[side], length, lists, nodes)[0]

    if not profile.is_zero:  # else every S_j, j >= 1, is zero: no factors at all
        for alpha, cx, cy in zip(alphas, factor(0, basis.domain.a), factor(1, basis.domain.b)):
            j = sum(alpha)
            multinomial = float(math.factorial(j) // math.prod(map(math.factorial, alpha)))
            # <j| f |j'> on each side, one row per index up to the side's highest
            x = _exact_cosine_elements(sizes[0], cx)
            y = _exact_cosine_elements(sizes[1], cy)
            factors[j].append((multinomial, x, y))
    return SigmaPowerTable(
        max_power, m_size, meta, factors=tuple(map(tuple, factors)), index=index, pos=pos
    )
