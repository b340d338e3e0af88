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
exact Chebyshev products for a cosine profile and composite Gauss-Legendre
moments otherwise.  A string table keeps only the coefficients of sigma^j,
from which any diagonal or block of rows of S_j is read directly and dense
matrices are built on first use.  Rectangle tables are dense products of such
string factors, S_1..S_J only: the identity S_0 is never stored.  Every table
is built from scratch on each call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, ValidationError

_GL_PANEL_NODES = 32
_NODE_CHUNK = 1024  # quadrature nodes per block of exponential rows
ROW_BLOCK = 64  # rows per step wherever a dense table is built or S_1 is walked


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
def _enumerate_rectangle_modes(a: float, b: float, count: int) -> tuple[tuple[int, int], ...]:
    # grow the candidate square until the count-th smallest eigenvalue is
    # provably below anything outside the candidate set (memoized, so a tuple)
    cap = max(4, int(math.isqrt(count)) + 2)
    while True:
        cand = [
            (math.pi**2 * (j * j / a**2 + k * k / b**2), j, k)
            for j in range(1, cap + 1)
            for k in range(1, cap + 1)
        ]
        if len(cand) >= count:
            cand.sort()
            boundary = math.pi**2 * (cap + 1) ** 2 * min(1 / a**2, 1 / b**2)
            if cand[count - 1][0] < boundary:
                return tuple((j, k) for _, j, k in cand[:count])
        cap *= 2


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
        return list(_enumerate_rectangle_modes(self.domain.a, self.domain.b, self.mode_count))

    def eigenvalues(self) -> np.ndarray:
        if isinstance(self.domain, String1D):
            n = np.arange(1, self.mode_count + 1, dtype=float)
            return (n * math.pi / self.domain.length) ** 2
        jk = np.asarray(self.mode_indices(), dtype=float)
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


def _profile_sup(profile: Profile1D, length: float) -> float:
    """Sampled sup |profile| on [0, length]."""
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


@functools.lru_cache(maxsize=None)
def _gl_panel(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


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
    xg, wg = _gl_panel(_GL_PANEL_NODES)
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
    2 max |dI|; it guards against an insufficient node plan.  Returns the
    coefficients (one row per list) and (the plan, the largest error bound).
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
    return moments, (plan, float(np.max(err)))


def _cosine_coeffs(n_max: int, length: float, factor_lists, nodes: int | None = None):
    """Cosine coefficients of each list's prod_i p_i^{power_i}, enough for n_max modes.

    Exact (Chebyshev products, trailing zeros trimmed) for cosine factors;
    every other list goes into one shared quadrature call.  Returns the
    coefficients, one array per list, and that call's (node plan, largest
    self-check error), or None when no list needed quadrature.
    """
    out = []
    for factors in factor_lists:
        if any(p.is_zero and power > 0 for p, power in factors):
            out.append(np.zeros(1))
        elif all(isinstance(p, FourierCosine) for p, _ in factors):
            cheb = np.polynomial.chebyshev  # cos p t cos q t = (cos (p+q) t + cos (p-q) t)/2
            series = (cheb.chebpow(p.coeffs or (0.0,), power, None) for p, power in factors)
            out.append(functools.reduce(cheb.chebmul, series, np.ones(1)))
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


@dataclass(frozen=True)
class SigmaPowerTable:
    """Matrices S_j[n, m] = <n| sigma^j |m> for j = 0..max_power, n, m = 1..size.

    Two storage forms: on the string the cosine coefficients of each sigma^j
    (``cosine``), cut after the highest harmonic for a cosine profile and
    c_0..c_{2 size} otherwise; on the rectangle dense ``entries`` of
    S_1..S_J (``entries[j - 1]`` is S_j).  ``power`` returns the dense matrix
    either way; ``diagonal(j, d)`` reads one diagonal of S_j and
    ``rows(j, lo, hi)`` a block of its rows, both without forming S_j, for
    offsets up to ``width(j)``.
    """

    max_power: int
    size: int
    entries: np.ndarray | None  # shape (max_power, size, size); None on the string
    quadrature_meta: dict
    cosine: tuple[np.ndarray, ...] | None = None
    _dense: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _padded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _check(self, j: int) -> None:
        if not 0 <= j <= self.max_power:
            raise ValidationError(f"power {j} outside table range 0..{self.max_power}")

    def power(self, j: int) -> np.ndarray:
        self._check(j)
        if self.cosine is None:
            return self.entries[j - 1] if j else np.eye(self.size)
        if j not in self._dense:  # built once, the same matrix on every call
            self._dense[j] = _exact_cosine_elements(self.size, self.cosine[j])
        return self._dense[j]

    def width(self, j: int) -> int:
        """Highest offset d at which S_j[n, n + d] can be nonzero.

        The highest stored harmonic of sigma^j on the string (capped at
        size - 1, which quadrature coefficients always reach), and size - 1
        for a dense table.
        """
        self._check(j)
        if self.cosine is None:
            return self.size - 1
        return min(len(self.cosine[j]) - 1, self.size - 1)

    def _coefficients(self, j: int) -> np.ndarray:
        """c_0..c_{2 size} of sigma^j on the string: all the selection rule reads, padded once."""
        if j not in self._padded:
            self._padded[j] = _padded_cosine(self.cosine[j], self.size)
        return self._padded[j]

    def diagonal(self, j: int, d: int = 0) -> np.ndarray:
        """S_j[n, n + d] for n < size - d.

        Read without forming S_j on the string; a read-only view on the rectangle.
        """
        self._check(j)
        m = self.size
        if not 0 <= d < m:
            raise ValidationError(f"diagonal offset {d} outside 0..{m - 1}")
        if self.cosine is None:
            return np.diagonal(self.entries[j - 1], d) if j else np.full(m - d, float(d == 0))
        # the selection rule of _exact_cosine_elements, one diagonal at a time
        c = self._coefficients(j)
        if d == 0:
            return c[0] - 0.5 * c[2::2]
        return 0.5 * (c[d] - c[d + 2 : 2 * m - d + 1 : 2])

    def rows(self, j: int, lo: int, hi: int) -> tuple[int, np.ndarray]:
        """(c0, S_j[lo:hi, c0:c1]): rows lo..hi-1 over every column within width(j) of them.

        c0 = max(0, lo - width(j)) and c1 = min(size, hi + width(j)).  On the
        string the block comes from the selection rule without forming S_j
        (bit for bit what ``power`` holds there); on the rectangle it is a
        read-only view of every column.
        """
        self._check(j)
        m = self.size
        if not 0 <= lo < hi <= m:
            raise ValidationError(f"row range {lo}..{hi} outside 0..{m}")
        if self.cosine is None:
            return 0, self.entries[j - 1][lo:hi] if j else np.eye(hi - lo, m, lo)
        w = self.width(j)
        c0 = max(0, lo - w)
        c = self._coefficients(j)
        n = np.arange(lo, hi)
        k = np.arange(c0, min(m, hi + w))
        block = c[np.abs(n[:, None] - k)] - c[n[:, None] + k + 2]  # c_|n-m| - c_{n+m}, 1-based
        block *= 0.5
        r = np.arange(hi - lo)
        block[r, r + lo - c0] = c[0] - 0.5 * c[2 * n + 2]
        return c0, block


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
    each).  A rectangle table is dense.

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
        return SigmaPowerTable(max_power, m_size, None, meta, (np.ones(1), *coeffs))

    if not isinstance(profile, Separable2D):
        raise ValidationError("2D tables need a Separable2D profile")
    meta = {"rule": "composite-gauss-legendre-32", "nodes": nodes or "auto"}
    entries = np.zeros((max_power, m_size, m_size))
    if profile.is_zero:  # every S_j, j >= 1, is zero; also covers an empty term list
        return SigmaPowerTable(max_power, m_size, entries, meta)
    modes = np.asarray(basis.mode_indices(), dtype=int)
    terms = profile.terms
    alphas = [  # every split of each power j over the terms
        alpha for j in range(1, max_power + 1)
        for alpha in itertools.product(range(j + 1), repeat=len(terms)) if sum(alpha) == j
    ]

    def factor(side: int, length: float) -> list:
        """Cosine coefficients of prod_t p_t^alpha_t on one side, for every alpha, from one call."""
        lists = [[(terms[t][side], p) for t, p in enumerate(alpha) if p > 0] for alpha in alphas]
        return _cosine_coeffs(int(modes[:, side].max()), length, lists, nodes)[0]

    index = modes.T - 1  # index[side][i]: mode i's 0-based index on that side
    sizes = modes.max(axis=0)
    for alpha, cx, cy in zip(alphas, factor(0, basis.domain.a), factor(1, basis.domain.b)):
        j = sum(alpha)
        multinomial = float(math.factorial(j) // math.prod(map(math.factorial, alpha)))
        # <j| f |j'> on each side, small; each row block of their product goes straight in
        ex = _exact_cosine_elements(int(sizes[0]), cx)
        ey = _exact_cosine_elements(int(sizes[1]), cy)
        for lo in range(0, m_size, ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            x = ex[np.ix_(index[0, rows], index[0])]
            y = ey[np.ix_(index[1, rows], index[1])]
            entries[j - 1, rows] += multinomial * x * y

    return SigmaPowerTable(max_power, m_size, entries, meta)
