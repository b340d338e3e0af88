"""Homogeneous Dirichlet eigenbasis and matrix elements of density powers.

The homogeneous problem is the negative Laplacian with Dirichlet conditions
on a string [0, L] or a rectangle [0, a] x [0, b].  Everything downstream
consumes the basis through two objects built here:

* ``ModeBasis``   -- eigenvalues and mode bookkeeping, sorted ascending
                     (ties broken by lexicographic multi-index);
* ``SigmaPowerTable`` -- the matrices <n| sigma^j |m> for j = 0..J.

On the string 2 sin(n t) sin(m t) = cos((n-m) t) - cos((n+m) t), so every
matrix element is read from the cosine coefficients c_k of the function:
<n| f |m> = (c_|n-m| - c_{n+m})/2, plus c_0 on the diagonal, the one rule
``_selection_rule`` applies.  The coefficients are exact: convolutions for
cosine factors, closed-form moments of polynomial pieces (with a rounding
bound) otherwise; a profile even about the midpoint of its side has exactly
zero odd coefficients, so S_j[n, m] is 0 for n + m odd (mirror parity, an
exact selection rule).  On the rectangle sigma^j is a sum of separable
products, so S_j is a sum of elementwise products of such string factors,
one per side.  A table keeps what generates S_j, never S_j itself, is built
from scratch on each call, and is read as ``SigmaPowerTable`` tells.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._record import dataclass
from .errors import NumericalError, ValidationError

_PIECE_DEGREE = 8  # a piecewise-polynomial product of degree D is cut into 1 + D // 8 pieces or more
_MOMENT_BLOCK = 2**15  # pieces x harmonics per array of the moment recursion
_RECURSION_UNITS = 64  # rounding units that bound the error of each moment r_p of a piece
_EPS = float(np.finfo(float).eps)
ROW_BLOCK = 64  # rows per step wherever S_j's couplings are walked


# ---------------------------------------------------------------------------
# domains and mode bases
# ---------------------------------------------------------------------------


@dataclass
class String1D:
    """Dirichlet string on [0, length]; mode n has eigenvalue (n pi / length)^2."""

    length: float = 1.0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValidationError("string length must be finite and positive")


@dataclass
class Rectangle2D:
    """Dirichlet rectangle [0,a] x [0,b]; mode (j,k) has pi^2 (j^2/a^2 + k^2/b^2)."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValidationError("rectangle sides must be finite and positive")


def _side_square(side: float) -> float:
    """side^2, or inf where it overflows: a side's term j^2 / side^2 is then 0, not an error.

    Such a term lies below the normal doubles, lost beside the other side's.
    """
    try:
        return side**2
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=None)
def _enumerate_rectangle_modes(a: float, b: float, count: int) -> np.ndarray:
    """The count lowest modes (j, k), shape (count, 2): ascending eigenvalue, ties by j then k.

    The lattice up to each side's bound (``_rectangle_side_bounds``) holds
    every mode at or below the count-th eigenvalue; one lexsort orders it.
    Memoized, so the array is read-only.
    """
    nx, ny = _rectangle_side_bounds(a, b, count)
    j, k = np.repeat(np.arange(1, nx + 1), ny), np.tile(np.arange(1, ny + 1), nx)
    eps = math.pi**2 * (j * j / _side_square(a) + k * k / _side_square(b))
    order = np.lexsort((k, j, eps))[:count]
    modes = np.stack((j[order], k[order]), axis=1)
    modes.flags.writeable = False
    return modes


@dataclass
class ModeBasis:
    """Truncated homogeneous eigenbasis: a domain plus the retained mode count."""

    domain: String1D | Rectangle2D
    mode_count: int

    def __post_init__(self):
        if not isinstance(self.mode_count, (int, np.integer)) or isinstance(self.mode_count, bool):
            raise ValidationError(f"mode_count must be an integer, got {self.mode_count!r}")
        if self.mode_count < 1:
            raise ValidationError("mode_count must be >= 1")
        object.__setattr__(self, "mode_count", int(self.mode_count))

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
        a2, b2 = _side_square(self.domain.a), _side_square(self.domain.b)
        return math.pi**2 * (jk[:, 0] ** 2 / a2 + jk[:, 1] ** 2 / b2)


# ---------------------------------------------------------------------------
# density profiles
# ---------------------------------------------------------------------------


@dataclass
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


def _dyadic(*values: float) -> tuple[list[int], int]:
    """Finite floats exactly as integer numerators over their least common denominator, a power
    of two, and that denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


@dataclass
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
        # algebraic, not oscillatory: a small constant sets _profile_range's sampling
        return len(self.coeffs) + 8

    def local_coefficients(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p(c + h t) in t on each piece [c - h, c + h] between edges, by Horner's rule; rounding bounds."""
        line = np.stack([0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])], axis=1)
        line = line, _EPS * np.abs(line)
        q = np.full((len(edges) - 1, 1), self.coeffs[-1]), np.zeros((len(edges) - 1, 1))
        for a in self.coeffs[-2::-1]:
            q = _local_product(line, q)  # convolve loops over the line's two columns
            q[0][:, 0] += a
            q[1][:, 0] += _EPS * np.abs(q[0][:, 0])
        return q

    @functools.lru_cache(maxsize=None)
    def is_even(self, length: float) -> bool:
        """p(L - x) = p(x) exactly, memoized.  Over the floats' common power-of-two denominator D,
        coeffs[p] = a_p / D and L = ell / D; with x = y / D, D^(n+1) p(L - x) = D^(n+1) p(x) is an
        identity of integer polynomials in y, compared from the highest power of y down to the first
        mismatch: sum_(p >= q) a_p C(p, q) ell^(p-q) D^(n-p) (-1)^q = a_q D^(n-q)."""
        if not all(map(math.isfinite, self.coeffs)):
            return False
        (*a, ell), den = _dyadic(*self.coeffs, length)
        n = len(a) - 1
        return all(
            (-1) ** q * sum(a[p] * math.comb(p, q) * ell ** (p - q) * den ** (n - p) for p in range(q, n + 1))
            == a[q] * den ** (n - q)
            for q in reversed(range(n + 1))
        )


@dataclass
class Tabulated:
    """Piecewise-linear interpolation through (x, y) samples, constant beyond them (np.interp)."""

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

    def local_coefficients(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v_0 + v_1)/2 + t (v_1 - v_0)/2 on each piece between edges, which include every abscissa
        inside them; np.interp's end values are within a few units of the largest |sample|."""
        v = np.interp(edges, self.xs, self.ys)
        q = np.stack([0.5 * (v[1:] + v[:-1]), 0.5 * (v[1:] - v[:-1])], axis=1)
        return q, np.full_like(q, 4 * _EPS * max(map(abs, self.ys)))

    @functools.lru_cache(maxsize=None)
    def is_even(self, length: float) -> bool:
        """Mirror-even exactly, memoized: ys a palindrome and xs[i] + xs[-1-i] = L, compared as
        integers over the floats' common power-of-two denominator."""
        if not all(map(math.isfinite, self.xs)) or self.ys != self.ys[::-1]:
            return False
        (*xs, ell), _ = _dyadic(*self.xs, length)
        return all(a + b == ell for a, b in zip(xs, reversed(xs)))


Profile1D = FourierCosine | Polynomial | Tabulated


@dataclass
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
def _profile_range(profile: Profile1D, length: float) -> tuple[float, float]:
    """Sampled (min, max) of the profile on [0, length], memoized: profiles are frozen and hashable."""
    # 32 samples per period of the fastest cosine, so high frequencies cannot alias
    xs = np.linspace(0.0, length, max(4097, 32 * profile.bandwidth() + 1))
    if isinstance(profile, Tabulated):
        xs = np.concatenate([xs, np.clip(profile.xs, 0.0, length)])  # np.union1d would import numpy.ma
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan, which fails the bound
        values = profile.evaluate(xs, length)
    return float(np.min(values)), float(np.max(values))


def sigma_range(profile: Profile, domain: String1D | Rectangle2D, scale: float = 1.0) -> tuple[float, float]:
    """Sampled (lo, hi) bound of scale * sigma over the domain; scale = lam bounds lam sigma.

    In 2D each separable term runs between the least and the greatest
    product (scale px) py over its sides' sampled range ends, and the
    terms' ends are added: exact for one term, a bound for several.
    numpy's min and max keep a NaN end, such as an overflowed side times
    a zero one, where Python's would drop it; it fails the density bound.
    A profile of the other dimension than the domain is a ValidationError.
    """
    if isinstance(domain, String1D):
        if isinstance(profile, Separable2D):
            raise ValidationError("1D domains need a 1D profile")
        ends = [scale * v for v in _profile_range(profile, domain.length)]
        return float(np.min(ends)), float(np.max(ends))
    if not isinstance(profile, Separable2D):
        raise ValidationError("2D domains need a Separable2D profile")
    lo = hi = 0.0
    for px, py in profile.terms:
        corners = [scale * p * q for p in _profile_range(px, domain.a) for q in _profile_range(py, domain.b)]
        lo, hi = lo + float(np.min(corners)), hi + float(np.max(corners))
    return lo, hi


def check_strength(profile: Profile, domain: String1D | Rectangle2D, lam: float) -> None:
    """Check the medium Sigma = 1 + lam sigma: lam finite and sup |lam sigma| < 1 over the domain.

    The bound keeps Sigma positive and the square-root binomial series
    convergent; sup |sigma| is the larger end of ``sigma_range``.
    """
    sup = max(map(abs, sigma_range(profile, domain)))
    if not math.isfinite(lam):
        raise ValidationError(f"lambda must be finite, got {lam!r}")
    bound = abs(lam) * sup
    if not bound < 1.0:  # also rejects a NaN bound
        raise ValidationError(f"density bound violated: sup|lambda*sigma| = {bound:.6g}, needs < 1")


# ---------------------------------------------------------------------------
# cosine coefficients
# ---------------------------------------------------------------------------


def _padded_cosine(coeffs: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients c_0..c_{2 n_max}, the ones the n_max-mode selection rule reads."""
    c = np.zeros(2 * n_max + 1)
    c[: min(len(coeffs), len(c))] = coeffs[: len(c)]
    return c


def _selection_rule(c: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """<n| f |m> on the string for 0-based n, m < N that broadcast, from c_0..c_{2N} (``_padded_cosine``).

    The one form of the rule, so every reader gets the same bits: (c[|n-m|] - c[n+m+2]) * 0.5 off the
    diagonal and c[0] - 0.5 c[2n+2] on it, c_|n-m| - c_{n+m} and c_0 - c_{2n} / 2 for 1-based n, m.
    """
    value = c[np.abs(n - m)]
    value -= c[n + m + 2]
    value *= 0.5
    return np.where(n == m, _diagonal_rule(c, n), value)


def _diagonal_rule(c: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``_selection_rule`` on the diagonal alone: <n| f |n> = c[0] - 0.5 c[2n+2] for 0-based n."""
    return c[0] - 0.5 * c[2 * n + 2]


def _local_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The product of two polynomials on each piece, as (coefficients, rounding bounds) pairs: row-wise
    np.convolve; (a + da)(b + db) - ab = a db + da (b + db), and each sum rounds within min(deg) + 2 units."""
    def convolve(x, y):
        out = np.zeros((len(x), x.shape[1] + y.shape[1] - 1))
        for i in range(x.shape[1]):
            out[:, i : i + y.shape[1]] += x[:, i, None] * y
        return out

    (a, da), (b, db) = a, b
    units = (min(a.shape[1], b.shape[1]) + 1) * _EPS
    bound = convolve(np.abs(a), db) + convolve(da, np.abs(b) + db) + units * convolve(np.abs(a), np.abs(b))
    return convolve(a, b), bound


def _cos_sin(x: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(k pi x) and sin(k pi x), k < count, for each row's x: with k = s a + b, s ~ sqrt(count),
    from those at s a x and at b x, each reduced mod 2 exactly, by angle addition."""
    step = math.isqrt(count - 1) + 1
    turns = [x * np.arange(0, count, step), x * np.arange(step)]
    a, b = (np.pi * (kx - 2.0 * np.rint(0.5 * kx)) for kx in turns)  # exact: the two are within 1
    ca, sa, cb, sb = np.cos(a)[..., None], np.sin(a)[..., None], np.cos(b)[:, None], np.sin(b)[:, None]
    joined = (ca * cb - sa * sb, sa * cb + ca * sb)
    return tuple(part.reshape(len(x), -1)[:, :count] for part in joined)


def _piece_moments(q: np.ndarray, centre: np.ndarray, half: np.ndarray, count: int) -> np.ndarray:
    """J_k = sum over pieces of h int_{-1}^{1} q(t) cos(k pi (c + h t)) dt, k = 0..count-1.

    Row i of q holds the coefficients of t^0..t^D on the piece of centre c
    and half width h.  With theta = k pi h, r_p = int_{-1}^{1} t^p cs(theta t) dt
    (cs = cos for even p, sin for odd) obeys, by parts, theta r_p =
    2 sin theta - p r_{p-1} (p even) and p r_{p-1} - 2 cos theta (p odd).  A
    step forward scales an error by p / theta and one back by theta / p, so
    r_p is taken forward where p < theta and back from r_{2D+40} = 0
    elsewhere (that start's error shrinks by prod_{p > D} D / p < 1e-20).
    The piece adds h (cos(k pi c) R - sin(k pi c) S), R and S the sums of
    q_p r_p over even and odd p.  About _MOMENT_BLOCK numbers per array are live.
    """
    degree = q.shape[1] - 1
    k = np.arange(count, dtype=float)
    out = np.zeros(count)
    rows = max(1, _MOMENT_BLOCK // count)
    for lo in range(0, len(q), rows):
        coeffs, c, h = q[lo : lo + rows, :, None], centre[lo : lo + rows, None], half[lo : lo + rows, None]
        theta = np.pi * h * k
        cos2, sin2 = (2.0 * part for part in _cos_sin(h, count))
        cut = int(min(count, degree / (np.pi * h.min()) + 1))  # past it, theta > D in every row
        sums = np.zeros((2, *theta.shape))  # over even and over odd p
        r = np.zeros_like(theta)
        for p in range(degree + 1):  # forward values where p >= theta may overflow: none is read
            r = (sin2 - p * r) / theta if p % 2 == 0 else (p * r - cos2) / theta
            np.add(sums[p % 2], coeffs[:, p] * r, out=sums[p % 2], where=p < theta)
        theta, sin2, cos2 = theta[:, :cut], sin2[:, :cut], cos2[:, :cut]
        r = np.zeros_like(theta)
        for p in range(2 * degree + 40, 0, -1):
            r = (sin2 - theta * r) / p if p % 2 == 0 else (cos2 + theta * r) / p
            if p <= degree + 1:  # r is r_{p-1}
                part = sums[(p - 1) % 2, :, :cut]
                np.add(part, coeffs[:, p - 1] * r, out=part, where=p - 1 >= theta)
        cos_c, sin_c = _cos_sin(c, count)
        out += np.sum(h * (cos_c * sums[0] - sin_c * sums[1]), axis=0)
    return out


@np.errstate(all="ignore")  # overflow and NaN show in the result and its bound, which the caller checks
def _piecewise_cosine_coeffs(n_max: int, length: float, factors) -> tuple[np.ndarray, float]:
    """c_0..c_{2 n_max} of prod_i p_i^{power_i} with a Polynomial or Tabulated factor, and their bound.

    [0, L] is cut at the tabulated abscissae and into 1 + D // _PIECE_DEGREE
    equal parts (D the degree); on each piece the factors' product is one
    polynomial in t in [-1, 1] with a rounding bound (``local_coefficients``,
    ``_local_product``).  ``_piece_moments`` gives its moments J_k and the
    cosine factors' product sum_a g_a cos(a pi x / L) shifts them: I_k =
    sum_a g_a (J_{k+a} + J_{|k-a|}) / 2, c_0 = I_0, c_k = 2 I_k.  Every element
    <n| f |m> is I_|n-m| - I_{n+m}, so twice the bound on any I_k bounds its error.
    """
    cosines = [(p, power) for p, power in factors if isinstance(p, FourierCosine)]
    pieces = [(p, power) for p, power in factors if not isinstance(p, FourierCosine)]
    tables = [p.xs for p, _ in pieces if isinstance(p, Tabulated)]
    degree = sum((1 if isinstance(p, Tabulated) else len(p.coeffs) - 1) * power for p, power in pieces)
    cuts = np.linspace(0.0, length, 2 + degree // _PIECE_DEGREE)
    edges = np.sort(np.clip(np.concatenate([cuts, *tables]), 0.0, length))
    edges = edges[np.concatenate([[True], edges[1:] > edges[:-1]])]  # as np.unique, without numpy.ma
    xi = edges / length
    centre, half = 0.5 * (xi[1:] + xi[:-1]), 0.5 * (xi[1:] - xi[:-1])
    product = np.ones((len(half), 1)), np.zeros((len(half), 1))
    for p, power in pieces:
        local = p.local_coefficients(edges)
        for _ in range(power):
            product = _local_product(product, local)
    (q, q_error), g, count = product, _cosine_power_product(cosines), 2 * n_max + 1
    moments = _piece_moments(q, centre, half, count + len(g) - 1)
    k, coeffs = np.arange(count), np.zeros(count)
    for a, g_a in enumerate(g):
        coeffs += 0.5 * g_a * (moments[k + a] + moments[np.abs(k - a)])
    coeffs[1:] *= 2.0
    # |r_p| <= 2 / (p + 1): a term q_p r_p is off by q_p's bound times that, by |q_p| times the
    # recursion's error and its own and the sums' rounding; the phase k pi c, off by about 2 pi k c
    # units, times a piece's moment, at most 4 / theta, adds 8 c / h units of h sum_p |q_p|
    width = 2.0 / np.arange(1, q.shape[1] + 1)
    units = width * (degree + len(g) + 3) + _RECURSION_UNITS
    terms = half * (q_error @ width + _EPS * (np.abs(q) @ units)) + 8 * _EPS * centre * np.abs(q).sum(1)
    return coeffs, 2.0 * float(np.sum(terms)) * float(np.sum(np.abs(g)))


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


def _cosine_coeffs(n_max: int, length: float, factor_lists) -> list[np.ndarray]:
    """Cosine coefficients of each list's prod_i p_i^{power_i}, enough for n_max modes, exactly.

    ``_cosine_power_product`` for cosine factors alone, else c_0..c_{2 n_max}
    from ``_piecewise_cosine_coeffs``, whose element error bound must stay
    within 1e-10 of the largest diagonal element (or of 1); odd ones are set
    to 0.0 when every factor is mirror-even (``is_even``), as rounding would
    not cancel them.  A failed bound or a non-finite coefficient raises NumericalError.
    """
    out = []
    for factors in factor_lists:
        if any(p.is_zero and power > 0 for p, power in factors):
            out.append(np.zeros(1))
            continue
        if all(isinstance(p, FourierCosine) for p, _ in factors):
            c = _cosine_power_product(factors)
        else:
            c, error = _piecewise_cosine_coeffs(n_max, length, factors)
            scale = max(1.0, float(np.max(np.abs(_selection_rule(c, np.arange(n_max), np.arange(n_max))))))
            if not error <= 1e-10 * scale:  # also catches a NaN bound
                raise NumericalError(f"cosine coefficients: element rounding bound {error:.3e} exceeds "
                                     f"1e-10 of {scale:.3e}")
            if all(p.is_even(length) for p, _ in factors):
                c[1::2] = 0.0  # the integrand is odd about the midpoint: not rounding, 0
        if not np.isfinite(c).all():
            raise NumericalError("cosine coefficients of the profile are not finite")
        out.append(c)
    return out


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


@dataclass(eq=False)  # holds arrays: identity == and hash
class SigmaPowerTable:
    """Matrices S_j[n, m] = <n| sigma^j |m> for j = 0..max_power over the modes n, m of ``basis``.

    The table is a run's medium: it keeps the basis and the profile sigma it
    was built from, and every reader checks a strength lambda against them
    with ``check_strength(lam)``; ``size`` is the basis's mode count.  Two storage
    forms, each what generates the matrices.  On the string, the cosine
    coefficients of each sigma^j (``cosine[j]``), cut after the highest
    harmonic for a cosine profile and c_0..c_{2 size} otherwise.  On
    the rectangle, the separable factors of each S_j: ``factors[j]`` lists
    (multinomial, X, Y) with S_j[n, m] the sum of multinomial X[x_n, x_m]
    Y[y_n, y_m] in list order, where (x_n, y_n) = ``index[:, n]`` is mode
    n's 0-based index on either side and ``pos[x, y]`` maps it back (-1 past
    the truncation).  A mirror-even profile (``is_even``) has exactly zero
    odd coefficients, in ``cosine[j]`` or behind a side factor, so S_j[n, m]
    = 0 where n + m, or that side's index sum, is odd.
    ``walk(j, rows)`` yields the nonzero couplings of S_j in the given rows
    (every row by default) one step of rows at a time, the only loop over
    them, and ``diagonal(j)`` the main diagonal; ``blocks()`` lists the
    exact blocks of S_1, found once from its walk.  ``restrict(j, modes)``
    forms S_j on any ascending modes, and ``power(j)`` on every mode, in a
    new array the caller owns.  All of them give the same bits.  What they
    derive from the fields (padded coefficients, nonzero patterns, the
    blocks) is memoized once per table in ``_memo``, which is not a field.
    """

    max_power: int
    basis: ModeBasis
    profile: Profile
    cosine: tuple[np.ndarray, ...] | None = None
    factors: tuple[tuple[tuple[float, np.ndarray, np.ndarray], ...], ...] | None = None
    index: np.ndarray | None = None  # shape (2, size) with the factors; None on the string
    pos: np.ndarray | None = None  # the inverse of index, shape (X.shape[0], Y.shape[0])

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})  # derived data, found once per table: not a field

    def _check(self, j: int) -> None:
        if not 0 <= j <= self.max_power:
            raise ValidationError(f"power {j} outside table range 0..{self.max_power}")

    @property
    def size(self) -> int:
        return self.basis.mode_count

    def check_strength(self, lam: float) -> None:
        """Check lam against the table's profile on its domain (``check_strength``)."""
        check_strength(self.profile, self.basis.domain, lam)

    def power(self, j: int) -> np.ndarray:
        """A new dense S_j, which the caller owns: ``restrict`` on every mode."""
        return self.restrict(j, np.arange(self.size))

    def restrict(self, j: int, modes: np.ndarray) -> np.ndarray:
        """S_j[np.ix_(modes, modes)] in a new array the caller owns, for ascending ``modes``.

        On the string, steps of R rows: each is the selection rule on the columns of ``modes`` from
        the step's first row to its band's end m - n <= w (``_coefficients``), at most min(B, R + w)
        of the B, written with its transpose (the rule is symmetric).  R = max(B / 32, ROW_BLOCK^2 /
        2 min(B, w + ROW_BLOCK)) keeps each temporary within max(B^2 / 32, ROW_BLOCK^2 / 2) entries.
        On the rectangle, the couplings of ``walk(j, modes)`` with both ends in ``modes``, scattered.
        """
        self._check(j)
        count = len(modes)
        out = np.zeros((count, count))
        if self.cosine is not None:
            c, _, width = self._coefficients(j)
            step = max(1, count // 32, ROW_BLOCK * ROW_BLOCK // 2 // max(1, min(count, width + ROW_BLOCK)))
            for lo in range(0, count, step):
                rows = modes[lo : lo + step]
                hi = np.searchsorted(modes, rows[-1] + width + 1)
                value = _selection_rule(c, rows[:, None], modes[lo:hi])
                out[lo : lo + len(rows), lo:hi] = value
                out[lo:hi, lo : lo + len(rows)] = value.T
                del value  # before the next step's is formed
            return out
        col = np.full(self.size, -1)
        col[modes] = np.arange(count)
        for _, n, m, value in self.walk(j, modes):
            inside = col[m] >= 0  # n is one of the walk's rows, ``modes``
            n, m = col[n[inside]], col[m[inside]]
            out[n, m] = out[m, n] = value[inside]
        return out

    def _add_factors(self, j: int, rows, cols, out: np.ndarray) -> np.ndarray:
        """Add S_j[rows, cols] to out (zeros): multinomial * X * Y per split, in list order."""
        nx, ny = self.pos.shape  # each side factor's order
        xi = self.index[0, rows] * nx  # flat indices: ``take`` gathers X[x_n, x_m] faster than 2-D indexing
        xi += self.index[0, cols]
        yi = self.index[1, rows] * ny
        yi += self.index[1, cols]
        for multinomial, x, y in self.factors[j]:
            term = x.take(xi)  # (multinomial * X) * Y, formed in place: two temporaries, not three
            term *= multinomial
            term *= y.take(yi)
            out += term
        return out

    def _coefficients(self, j: int) -> tuple[np.ndarray, int, int]:
        """c_0..c_{2 size} of sigma^j on the string, padded once, and the step and band w of offsets m - n.

        The coefficients are all the selection rule reads; no offset past w, the highest stored
        harmonic (or size - 1), couples.  The step is 2 when every odd one is exactly 0 (sigma^j
        mirror-even): an odd offset m - n then has n + m odd too, and S_j[n, m] is (0 - 0)/2.
        """
        key = "coefficients", j
        if key not in self._memo:
            c = _padded_cosine(self.cosine[j], self.size)
            self._memo[key] = c, 1 if c[1::2].any() else 2, min(len(self.cosine[j]), self.size) - 1
        return self._memo[key]

    def _pattern(self, j: int) -> tuple:
        """Per side, (start, columns) of each row's exact nonzeros in any split of S_j, CSR style."""
        key = "pattern", j
        if key not in self._memo:
            sides = []
            for side, size in zip((1, 2), self.pos.shape):
                nonzero = np.zeros((size, size), dtype=bool)
                for split in self.factors[j]:
                    nonzero |= split[side] != 0.0
                rows, cols = np.nonzero(nonzero)
                sides.append((np.searchsorted(rows, np.arange(size + 1)), cols))
            self._memo[key] = tuple(sides)
        return self._memo[key]

    def diagonal(self, j: int) -> np.ndarray:
        """S_j[n, n], from the selection rule or the factors in O(size), without forming S_j."""
        self._check(j)
        if self.cosine is None:
            return self._add_factors(j, slice(None), slice(None), np.zeros(self.size))
        return _diagonal_rule(self._coefficients(j)[0], np.arange(self.size))

    def walk(self, j: int, rows: np.ndarray | None = None):
        """(lo, n, m, S_j[n, m]) per step of ``_row_step(j)`` of the ascending rows (default all) from lo.

        The one loop over the couplings of S_j, their ``_couplings``.  j is
        checked at the call; each step is formed as it is read, so one step's
        pairs are in memory.
        """
        self._check(j)
        rows = np.arange(self.size) if rows is None else rows
        step = self._row_step(j)
        return ((rows[k], *self._couplings(j, rows[k : k + step])) for k in range(0, len(rows), step))

    def _row_step(self, j: int) -> int:
        """Rows per step of ``walk(j)``.

        ROW_BLOCK, or more when rows have few candidate entries, so that a
        step considers at most about ROW_BLOCK x max(ROW_BLOCK, entries per row);
        on the string those are the offsets ``_couplings`` strides over.
        """
        if self.cosine is not None:
            _, step, width = self._coefficients(j)
            per_row = width // step + 1
        else:
            (x_start, _), (y_start, _) = self._pattern(j)
            per_row = int(np.max(np.diff(x_start)[self.index[0]] * np.diff(y_start)[self.index[1]]))
        return max(ROW_BLOCK, ROW_BLOCK * ROW_BLOCK // max(per_row, 1))

    def _couplings(self, j: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, m, S_j[n, m]) for the nonzero entries with m >= n of the ascending rows, row by row.

        Entries are listed where the structure allows a nonzero and kept where
        the value is nonzero; every other entry of the rows with m >= n is
        exactly 0.  On the string the selection rule allows offsets m - n up
        to the highest stored harmonic of sigma^j, so a cosine profile of
        highest harmonic b lists O(j b) pairs per row, and only the even
        offsets when every odd coefficient of sigma^j is exactly 0 (a
        mirror-even profile: half the pairs of a dense S_j).  On the rectangle, a
        pair of side indices nonzero in X and in Y of some split, mapped
        through ``pos``: a few per row for cosine factors, and at most
        ``size`` per row (O(size^2) in all) for dense ones; the candidates'
        index arrays are released before the values are formed.  Each value
        is bit for bit what ``power(j)`` returns, and S_j is not formed.
        """
        if self.cosine is not None:
            c, step, width = self._coefficients(j)  # the selection rule on the offsets m - n it allows
            row, d = _ragged(np.minimum(width, self.size - 1 - rows) // step + 1)
            n, m = rows[row], rows[row] + step * d
            value = _selection_rule(c, n, m)
        else:
            (x_start, x_cols), (y_start, y_cols) = self._pattern(j)
            x, y = self.index[:, rows]
            x_count, y_count = np.diff(x_start)[x], np.diff(y_start)[y]
            row, k = _ragged(x_count * y_count)
            y_count = y_count[row]
            m = self.pos[x_cols[x_start[x[row]] + k // y_count], y_cols[y_start[y[row]] + k % y_count]]
            n = rows[row]
            del row, k, y_count  # with dense side factors these are the step's largest arrays
            upper = m >= n  # also drops side pairs past the truncation, where pos is -1
            n, m = n[upper], m[upper]
            del upper
            value = self._add_factors(j, n, m, np.zeros(len(n)))
        nonzero = value != 0.0
        return n[nonzero], m[nonzero], value[nonzero]

    def blocks(self) -> tuple[np.ndarray, ...]:
        """The exact blocks of S_1: each connected component of S_1 != 0, as ascending modes.

        Every entry of S_1 between two blocks is exactly 0.  Each step of
        ``walk(1)`` joins the trees of a forest over the modes with its pairs;
        the walk stops once the forest is one block, or the two parity classes
        on a mirror-even string (S_1 is exactly 0 between them), so a dense or
        a mirror-even S_1 settles after its first step.  Blocks come in order
        of their lowest mode.  Found once per table, so the arrays are read-only.
        """
        if "blocks" not in self._memo:
            root = np.arange(self.size)  # every mode's tree root: the lowest mode joined to it
            parity = self.cosine is not None and self._coefficients(1)[1] == 2
            coarsest = root % 2 if parity else np.zeros_like(root)
            for _, n, m, _ in self.walk(1):
                root = _join(root, n, m)
                if np.array_equal(root, coarsest):
                    break
            order = np.argsort(root, kind="stable")
            order.flags.writeable = False  # every caller shares the blocks, views of order
            cuts = np.flatnonzero(np.diff(root[order])) + 1
            self._memo["blocks"] = tuple(np.split(order, cuts))
        return self._memo["blocks"]


@functools.lru_cache(maxsize=None)
def _rectangle_side_bounds(a: float, b: float, count: int) -> tuple[int, int]:
    """Upper bounds on each side's highest index among the count lowest rectangle modes.

    No mode is listed.  With side frequencies u = pi / a and v = pi / b,
    bisection finds the least lam with at least count lattice modes
    j^2 u^2 + k^2 v^2 <= lam, counted in one numpy pass over the shorter
    side's indices (O(sqrt(count))), from the k x k square's corner
    k^2 (u^2 + v^2), k = ceil(sqrt(count)).  The count-th eigenvalue is at
    most that lam, so a retained mode has n_x^2 u^2 + v^2 <= lam, and likewise
    n_y; no index exceeds count.  Only u^2, v^2 and the corner are squared,
    so any side whose eigenvalue terms are normal doubles is safe; a side's
    a^2 itself may overflow.  Counts past count are cut to count.
    """
    k = math.isqrt(count - 1) + 1
    u, v = math.pi / a, math.pi / b
    lo, hi = 0.0, k * k * (u * u + v * v)
    short, long_ = sorted((u, v), reverse=True)  # the shorter side's frequency is the larger

    def modes_below(lam: float) -> int:
        i = np.arange(1, int(min(count, math.sqrt(lam) / short)) + 1)
        per_row = np.sqrt(np.maximum(lam - (i * short) ** 2, 0.0)) / long_
        return int(np.floor(np.minimum(per_row, count)).sum())

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if modes_below(mid) >= count else (mid, hi)
    lam = hi * (1 + 1e-9)  # room for rounding in the lattice counts
    return tuple(
        min(count, int(min(count, math.sqrt(max(lam - other * other, 0.0)) / side)) + 1)
        for side, other in ((u, v), (v, u))
    )


def rectangle_table_doubles(domain: Rectangle2D, profile: Profile, mode_count: int, max_power: int) -> int:
    """Doubles ``build_sigma_table`` stores for a rectangle, counted from above without listing modes.

    Each split of the powers 0..J over the profile's T terms, C(J + T, T) of
    them, keeps two side factors, n x n for a bound on the side's highest
    mode index n; the index map adds 2 per mode and its inverse ``pos``
    n_x n_y.  The nonzero pattern ``walk`` keeps for the power it reads
    takes at most n^2 + n + 1 more per side.
    """
    nx, ny = _rectangle_side_bounds(domain.a, domain.b, mode_count)
    terms = len(profile.terms) if isinstance(profile, Separable2D) else 1
    splits = math.comb(max_power + terms, terms)
    return splits * (nx * nx + ny * ny) + (nx + 1) ** 2 + (ny + 1) ** 2 + nx * ny + 2 * mode_count


def walk_step_bound(domain: String1D | Rectangle2D, profile: Profile, mode_count: int, max_power: int) -> int:
    """At most R max(R, per row) entries in a step of ``walk(j)``, j <= J = max_power; R = min(ROW_BLOCK, M).

    Counted without building the table.  Per row on the string, the offsets
    up to S_J's highest harmonic: J b + 1 for a cosine profile of highest
    harmonic b, else every column.  On the rectangle, the product of the two
    sides' candidates: each side's index bound (about 1.3 M together), which
    covers dense factors, or 2 J b + 1 (the factors' |i - k| <= J b) where
    every term's profile on that side is a cosine of highest harmonic at most b.
    """
    rows, per_row = min(ROW_BLOCK, mode_count), mode_count
    if isinstance(domain, Rectangle2D):
        per_row = 1
        for side, bound in enumerate(_rectangle_side_bounds(domain.a, domain.b, mode_count)):
            sides = [term[side] for term in profile.terms] if isinstance(profile, Separable2D) else [None]
            if all(isinstance(p, FourierCosine) for p in sides):
                bound = min(bound, 2 * max_power * max((p.bandwidth() for p in sides), default=0) + 1)
            per_row *= bound
    elif isinstance(profile, FourierCosine):
        per_row = min(mode_count, max_power * profile.bandwidth() + 1)
    return rows * max(rows, per_row)


def build_sigma_table(basis: ModeBasis, profile: Profile, max_power: int) -> SigmaPowerTable:
    """Build the table of <n| sigma^j |m>, j = 0..max_power, which keeps the basis and the profile.

    A string table keeps the cosine coefficients of each sigma^j, exact to
    rounding (``_cosine_coeffs``): O(J b) numbers for a cosine profile of
    highest harmonic b, 2M + 1 otherwise.  Those of a power whose factors
    are all mirror-even (``is_even``) are exactly 0.0 at every odd harmonic,
    so S_j[n, m] = 0 exactly for n + m odd and the blocks of S_1 split by
    parity; a profile whose float coefficients are not exactly
    mirror-symmetric keeps rounding noise there and one block, which is
    still correct, only slower.  A rectangle table keeps, for each split
    of each power over the profile's terms, the multinomial and the two side
    factors: matrices of the side's highest mode index squared, built from
    one coefficient call per side, plus the mode index map.  No M x M matrix
    is formed.

    Parameters
    ----------
    basis : ModeBasis
    profile : Profile
        sigma alone; the table is independent of the strength lambda.
    max_power : int
        Highest power J >= 1.
    """
    if max_power < 1:
        raise ValidationError("max_power must be >= 1")
    m_size = basis.mode_count

    if isinstance(basis.domain, String1D):
        if isinstance(profile, Separable2D):
            raise ValidationError("1D tables need a 1D profile")
        powers = [[(profile, j)] for j in range(1, max_power + 1)]
        coeffs = _cosine_coeffs(m_size, basis.domain.length, powers)
        return SigmaPowerTable(max_power, basis, profile, cosine=(np.ones(1), *coeffs))

    if not isinstance(profile, Separable2D):
        raise ValidationError("2D tables need a Separable2D profile")
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
        return _cosine_coeffs(sizes[side], length, lists)

    if not profile.is_zero:  # else every S_j, j >= 1, is zero: no factors at all
        for alpha, cx, cy in zip(alphas, factor(0, basis.domain.a), factor(1, basis.domain.b)):
            j = sum(alpha)
            multinomial = float(math.factorial(j) // math.prod(map(math.factorial, alpha)))
            # <j| f |j'> on each side, one row per index up to the side's highest
            x, y = (_selection_rule(_padded_cosine(cs, n), np.arange(n)[:, None], np.arange(n))
                    for cs, n in zip((cx, cy), sizes))
            factors[j].append((multinomial, x, y))
    return SigmaPowerTable(max_power, basis, profile, factors=tuple(map(tuple, factors)), index=index, pos=pos)
