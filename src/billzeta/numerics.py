"""Small numerical helpers: generalized binomials and compensated summation."""

import numpy as np


def half_binomial(k: int) -> float:
    """Generalized binomial coefficient binom(1/2, k) by the product recurrence.

    Exact in rationals up to rounding; avoids factorial overflow/cancellation.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    b = 1.0
    for j in range(k):
        b *= (0.5 - j) / (j + 1)
    return b


class KahanAccumulator:
    """Compensated (Kahan) accumulator for matrices summed term by term."""

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, term: np.ndarray) -> None:
        y = term - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t
