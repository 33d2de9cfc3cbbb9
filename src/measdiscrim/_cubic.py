"""The least real root of the pure-curve cubic, one row or many at once.

Every single-qubit curve value solves one one-parameter family of cubics,

    f(y) = y(1 - y)^2 - P_I (y - c^2) = y^3 - 2y^2 + (1 - P_I) y + P_I c^2,

in y = c*x, where x = cos 2ϑ is the probe and c the overlap; the x-form
c^2 x^3 - 2c x^2 + (1 - P_I) x + P_I c is f(c x)/c. For 0 ≤ P_I ≤ 1 and
0 ≤ c ≤ 1 the root the curve uses is always the least one:

* f(c^2) = c^2 (1 - c^2)^2 ≥ 0, f(1) = -P_I (1 - c^2) ≤ 0 and f → +∞,
  so one root lies in [c^2, 1] and one in [1, ∞);
* f(-c) = -c (1 + c)(1 + c - P_I) ≤ 0, so the third root lies in
  [-c, c^2]. All three roots are real, and this one is the least; for
  0 < c < 1 both bounds are strict, so it is simple.

The success of the probe x, ½(1 - P_I) + ½ sqrt((1 - c^2)(1 - x^2)) *
(1 - P_I/(1 - xc)), has slope -f(cx) sqrt((1 - c^2)(1 - x^2)) /
(2c (1 - x^2)(1 - xc)^2). It rises from x = -1 to the least root and
falls after it; the next root, if |x| ≤ 1 there, is a minimum, and the
success at x = ±1 is only ½(1 - P_I). So the least root is the optimum
on the cubic branch. At P_I = 0 the cubic is y(1 - y)^2: the least root
is y = 0 and the other two coincide at 1.

`least_root` therefore computes only that root, by the trigonometric
method, and never needs Cardano's branch or a double-root fallback: near a
double root only arccos loses accuracy, by about the square root of the
rounding, and the Newton steps that follow restore it.
"""

from __future__ import annotations

import math

import numpy as np

_LEAST = 4.0 * math.pi / 3.0


def _newton_polish(coefs, x: np.ndarray) -> np.ndarray:
    """Three Newton steps on every entry of x; coefficients broadcast.

    An entry whose derivative vanishes stays put; NaN entries stay NaN.
    """
    a3, a2, a1, a0 = coefs
    da3, da2 = 3.0 * a3, 2.0 * a2
    for _ in range(3):
        df = (da3 * x + da2) * x + a1
        f = ((a3 * x + a2) * x + a1) * x + a0
        x = x - np.divide(f, df, out=np.zeros(x.shape), where=df != 0.0)
    return x


def least_root(a3, a2, a1, a0, lo, hi) -> np.ndarray:
    """Least real root of a3 x^3 + a2 x^2 + a1 x + a0 per row, in [lo, hi].

    The arguments broadcast to one shape and are flattened. Each row is
    normalized by its largest coefficient; the root is the trigonometric
    column m cos(φ - 4π/3) - a2/(3 a3), clipped to the bracket, polished
    by three Newton steps and clipped again. The caller supplies a bracket
    that holds the least root and no other, such as [-c, c^2] for the
    y-form of the module's cubic or [-1, c] for its x-form.
    """
    rows = np.array(np.broadcast_arrays(a3, a2, a1, a0, lo, hi), dtype=float)
    coefs, (lo, hi) = rows[:4].reshape(4, -1), rows[4:].reshape(2, -1)
    coefs /= np.abs(coefs).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Depressed form t^3 + p t + q with x = t - a2/(3 a3).
        b2, b1, b0 = coefs[1:] / coefs[0]
        shift = b2 / 3.0
        p = b1 - b2 * b2 / 3.0
        # Curves share b2 over many rows: cube each distinct value once.
        # The array power keeps its bits; b2 * b2 * b2 would not.
        distinct, inverse = np.unique(b2, return_inverse=True)
        q = 2.0 * (distinct**3)[inverse] / 27.0 - b2 * b1 / 3.0 + b0
        m = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.minimum(np.maximum(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
        x = m * np.cos(phi - _LEAST) - shift
    x = _newton_polish(coefs, np.clip(x, lo, hi))
    return np.clip(x, lo, hi)
