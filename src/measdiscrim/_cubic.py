"""The least real root of the pure-curve cubic, one row or many at once.

Every single-qubit curve value solves one one-parameter family of monic
cubics,

    f(y) = y(1 - y)^2 - P_I (y - c^2) = y^3 - 2y^2 + (1 - P_I) y + P_I c^2,

in y = c*x, where x = cos 2ϑ is the probe and c the overlap. For
0 ≤ P_I ≤ 1 and 0 ≤ c ≤ 1 the root the curve uses is always the least one:

* f(c^2) = c^2 (1 - c^2)^2 ≥ 0, f(1) = -P_I (1 - c^2) ≤ 0 and f → +∞,
  so one root lies in [c^2, 1] and one in [1, ∞);
* f(-c) = -c (1 + c)(1 + c - P_I) ≤ 0, so the third root lies in
  [-c, c^2]. All three roots are real, and this one is the least; for
  0 < c < 1 both bounds are strict, so it is simple.

The success of the probe x, ½(1 - P_I) + ½ sqrt((1 - c^2)(1 - x^2)) *
(1 - P_I/(1 - xc)), has slope -f(cx) sqrt((1 - c^2)(1 - x^2)) /
(2c (1 - x^2)(1 - xc)^2), and f(cx)/c is the cubic in x. The success
rises from x = -1 to the least root and falls after it; the next root, if
|x| ≤ 1 there, is a minimum, and the success at x = ±1 is only
½(1 - P_I). So the least root is the optimum on the cubic branch. At
P_I = 0 the cubic is y(1 - y)^2: the least root is y = 0 and the other
two coincide at 1.

`least_root` therefore computes only that root, in y, by the trigonometric
method, and never needs Cardano's branch or a double-root fallback: near a
double root only arccos loses accuracy, by about the square root of the
rounding, and the Newton steps that follow restore it. The callers that
want the probe take x = y/c.
"""

from __future__ import annotations

import math

import numpy as np

_LEAST = 4.0 * math.pi / 3.0


def least_root(c, p_inc) -> np.ndarray:
    """Least root y of y^3 - 2y^2 + (1 - P_I) y + P_I c^2 per row, in [-c, c^2].

    c and p_inc are float arrays that broadcast, with c in (0, 1] and
    P_I in [0, 1]. The root is the trigonometric column
    m cos(φ - 4π/3) + 2/3 of the depressed cubic t^3 + p t + q, y = t + 2/3,
    whose p = (1 - P_I) - 4/3 is never 0; it is clipped to the bracket,
    polished by three Newton steps (none where the derivative vanishes) and
    clipped again.
    """
    b1, b0 = 1.0 - p_inc, p_inc * c * c
    p = b1 - 4.0 / 3.0
    q = -16.0 / 27.0 + 2.0 * b1 / 3.0 + b0
    m = 2.0 * np.sqrt(-p / 3.0)
    phi = np.arccos(np.minimum(np.maximum(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
    lo, hi = -c, c * c
    y = np.clip(m * np.cos(phi - _LEAST) + 2.0 / 3.0, lo, hi)
    for _ in range(3):
        df = (3.0 * y - 4.0) * y + b1
        f = ((y - 2.0) * y + b1) * y + b0
        y = y - np.divide(f, df, out=np.zeros(y.shape), where=df != 0.0)
    return np.clip(y, lo, hi)
