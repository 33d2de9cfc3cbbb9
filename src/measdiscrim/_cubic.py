"""Closed-form real-root solver for cubics, one polynomial or many at once.

Solves a3*x^3 + a2*x^2 + a1*x + a0 = 0 by the trigonometric method when
three real roots exist and by Cardano's formula otherwise, with graceful
degradation to quadratic/linear solves when leading coefficients vanish.
A bisection fallback guards the nearly-degenerate discriminant region and
every root is polished by a few Newton steps.

`real_roots_array` takes coefficient arrays and solves every row with
numpy; only rows with a vanishing leading coefficient or a near-degenerate
discriminant go through the scalar fallback `_fallback_roots`.
`real_roots` is the one-polynomial wrapper.
"""

from __future__ import annotations

import math

import numpy as np

# Relative threshold below which a leading coefficient is treated as zero.
_COEF_EPS = 1e-14
# Discriminant region where closed forms lose accuracy; see real_roots_array.
_DEGENERATE_DISC = 1e-14
# Roots closer than this (relative) are one root.
_DUPLICATE = 1e-9
_THIRDS = 2.0 * math.pi * np.arange(3) / 3.0


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


def _bisect(coefs: tuple[float, float, float, float], lo: float, hi: float) -> float:
    a3, a2, a1, a0 = coefs

    def f(x: float) -> float:
        return ((a3 * x + a2) * x + a1) * x + a0

    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo < 1e-16 * max(1.0, abs(mid)):
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def real_roots_array(a3, a2, a1, a0) -> np.ndarray:
    """Real roots of many cubics: row k solves a3[k] x^3 + ... + a0[k] = 0.

    The coefficients broadcast to one shape and are flattened. Returns an
    (n, 3) array whose row k holds the distinct real roots of polynomial k
    in ascending order, padded with NaN.
    """
    coefs = np.array(np.broadcast_arrays(a3, a2, a1, a0), dtype=float).reshape(4, -1)
    scale = np.abs(coefs).max(axis=0)
    if not scale.all():
        raise ValueError("all coefficients are zero")
    coefs /= scale
    a3 = coefs[0]

    with np.errstate(divide="ignore", invalid="ignore"):
        # Depressed form t^3 + p t + q with x = t - a2/(3 a3).
        b2, b1, b0 = coefs[1:] / a3
        shift = b2 / 3.0
        p = b1 - b2 * b2 / 3.0
        q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
        disc = -4.0 * p**3 - 27.0 * q * q
        # Near a multiple root the closed forms cancel badly.
        fallback = (np.abs(a3) < _COEF_EPS) | (
            np.abs(disc) < _DEGENERATE_DISC * np.maximum(1.0, p * p * p * p)
        )
        # Roots by column: three (trigonometric method) where disc > 0,
        # else one (Cardano) in the first column.
        one = disc <= 0.0
        m = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.minimum(np.maximum(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
        roots = m * np.cos(phi - _THIRDS[:, None]) - shift
        rad = np.sqrt(q * q / 4.0 + p**3 / 27.0)
        cardano = np.cbrt(-q / 2.0 + rad) + np.cbrt(-q / 2.0 - rad) - shift
    roots[0] = np.where(one, cardano, roots[0])
    roots[1:, one] = np.nan
    roots[:, fallback] = np.nan
    roots = _newton_polish(coefs[:, None, :], roots).T

    for k in np.flatnonzero(fallback):
        found = _fallback_roots(tuple(coefs[:, k].tolist()), float(p[k]), float(shift[k]))
        roots[k, : len(found)] = found

    roots.sort(axis=1)
    # Collapse duplicates: drop a root within _DUPLICATE of the last kept one.
    r0, r1, r2 = roots.T
    dup1 = np.abs(r1 - r0) <= _DUPLICATE * np.maximum(1.0, np.abs(r1))
    dup2 = np.abs(r2 - np.where(dup1, r0, r1)) <= _DUPLICATE * np.maximum(1.0, np.abs(r2))
    roots[dup1, 1] = np.nan
    roots[dup2, 2] = np.nan
    # Keep NaN padding at the end of each row.
    roots.sort(axis=1)
    return roots


def real_roots(a3: float, a2: float, a1: float, a0: float) -> np.ndarray:
    """All real roots of one cubic, ascending, without multiplicity."""
    roots = real_roots_array(a3, a2, a1, a0)[0]
    return roots[~np.isnan(roots)]


def _fallback_roots(
    coefs: tuple[float, float, float, float], p: float, shift: float
) -> list[float]:
    """Scalar path for one normalized polynomial the array path cannot trust.

    A vanishing leading coefficient leaves a quadratic or linear solve;
    otherwise the discriminant is nearly zero, so the distinct roots are
    bracketed off the stationary points, bisected and polished.
    """
    a3, a2, a1, a0 = coefs
    if abs(a3) < _COEF_EPS:
        return _quadratic_roots(a2, a1, a0)
    candidates = np.array(_degenerate_roots(coefs, p, shift))
    found = sorted(_newton_polish(coefs, candidates).tolist())
    out: list[float] = []
    for x in found:
        if not out or abs(x - out[-1]) > _DUPLICATE * max(1.0, abs(x)):
            out.append(x)
    # Polishing next to a double root can split it into near-copies that
    # survive the duplicate test; a cubic has at most three roots, so merge
    # the closest pair until three remain.
    while len(out) > 3:
        del out[min(range(1, len(out)), key=lambda i: out[i] - out[i - 1])]
    return out


def _quadratic_roots(a2: float, a1: float, a0: float) -> list[float]:
    if abs(a2) < _COEF_EPS:
        if abs(a1) < _COEF_EPS:
            raise ValueError("degenerate polynomial with no finite roots")
        return [-a0 / a1]
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    # Citardauq form for the cancellation-prone root.
    q = -0.5 * (a1 + math.copysign(s, a1))
    r1 = q / a2
    r2 = a0 / q if q != 0.0 else -a1 / a2 - r1
    return sorted({r1, r2})


def _degenerate_roots(
    coefs: tuple[float, float, float, float], p: float, shift: float
) -> list[float]:
    a3 = coefs[0]
    lo, hi = -1e8, 1e8
    if p >= 0.0:
        # Monotone cubic: single real root.
        return [_bisect(coefs, lo, hi)]
    crit = math.sqrt(-p / 3.0)
    xs = sorted((-crit - shift, crit - shift))
    brackets = [(lo, xs[0]), (xs[0], xs[1]), (xs[1], hi)]

    def f(x: float) -> float:
        b3, b2, b1, b0 = coefs
        return ((b3 * x + b2) * x + b1) * x + b0

    roots = []
    for a, b in brackets:
        fa, fb = f(a), f(b)
        if fa == 0.0:
            roots.append(a)
        elif (fa < 0.0) != (fb < 0.0):
            roots.append(_bisect(coefs, a, b))
    # A double root sits at a critical point without a sign change; keep any
    # critical point where the polynomial nearly vanishes.
    span = max(abs(xs[0]), abs(xs[1]), 1.0)
    for x in xs:
        if abs(f(x)) <= 1e-10 * max(abs(a3), 1.0) * span**3:
            roots.append(x)
    if not roots:
        roots = [min(xs, key=lambda x: abs(f(x)))]
    return roots
