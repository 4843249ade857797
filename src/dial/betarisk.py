"""Beta-distribution risk measures.

Feasibility of a state-action step is modelled as a Beta-distributed random
variable on (0, 1).  This module provides the pieces the rest of the package
builds on: the regularized incomplete beta function (continued fraction),
digamma and trigamma, the lower-tail quantile (value at risk), the
closed-form conditional value at risk of a Beta variable with its shape
partials, and the closed-form KL divergence between two Beta distributions.

Scalar entry points take `BetaParams` / `RiskLevel` and are the documented
contract.  The `*_arr` functions are the same numerics vectorized over numpy
arrays; the scalar functions call them, so both paths agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import softplus

__all__ = [
    "BetaParams",
    "RiskLevel",
    "log_beta_fn",
    "digamma",
    "beta_cdf",
    "var_lambda",
    "cvar_lambda",
    "beta_kl",
    "digamma_arr",
    "trigamma_arr",
    "betainc_arr",
    "var_arr",
    "cvar_arr",
    "cvar_grad_arr",
    "beta_kl_arr",
    "beta_mean_arr",
]


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution, both strictly positive."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        a1, a2 = self.alpha1, self.alpha2
        if not (math.isfinite(a1) and math.isfinite(a2)) or a1 <= 0.0 or a2 <= 0.0:
            raise ValueError(f"Beta shape parameters must be finite and > 0, got ({a1}, {a2})")

    @property
    def mean(self) -> float:
        return self.alpha1 / (self.alpha1 + self.alpha2)


@dataclass(frozen=True)
class RiskLevel:
    """Tail probability lam in (0, 1].  lam = 1 recovers the plain mean."""

    lam: float

    def __post_init__(self):
        lam = self.lam
        if not math.isfinite(lam) or lam <= 0.0 or lam > 1.0:
            raise ValueError(f"risk level must lie in (0, 1], got {lam}")


# ---------------------------------------------------------------------------
# log-gamma (Lanczos, g = 7, 9 coefficients) and digamma

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _lgamma_core(z: np.ndarray) -> np.ndarray:
    # valid for z >= 0.5
    z = z - 1.0
    x = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, 9):
        x = x + _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(x)


def lgamma_arr(z) -> np.ndarray:
    """Elementwise ln Gamma(z) for z > 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 0.5
    if small.any():
        zs = z[small]
        # reflection keeps the Lanczos core in its accurate region
        out[small] = np.log(np.pi / np.sin(np.pi * zs)) - _lgamma_core(1.0 - zs)
    rest = ~small
    if rest.any():
        out[rest] = _lgamma_core(z[rest])
    return out


def log_beta_fn(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)."""
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise ValueError(f"log_beta_fn requires positive finite arguments, got ({a}, {b})")
    return float(_log_beta_arr(np.float64(a), np.float64(b)))


def _log_beta_arr(a, b) -> np.ndarray:
    return lgamma_arr(a) + lgamma_arr(b) - lgamma_arr(a + b)


def _lift(x, name: str, term):
    """Checks x > 0 and lifts it above 12 by unit steps.

    Returns the lifted argument and the sum of term over the arguments it
    stepped through, which is what the recurrences below need.
    """
    x = np.asarray(x, dtype=float)
    if x.size and (not np.isfinite(x).all() or (x <= 0.0).any()):
        raise ValueError(f"{name} requires x > 0")
    acc = np.zeros_like(x)
    xx = x.copy()
    while True:
        low = xx < 12.0
        if not low.any():
            return xx, acc
        acc[low] += term(xx[low])
        xx[low] += 1.0


def digamma_arr(x) -> np.ndarray:
    """Elementwise digamma for x > 0.

    Recurrence psi(x) = psi(x + 1) - 1/x lifts the argument above 12, where
    the asymptotic series in 1/x^2 is accurate to full double precision.
    """
    xx, acc = _lift(x, "digamma", lambda z: -1.0 / z)
    inv = 1.0 / xx
    u = inv * inv
    tail = u * (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (
        1.0 / 240.0 - u * (1.0 / 132.0 - u * (691.0 / 32760.0))))))
    return acc + np.log(xx) - 0.5 * inv - tail


def trigamma_arr(x) -> np.ndarray:
    """Elementwise trigamma psi'(x) for x > 0.

    The same recurrence, psi'(x) = psi'(x + 1) + 1/x^2, lifts the argument
    above 12, where the asymptotic series 1/x + 1/(2 x^2) + sum_k B_2k /
    x^(2k+1), taken to B_12 as in digamma_arr, is accurate to full double
    precision.
    """
    xx, acc = _lift(x, "trigamma", lambda z: 1.0 / (z * z))
    inv = 1.0 / xx
    u = inv * inv
    tail = inv * u * (1.0 / 6.0 - u * (1.0 / 30.0 - u * (1.0 / 42.0 - u * (
        1.0 / 30.0 - u * (5.0 / 66.0 - u * (691.0 / 2730.0))))))
    return acc + inv + 0.5 * u + tail


def digamma(x: float) -> float:
    """Digamma function psi(x) for scalar x > 0."""
    return float(digamma_arr(np.float64(x)))


# ---------------------------------------------------------------------------
# regularized incomplete beta via continued fraction (modified Lentz scheme)

_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAX_ITER = 300


def _guard(v):
    # np.where(np.abs(v) < _TINY, _TINY, v), one scan where none is tiny;
    # fmin skips NaN, so a NaN row cannot hide another row's tiny value
    return np.where(np.abs(v) < _TINY, _TINY, v) if np.fmin.reduce(np.abs(v)) < _TINY else v


def _betacf(a, b, x):
    """Continued fraction for I_x(a, b); caller guarantees the convergent region.

    A row's convergent is final once its own last factor is within _CF_EPS
    of 1; only rows not yet final are iterated, so each row's result is the
    same bits in any batch.
    """
    out = np.empty_like(x)
    rows = np.arange(len(x))
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _guard(1.0 - qab * x / qap)
    h = d.copy()
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        d = _guard(d)
        c = 1.0 + aa / c
        c = _guard(c)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        d = _guard(d)
        c = 1.0 + aa / c
        c = _guard(c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[rows[done]] = h[done]
            go = ~done
            if not go.any():
                return out
            a, b, x, qab, qap, qam, c, d, h, rows = (
                v[go] for v in (a, b, x, qab, qap, qam, c, d, h, rows))
    raise RuntimeError(
        "incomplete beta continued fraction failed to converge "
        f"(a={a[0]}, b={b[0]}, x={x[0]})")


def betainc_arr(a, b, x, log_b=None) -> np.ndarray:
    """Elementwise regularized incomplete beta I_x(a, b); log_b, ln B(a, b)
    broadcast like the rest, spares recomputing it for the same shapes."""
    a, b, x = np.broadcast_arrays(
        np.asarray(a, float), np.asarray(b, float), np.asarray(x, float))
    shape = x.shape
    af, bf, xf = a.ravel(), b.ravel(), x.ravel()
    out = np.empty_like(xf)
    out[xf <= 0.0] = 0.0
    out[xf >= 1.0] = 1.0
    mid = (xf > 0.0) & (xf < 1.0)
    if mid.any():
        am, bm, xm = af[mid], bf[mid], xf[mid]
        # symmetry I_x(a, b) = 1 - I_{1-x}(b, a) where the fraction converges
        # slowly; ln B is symmetric bit for bit, so flipped rows share it
        flip = ~(xm < (am + 1.0) / (am + bm + 2.0))
        lb = (_log_beta_arr(am, bm) if log_b is None
              else np.broadcast_to(log_b, shape).ravel()[mid])
        aa, bb = np.where(flip, bm, am), np.where(flip, am, bm)
        xx = np.where(flip, 1.0 - xm, xm)
        front = np.exp(aa * np.log(xx) + bb * np.log1p(-xx) - lb)
        part = front * _betacf(aa, bb, xx) / aa
        out[mid] = np.where(flip, 1.0 - part, part)
    return np.clip(out.reshape(shape), 0.0, 1.0)


def beta_cdf(x: float, p: BetaParams) -> float:
    """P(Z <= x) for Z ~ Beta(p)."""
    if not math.isfinite(x):
        raise ValueError(f"beta_cdf requires finite x, got {x}")
    return float(betainc_arr(np.float64(p.alpha1), np.float64(p.alpha2), np.float64(x)))


# ---------------------------------------------------------------------------
# quantile (value at risk) and conditional value at risk

_BRACKET_STEPS = 12         # narrows a 1400-wide logit bracket to ~0.34
_NEWTON_MAX = 100           # bisection alone reaches the floor in ~40
_QUANTILE_ATOL = 1e-10
_LOGIT_SPAN = 700.0         # sigmoid(-700) ~ 1e-304, the edge of normal doubles
_BRACKET_FLOOR = 1e-12      # logit width at which doubles stop resolving
_FD_H = 1e-5                # central-difference step of the CVaR partials


def _sigmoid(t):
    # 1 - e / (1 + e) rather than 1 / (1 + e) above 0: it reaches every
    # double in [1/2, 1), where 1 / (1 + e) skips every other one near 1
    e = np.exp(-np.abs(t))
    r = e / (1.0 + e)
    return np.where(t < 0.0, r, 1.0 - r)


def _newton_quantile(a, b, lam, lo, hi, log_b):
    """Safeguarded Newton in logit space on rows whose root lies in [lo, hi].

    The slope of the cdf in t is x^a (1 - x)^b / B(a, b), taken from t itself
    so that it stays exact where x rounds to 1.  A Newton step that leaves the
    bracket or fails to halve the previous step is replaced by bisection.
    Only rows not yet converged are iterated.  A row whose cdf residual is
    within tolerance takes one more Newton step, clipped to its bracket,
    which costs no cdf evaluation and leaves the residual near rounding.  A row
    whose bracket is at double resolution (logit width 1e-12, or adjacent
    doubles in x) returns the bracket's upper end, where the cdf reaches lam.
    """
    out = np.empty_like(lam)
    rows = np.arange(len(lam))
    t = 0.5 * (lo + hi)
    step = hi - lo
    for _ in range(_NEWTON_MAX):
        err = betainc_arr(a, b, _sigmoid(t), log_b=log_b) - lam
        hi = np.where(err > 0.0, t, hi)
        lo = np.where(err < 0.0, t, lo)
        slope = np.exp(-a * softplus(-t) - b * softplus(t) - log_b)
        tn = t - err / np.maximum(slope, _TINY)
        resolved = np.abs(err) <= _QUANTILE_ATOL
        x_hi = _sigmoid(hi)
        unresolvable = ((hi - lo <= _BRACKET_FLOOR)
                        | (x_hi <= np.nextafter(_sigmoid(lo), 2.0)))
        done = resolved | unresolvable
        out[rows[done]] = np.where(
            resolved, _sigmoid(np.clip(tn, lo, hi)), x_hi)[done]
        go = ~done
        if not go.any():
            return out
        newton = (tn > lo) & (tn < hi) & (np.abs(tn - t) <= 0.5 * step)
        tn = np.where(newton, tn, 0.5 * (lo + hi))
        step = np.abs(tn - t)
        a, b, lam, log_b, lo, hi, t, step, err, rows = (
            v[go] for v in (a, b, lam, log_b, lo, hi, tn, step, err, rows))
    worst = int(np.argmax(np.abs(err)))
    raise RuntimeError(
        "quantile inversion did not reach tolerance "
        f"{_QUANTILE_ATOL:g}: residual {err[worst]:.3e} with logit "
        f"bracket [{lo[worst]!r}, {hi[worst]!r}] at "
        f"(alpha1={a[worst]}, alpha2={b[worst]}, lam={lam[worst]})")


def _risk_args(a, b, lam):
    a, b, lam = np.broadcast_arrays(
        np.asarray(a, float), np.asarray(b, float), np.asarray(lam, float))
    if lam.size and ((lam <= 0.0) | (lam > 1.0)).any():
        raise ValueError("risk level must lie in (0, 1]")
    return a.ravel(), b.ravel(), lam.ravel(), lam.shape


def var_arr(a, b, lam) -> np.ndarray:
    """Elementwise lower quantile x with I_x(a, b) = lam.

    Solved in logit space, t = log(x / (1 - x)): tiny shape parameters put
    the quantile at scales like 1e-40 where linear bisection stalls, while
    log(cdf) stays polynomial in t.  Twelve bisection steps narrow a
    [-700, 700] bracket, then safeguarded Newton on t polishes past 1e-10.
    A bracket already at double resolution is accepted as converged: there
    the exact quantile sits between adjacent floats or underflows outright.
    lam = 1 short-circuits to the distribution's upper endpoint.
    """
    af, bf, lf, shape = _risk_args(a, b, lam)
    out = np.ones_like(lf)
    solve = lf < 1.0
    if solve.any():
        aa, bb, ll = af[solve], bf[solve], lf[solve]
        log_b = _log_beta_arr(aa, bb)
        lo = np.full_like(ll, -_LOGIT_SPAN)
        hi = np.full_like(ll, _LOGIT_SPAN)
        for _ in range(_BRACKET_STEPS):
            mid = 0.5 * (lo + hi)
            above = betainc_arr(aa, bb, _sigmoid(mid), log_b=log_b) >= ll
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        out[solve] = _newton_quantile(aa, bb, ll, lo, hi, log_b)
    return out.reshape(shape)


def beta_mean_arr(a, b) -> np.ndarray:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return a / (a + b)


def _tail_mean(a, b, lam, v):
    # the lower-tail mean can never exceed the full mean; rounding of a
    # quantile pinned at the upper endpoint could otherwise break that
    mean = beta_mean_arr(a, b)
    return np.minimum(mean * betainc_arr(a + 1.0, b, v) / lam, mean)


def cvar_arr(a, b, lam) -> np.ndarray:
    """Elementwise lower-tail conditional value at risk of Beta(a, b).

    E[Z | Z <= VaR_lam] = mean * I_v(a + 1, b) / lam with v the lam-quantile.
    lam = 1 is exactly the mean, no inversion involved.
    """
    af, bf, lf, shape = _risk_args(a, b, lam)
    out = beta_mean_arr(af, bf)
    tail = lf < 1.0
    if tail.any():
        aa, bb, ll = af[tail], bf[tail], lf[tail]
        out[tail] = _tail_mean(aa, bb, ll, var_arr(aa, bb, ll))
    return out.reshape(shape)


def cvar_grad_arr(a, b, lam) -> tuple:
    """Elementwise CVaR of Beta(a, b) and its partials in a and in b.

    In Rockafellar-Uryasev form CVaR = max_v v - E[(v - Z)+] / lam, with
    E[(v - Z)+] = v I_v(a, b) - mean I_v(a + 1, b).  The maximum sits at the
    lam-quantile, so the shape partials are those of
    G(a, b) = -(v I_v(a, b) - mean(a, b) I_v(a + 1, b)) / lam with v held
    fixed: one quantile inversion per row, then central differences of G
    from eight incomplete beta evaluations.  The value is cvar_arr's, bit
    for bit.  Where lam = 1, or where the quantile rounds to the upper
    endpoint and the value is pinned to the mean, the partials are the
    mean's.
    """
    af, bf, lf, shape = _risk_args(a, b, lam)
    mean = beta_mean_arr(af, bf)
    cv = mean.copy()
    s2 = (af + bf) ** 2
    d_a, d_b = bf / s2, -af / s2
    tail = np.flatnonzero(lf < 1.0)
    if tail.size:
        aa, bb, ll = af[tail], bf[tail], lf[tail]
        v = var_arr(aa, bb, ll)
        cv[tail] = _tail_mean(aa, bb, ll, v)
        free = cv[tail] < mean[tail]
        rows, aa, bb, ll, v = (x[free] for x in (tail, aa, bb, ll, v))
        if rows.size:
            h = _FD_H
            sa = aa + np.array([[h], [-h], [0.0], [0.0]])
            sb = bb + np.array([[0.0], [0.0], [h], [-h]])
            inc = betainc_arr(np.concatenate([sa, sa + 1.0]),
                              np.concatenate([sb, sb]), v)
            g = -(v * inc[:4] - beta_mean_arr(sa, sb) * inc[4:]) / ll
            d_a[rows] = (g[0] - g[1]) / (2.0 * h)
            d_b[rows] = (g[2] - g[3]) / (2.0 * h)
    return cv.reshape(shape), d_a.reshape(shape), d_b.reshape(shape)


def var_lambda(p: BetaParams, r: RiskLevel) -> float:
    """Value at risk: the lam-quantile of Beta(p)."""
    return float(var_arr(np.float64(p.alpha1), np.float64(p.alpha2), np.float64(r.lam)))


def cvar_lambda(p: BetaParams, r: RiskLevel) -> float:
    """Conditional value at risk: the mean of the lam lower tail of Beta(p)."""
    return float(cvar_arr(np.float64(p.alpha1), np.float64(p.alpha2), np.float64(r.lam)))


# ---------------------------------------------------------------------------
# KL divergence between Beta distributions

def beta_kl_arr(qa, qb, pa, pb) -> np.ndarray:
    """Elementwise KL(Beta(qa, qb) || Beta(pa, pb)), closed form."""
    qa, qb, pa, pb = np.broadcast_arrays(
        np.asarray(qa, float), np.asarray(qb, float),
        np.asarray(pa, float), np.asarray(pb, float))
    out = (_log_beta_arr(pa, pb) - _log_beta_arr(qa, qb)
           + (qa - pa) * digamma_arr(qa)
           + (qb - pb) * digamma_arr(qb)
           + (pa - qa + pb - qb) * digamma_arr(qa + qb))
    return out


def beta_kl(q: BetaParams, p: BetaParams) -> float:
    """KL divergence KL(q || p) between two Beta distributions."""
    return float(beta_kl_arr(
        np.float64(q.alpha1), np.float64(q.alpha2),
        np.float64(p.alpha1), np.float64(p.alpha2)))
