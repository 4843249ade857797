"""Beta risk measure tests.

Every closed-form route in dial.betarisk is checked against an independent
oracle: scipy special functions for cdf/quantile/digamma, adaptive quadrature
of x * pdf for the conditional value at risk, and quadrature of the integrand
f_q * ln(f_q / f_p) for the Beta KL divergence.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dial.betarisk import (
    BetaParams,
    RiskLevel,
    beta_cdf,
    beta_kl,
    beta_kl_arr,
    betainc_arr,
    cvar_arr,
    cvar_grad_arr,
    cvar_lambda,
    digamma,
    digamma_arr,
    lgamma_arr,
    log_beta_fn,
    trigamma_arr,
    var_arr,
    var_lambda,
)


def cvar_quadrature(a, b, lam):
    """Oracle: CVaR_lam = (1/lam) * integral_0^v x f(x; a, b) dx, v = lam-quantile."""
    import warnings
    v = scipy.stats.beta.ppf(lam, a, b)
    with warnings.catch_warnings():
        # endpoint-singular integrands (shape < 1) trip quad's roundoff
        # heuristic while still delivering the accuracy the estimate reports
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(
            lambda x: x * scipy.stats.beta.pdf(x, a, b), 0.0, v,
            epsabs=1e-13, epsrel=1e-13, limit=400)
    assert err < 1e-9, f"quadrature oracle unreliable at ({a}, {b}, {lam}): err {err}"
    return val / lam


def cvar_closed_form(a, b, lam):
    """Oracle: a / (a + b) * I_v(a + 1, b) / lam at the scipy quantile v."""
    v = scipy.stats.beta.ppf(lam, a, b)
    return a / (a + b) * scipy.special.betainc(a + 1.0, b, v) / lam


def kl_quadrature(qa, qb, pa, pb):
    """Oracle: KL(q || p) by quadrature of f_q ln(f_q / f_p)."""
    import warnings
    fq = scipy.stats.beta(qa, qb).pdf
    fp = scipy.stats.beta(pa, pb).pdf

    def integrand(x):
        d = fq(x)
        if d == 0.0:
            return 0.0
        return d * (math.log(d) - math.log(fp(x)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-11,
                                        epsrel=1e-11, limit=400)
    assert err < 1e-7
    return val


class TestSpecialFunctions:
    def test_log_beta_small_integers(self):
        # B(2, 3) = 1!2!/4! = 1/12
        assert abs(log_beta_fn(2.0, 3.0) - math.log(1.0 / 12.0)) < 1e-12

    def test_log_beta_against_gammaln(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(0.05, 50.0, size=2)
            want = scipy.special.gammaln(a) + scipy.special.gammaln(b) - scipy.special.gammaln(a + b)
            assert abs(log_beta_fn(a, b) - want) < 1e-10 * max(1.0, abs(want))

    def test_lgamma_matches_math(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.05, 80.0, size=500)
        got = lgamma_arr(z)
        want = np.array([math.lgamma(v) for v in z])
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-12

    def test_log_beta_domain(self):
        with pytest.raises(ValueError):
            log_beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta_fn(1.0, -2.0)

    def test_digamma_at_one_is_negative_euler(self):
        euler = 0.5772156649015328606
        assert abs(digamma(1.0) + euler) < 1e-12

    def test_digamma_against_scipy(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(1e-3, 1.0, 200),
                            rng.uniform(1.0, 30.0, 200),
                            rng.uniform(30.0, 5e3, 100)])
        got = digamma_arr(x)
        want = scipy.special.digamma(x)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_digamma_recurrence(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(0.05, 20.0)
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-11

    def test_digamma_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.5)

    def test_trigamma_against_scipy(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 2000)),
                            [1e-3, 0.5, 1.0, 11.999, 12.0, 12.001, 1e4]])
        want = scipy.special.polygamma(1, x)
        assert np.max(np.abs(trigamma_arr(x) - want) / want) < 1e-14

    def test_trigamma_is_digamma_slope(self):
        rng = np.random.default_rng(19)
        x = np.exp(rng.uniform(np.log(0.05), np.log(500.0), 200))
        h = 1e-5 * x
        fd = (digamma_arr(x + h) - digamma_arr(x - h)) / (2.0 * h)
        got = trigamma_arr(x)
        assert np.max(np.abs(got - fd) / got) < 1e-6

    def test_trigamma_domain(self):
        for bad in (0.0, -1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                trigamma_arr(np.array([1.0, bad]))


class TestCdf:
    def test_power_law_case(self):
        # Beta(2, 1) has cdf x^2
        assert abs(beta_cdf(0.25, BetaParams(2.0, 1.0)) - 0.0625) < 1e-12

    def test_uniform_case(self):
        p = BetaParams(1.0, 1.0)
        for x in (0.0, 0.2, 0.5, 0.77, 1.0):
            assert abs(beta_cdf(x, p) - x) < 1e-12

    def test_against_scipy_betainc(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.1, 40.0, 600)
        b = rng.uniform(0.1, 40.0, 600)
        x = rng.uniform(0.0, 1.0, 600)
        got = betainc_arr(a, b, x)
        want = scipy.special.betainc(a, b, x)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_edges(self):
        p = BetaParams(3.3, 0.7)
        assert beta_cdf(-0.5, p) == 0.0
        assert beta_cdf(0.0, p) == 0.0
        assert beta_cdf(1.0, p) == 1.0
        assert beta_cdf(2.0, p) == 1.0

    def test_monotone_in_x(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = BetaParams(*rng.uniform(0.2, 20.0, 2))
            xs = np.sort(rng.uniform(0.0, 1.0, 50))
            vals = betainc_arr(p.alpha1, p.alpha2, xs)
            assert np.all(np.diff(vals) >= -1e-13)

    def test_scalar_matches_array_path(self):
        # a converged continued-fraction lane stops changing, so a row alone
        # and the same row in a batch give the same bits
        rng = np.random.default_rng(29)
        a = rng.uniform(0.2, 25.0, 40)
        b = rng.uniform(0.2, 25.0, 40)
        x = rng.uniform(0.0, 1.0, 40)
        arr = betainc_arr(a, b, x)
        for i in range(40):
            one = beta_cdf(float(x[i]), BetaParams(float(a[i]), float(b[i])))
            assert one == arr[i]

    def test_batch_independent_across_fraction_depths(self):
        # shallow rows (x far below the mean) next to rows whose continued
        # fraction runs hundreds of terms (large shapes, x at the mean)
        rng = np.random.default_rng(30)
        a_s = rng.uniform(0.2, 3.0, 30)
        b_s = rng.uniform(0.2, 3.0, 30)
        x_s = rng.uniform(0.001, 0.05, 30)
        a_d = np.exp(rng.uniform(np.log(300.0), np.log(5e4), 30))
        b_d = np.exp(rng.uniform(np.log(300.0), np.log(5e4), 30))
        x_d = a_d / (a_d + b_d) * rng.uniform(0.999, 1.001, 30)
        a, b, x = (np.concatenate(v) for v in ((a_s, a_d), (b_s, b_d), (x_s, x_d)))
        order = rng.permutation(60)
        whole = betainc_arr(a[order], b[order], x[order])
        parts = np.concatenate([betainc_arr(a_s, b_s, x_s), betainc_arr(a_d, b_d, x_d)])
        assert np.array_equal(whole, parts[order])
        singles = [betainc_arr(a[i], b[i], x[i]) for i in order]
        assert np.array_equal(whole, singles)


def loop_betainc(a, b, x, log_b=None):
    """betainc_arr as a plain loop over the whole batch: every lane iterates
    until the last converges, direct and flipped rows in separate fractions,
    ln B recomputed per call and log_b ignored.  The reference for the bits."""
    tiny, eps = 1e-300, 1e-15

    def cf(a, b, x):
        qab, qap, qam = a + b, a + 1.0, a - 1.0
        c = np.ones_like(x)
        d = 1.0 - qab * x / qap
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        h = d.copy()
        done = np.zeros(x.shape, dtype=bool)
        for m in range(1, 301):
            m2 = 2 * m
            aa = m * (b - m) * x / ((qam + m2) * (a + m2))
            d = 1.0 + aa * d
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            h = np.where(done, h, h * d * c)
            aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
            d = 1.0 + aa * d
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            delta = d * c
            h = np.where(done, h, h * delta)
            done |= np.abs(delta - 1.0) < eps
            if done.all():
                return h
        raise RuntimeError("no convergence")

    def lbeta(a, b):
        return lgamma_arr(a) + lgamma_arr(b) - lgamma_arr(a + b)

    a, b, x = np.broadcast_arrays(*(np.asarray(v, float) for v in (a, b, x)))
    af, bf, xf = a.ravel(), b.ravel(), x.ravel()
    out = np.empty_like(xf)
    out[xf <= 0.0] = 0.0
    out[xf >= 1.0] = 1.0
    mid = (xf > 0.0) & (xf < 1.0)
    am, bm, xm = af[mid], bf[mid], xf[mid]
    res = np.empty_like(xm)
    direct = xm < (am + 1.0) / (am + bm + 2.0)
    for rows, flip in ((direct, False), (~direct, True)):
        if rows.any():
            aa, bb, xx = am[rows], bm[rows], xm[rows]
            if flip:
                aa, bb, xx = bb, aa, 1.0 - xx
            front = np.exp(aa * np.log(xx) + bb * np.log1p(-xx) - lbeta(aa, bb))
            part = front * cf(aa, bb, xx) / aa
            res[rows] = 1.0 - part if flip else part
    out[mid] = res
    return np.clip(out.reshape(x.shape), 0.0, 1.0)


def risk_sweep(rng, n):
    """Shapes from 0.01 to 50 with risk levels in (0, 1], and the band of
    small first shapes the constraint heads produce."""
    a = np.exp(rng.uniform(np.log(0.01), np.log(50.0), n))
    b = np.exp(rng.uniform(np.log(0.01), np.log(50.0), n))
    a[: n // 2] = rng.uniform(0.01, 0.8, n // 2)
    b[: n // 2] = rng.uniform(0.5, 4.5, n // 2)
    lam = rng.uniform(0.01, 1.0, n)
    lam[::17] = 1.0
    return a, b, lam


class TestFractionBits:
    """betainc_arr iterates only unconverged lanes, shares one fraction
    between direct and flipped rows and takes ln B from its caller; each is
    exact, so every row keeps the plain loop's bits."""

    def test_betainc_matches_loop(self):
        rng = np.random.default_rng(41)
        a, b, _ = risk_sweep(rng, 3000)
        x = rng.uniform(0.0, 1.0, 3000)
        x[::7] = (a[::7] + 1.0) / (a[::7] + b[::7] + 2.0)    # the flip threshold
        x[1::7] = np.exp(rng.uniform(-700.0, -1.0, len(x[1::7])))
        x[2::7] = -np.expm1(-np.exp(rng.uniform(-40.0, 0.0, len(x[2::7]))))
        x[3::97], x[4::97] = 0.0, 1.0
        want = loop_betainc(a, b, x)
        assert betainc_arr(a, b, x).tobytes() == want.tobytes()
        lb = lgamma_arr(a) + lgamma_arr(b) - lgamma_arr(a + b)
        assert betainc_arr(a, b, x, log_b=lb).tobytes() == want.tobytes()
        assert betainc_arr(b, a, 1.0 - x, log_b=lb).tobytes() == \
            loop_betainc(b, a, 1.0 - x).tobytes()

    def test_quantiles_and_cvars_match_loop(self, monkeypatch):
        a, b, lam = risk_sweep(np.random.default_rng(43), 1200)
        fast = [var_arr(a, b, lam), cvar_arr(a, b, lam), *cvar_grad_arr(a, b, lam)]
        monkeypatch.setattr("dial.betarisk.betainc_arr", loop_betainc)
        slow = [var_arr(a, b, lam), cvar_arr(a, b, lam), *cvar_grad_arr(a, b, lam)]
        for got, want in zip(fast, slow):
            assert got.tobytes() == want.tobytes()

    def test_guard_sees_tiny_values_past_nan(self):
        from dial.betarisk import _guard
        v = np.array([np.nan, 2.0, -1e-310, 0.0, -3.0, 5e-301])
        assert _guard(v).tobytes() == np.where(np.abs(v) < 1e-300, 1e-300, v).tobytes()
        w = np.array([np.nan, 2.0, -3.0])
        assert _guard(w) is w


class TestQuantile:
    def test_uniform_identity(self):
        assert abs(var_lambda(BetaParams(1.0, 1.0), RiskLevel(0.3)) - 0.3) < 1e-10

    def test_cdf_of_quantile_is_lam(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = BetaParams(*rng.uniform(0.15, 30.0, 2))
            lam = rng.uniform(1e-3, 1.0)
            x = var_lambda(p, RiskLevel(lam))
            assert abs(beta_cdf(x, p) - lam) < 1e-10, (p, lam)

    def test_against_scipy_ppf(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a, b = rng.uniform(0.3, 25.0, 2)
            lam = rng.uniform(0.01, 0.99)
            got = var_lambda(BetaParams(a, b), RiskLevel(lam))
            want = scipy.stats.beta.ppf(lam, a, b)
            assert abs(got - want) < 1e-8

    def test_lam_one_hits_upper_endpoint(self):
        assert var_lambda(BetaParams(4.0, 2.0), RiskLevel(1.0)) == 1.0

    def test_rejects_bad_risk_levels(self):
        with pytest.raises(ValueError):
            RiskLevel(0.0)
        with pytest.raises(ValueError):
            RiskLevel(-0.1)
        with pytest.raises(ValueError):
            RiskLevel(1.0 + 1e-9)
        with pytest.raises(ValueError):
            var_arr(2.0, 2.0, 0.0)

    def test_extreme_shapes_match_scipy(self):
        # shape parameters near the learned head's floor put the quantile at
        # scales like 1e-27; the inversion has to survive those during training
        from scipy import stats

        cases = [(0.0178, 1.558, 0.341), (0.01, 1.0, 0.001),
                 (0.01, 0.01, 0.5), (0.02, 40.0, 0.01),
                 (40.0, 0.02, 0.99), (300.0, 300.0, 0.5)]
        for a, b, lam in cases:
            got = float(var_arr(a, b, lam))
            ref = float(stats.beta.ppf(lam, a, b))
            assert abs(got - ref) <= 1e-9 * max(ref, 1e-300) + 1e-13, (a, b, lam)
        got = float(var_arr(0.0178, 1.558, 0.341))
        assert 1e-28 < got < 1e-26

    def test_tail_quantiles_random_vs_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(71)
        for _ in range(200):
            a, b = np.exp(rng.uniform(np.log(0.01), np.log(100.0), 2))
            lam = float(rng.uniform(1e-3, 1.0))
            got = float(var_arr(a, b, lam))
            ref = float(stats.beta.ppf(lam, a, b))
            if 0.0 < ref < 1.0:
                assert abs(got - ref) <= 1e-8 * ref + 1e-12, (a, b, lam)
            else:
                # true quantile at double-precision endpoint; agree exactly
                assert got == ref, (a, b, lam)


class TestCvar:
    def test_uniform_half(self):
        # uniform tail mean below the median
        assert abs(cvar_lambda(BetaParams(1.0, 1.0), RiskLevel(0.5)) - 0.25) < 1e-10

    def test_lam_one_is_mean(self):
        p = BetaParams(2.0, 2.0)
        assert cvar_lambda(p, RiskLevel(1.0)) == p.mean
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = BetaParams(*rng.uniform(0.2, 20.0, 2))
            assert abs(cvar_lambda(p, RiskLevel(1.0)) - p.mean) < 1e-14

    def test_against_quadrature_grid(self):
        shapes = [0.5, 1.0, 2.0, 5.0, 20.0]
        lams = [0.05, 0.1, 0.5, 0.9, 1.0]
        for a in shapes:
            for b in shapes:
                for lam in lams:
                    got = cvar_lambda(BetaParams(a, b), RiskLevel(lam))
                    want = cvar_quadrature(a, b, lam)
                    rel = abs(got - want) / max(abs(want), 1e-300)
                    assert rel < 1e-6, f"({a}, {b}, {lam}): {got} vs {want}"

    def test_nondecreasing_in_lam(self):
        rng = np.random.default_rng(43)
        lam_grid = np.linspace(0.01, 1.0, 40)
        for _ in range(25):
            a, b = rng.uniform(0.2, 20.0, 2)
            vals = cvar_arr(np.full_like(lam_grid, a), np.full_like(lam_grid, b), lam_grid)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_cvar_below_var_and_mean(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p = BetaParams(*rng.uniform(0.2, 20.0, 2))
            lam = rng.uniform(0.01, 0.999)
            c = cvar_lambda(p, RiskLevel(lam))
            v = var_lambda(p, RiskLevel(lam))
            assert c <= v + 1e-12
            assert c <= p.mean + 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            p = BetaParams(*rng.uniform(0.2, 20.0, 2))
            lam = rng.uniform(1e-3, 1.0)
            c = cvar_lambda(p, RiskLevel(lam))
            assert 0.0 < c < 1.0


class TestQuantileGuards:
    # rows on which plain safeguarded Newton, without the fall back to
    # bisection when a step fails to halve the previous one, ran out of
    # iterations; the first sits where v is near 1 and x saturates
    HARD_ROWS = [
        (22.44, 0.1525, 0.9867),
        (0.004294788846450215, 0.021968276653848647, 0.9138222696764249),
        (6.097318503517056, 0.040556419470783, 0.5670763587409073),
        (344.4696567640235, 0.0034900828755282365, 0.0712757028955171),
        (1235.9376208167457, 0.07931693045774463, 0.8431321270915402),
    ]

    def test_cvar_matches_scipy_closed_form(self):
        rng = np.random.default_rng(83)
        a = np.exp(rng.uniform(np.log(0.05), np.log(200.0), 600))
        b = np.exp(rng.uniform(np.log(0.05), np.log(200.0), 600))
        lam = rng.uniform(1e-3, 0.999, 600)
        v = scipy.stats.beta.ppf(lam, a, b)
        # doubles resolve the quantile: the cdf moves by far less than the
        # tolerance across one float step of v
        resolvable = (v > 1e-300) & (v < 1.0 - 1e-6)
        assert resolvable.sum() > 500
        a, b, lam = a[resolvable], b[resolvable], lam[resolvable]
        ref = cvar_closed_form(a, b, lam)
        got = cvar_arr(a, b, lam)
        assert np.all(np.abs(got - ref) <= 1e-12 + 1e-9 * np.abs(ref))

    def test_wide_sweep_never_raises(self):
        rng = np.random.default_rng(89)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 5000))
        b = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 5000))
        lam = rng.uniform(1e-3, 0.999, 5000)
        hard = np.array(self.HARD_ROWS)
        a = np.concatenate([a, hard[:, 0]])
        b = np.concatenate([b, hard[:, 1]])
        lam = np.concatenate([lam, hard[:, 2]])
        v = var_arr(a, b, lam)
        assert np.all((v >= 0.0) & (v <= 1.0))
        cv, d1, d2 = cvar_grad_arr(a, b, lam)
        assert np.all(np.isfinite(cv) & np.isfinite(d1) & np.isfinite(d2))

    @pytest.mark.parametrize("a, b, lam", HARD_ROWS)
    def test_hard_rows_one_by_one(self, a, b, lam):
        v = float(var_arr(a, b, lam))
        ref = float(scipy.stats.beta.ppf(lam, a, b))
        if 0.0 < ref < 1.0 - 1e-6:
            assert abs(v - ref) <= 1e-9 * ref
        assert 0.0 <= v <= 1.0


# rows where the quantile is resolvable and every special function is well
# conditioned, for comparing partials against a scipy finite difference
_SHAPE = st.floats(0.5, 20.0)
_LAM = st.floats(0.01, 0.99)
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.filter_too_much])


class TestCvarGrad:
    def test_partials_match_scipy_difference(self):
        rng = np.random.default_rng(97)
        a = rng.uniform(0.5, 20.0, 300)
        b = rng.uniform(0.5, 20.0, 300)
        lam = rng.uniform(0.01, 0.99, 300)
        h = 1e-4
        ref_a = (cvar_closed_form(a + h, b, lam) - cvar_closed_form(a - h, b, lam)) / (2 * h)
        ref_b = (cvar_closed_form(a, b + h, lam) - cvar_closed_form(a, b - h, lam)) / (2 * h)
        _, d_a, d_b = cvar_grad_arr(a, b, lam)
        assert np.all(np.abs(d_a - ref_a) <= 1e-9 + 1e-6 * np.abs(ref_a))
        assert np.all(np.abs(d_b - ref_b) <= 1e-9 + 1e-6 * np.abs(ref_b))

    def test_value_is_cvar_arr_bit_for_bit(self):
        rng = np.random.default_rng(101)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 400))
        b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 400))
        lam = np.where(rng.uniform(size=400) < 0.2, 1.0, rng.uniform(1e-3, 0.999, 400))
        cv, _, _ = cvar_grad_arr(a, b, lam)
        assert np.array_equal(cv, cvar_arr(a, b, lam))
        # one risk level for the whole batch, as the constraint update calls it
        cv, _, _ = cvar_grad_arr(a, b, 0.37)
        assert np.array_equal(cv, cvar_arr(a, b, 0.37))

    def test_mean_partials_at_lam_one_and_where_pinned(self):
        # Beta(5.134, 0.00652) at 0.668: the quantile rounds to 1, so the
        # value is pinned to the mean and so are its partials
        a = np.array([2.0, 0.3, 5.134])
        b = np.array([3.0, 7.0, 0.00652])
        lam = np.array([1.0, 1.0, 0.668])
        cv, d_a, d_b = cvar_grad_arr(a, b, lam)
        assert float(var_arr(5.134, 0.00652, 0.668)) == 1.0
        np.testing.assert_array_equal(cv, a / (a + b))
        np.testing.assert_allclose(d_a, b / (a + b) ** 2, rtol=1e-15)
        np.testing.assert_allclose(d_b, -a / (a + b) ** 2, rtol=1e-15)

    def test_shapes_broadcast(self):
        cv, d_a, d_b = cvar_grad_arr(np.full((2, 3), 2.0), 3.0, 0.4)
        assert cv.shape == d_a.shape == d_b.shape == (2, 3)
        cv, d_a, d_b = cvar_grad_arr(2.0, 3.0, 0.4)
        assert cv.shape == d_a.shape == d_b.shape == ()
        with pytest.raises(ValueError):
            cvar_grad_arr(2.0, 3.0, 0.0)

    @_PROPERTY
    @given(_SHAPE, _SHAPE, _LAM)
    def test_cvar_below_var_below_one(self, a, b, lam):
        cv, _, _ = cvar_grad_arr(a, b, lam)
        v = var_arr(a, b, lam)
        assert cv <= v + 1e-12
        assert v <= 1.0

    @_PROPERTY
    @given(_SHAPE, _SHAPE, _LAM, _LAM)
    def test_nondecreasing_in_lam(self, a, b, lam1, lam2):
        lo, hi = min(lam1, lam2), max(lam1, lam2)
        c_lo, c_hi = cvar_arr(a, b, np.array([lo, hi]))
        assert c_lo <= c_hi + 1e-12

    @_PROPERTY
    @given(_SHAPE, _SHAPE, _LAM)
    def test_ru_form_at_solved_quantile_is_cvar(self, a, b, lam):
        v = float(var_arr(a, b, lam))
        assume(0.0 < v < 1.0)
        mean = a / (a + b)
        ru = v - (v * float(betainc_arr(a, b, v))
                  - mean * float(betainc_arr(a + 1.0, b, v))) / lam
        want = float(cvar_arr(a, b, lam))
        assert abs(ru - want) <= 1e-12 + 1e-10 * abs(want)


class TestBetaKl:
    def test_self_kl_is_zero(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            q = BetaParams(*rng.uniform(0.1, 30.0, 2))
            assert beta_kl(q, q) == 0.0

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(61)
        qa, qb = rng.uniform(0.1, 30.0, (2, 1000))
        pa, pb = rng.uniform(0.1, 30.0, (2, 1000))
        vals = beta_kl_arr(qa, qb, pa, pb)
        assert np.all(vals >= -1e-12)

    def test_against_quadrature(self):
        cases = [
            (2.0, 3.0, 1.0, 1.0),
            (0.5, 0.5, 2.0, 2.0),
            (5.0, 1.0, 1.0, 5.0),
            (0.3, 4.0, 0.1, 0.9),
            (7.5, 7.5, 7.0, 8.0),
        ]
        for qa, qb, pa, pb in cases:
            got = beta_kl(BetaParams(qa, qb), BetaParams(pa, pb))
            want = kl_quadrature(qa, qb, pa, pb)
            assert abs(got - want) < 1e-7 * max(1.0, abs(want)), (qa, qb, pa, pb)

    def test_kl_to_uniform_is_neg_entropy(self):
        # KL(q || Beta(1,1)) equals the negative differential entropy of q
        q = BetaParams(3.0, 2.0)
        got = beta_kl(q, BetaParams(1.0, 1.0))
        want = -scipy.stats.beta.entropy(3.0, 2.0)
        assert abs(got - want) < 1e-10


class TestParamValidation:
    def test_beta_params_reject_nonpositive(self):
        for bad in [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (float("nan"), 1.0),
                    (float("inf"), 1.0)]:
            with pytest.raises(ValueError):
                BetaParams(*bad)

    def test_mean(self):
        assert BetaParams(2.0, 6.0).mean == 0.25
