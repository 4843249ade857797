"""Constraint model tests.

The gradient assembly is checked against finite differences of the full
loss recomputed from scratch; criterion values are checked against hand
aggregation of per-step CVaR numbers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dial.betarisk import BetaParams, RiskLevel, beta_kl_arr, cvar_arr, cvar_grad_arr
from dial.constraint import (
    FLOOR_MARGIN,
    LOG_FLOOR,
    ConstraintModel,
    Trajectory,
    _kl_grads,
    _log_gamma_row_grads,
    constraint_update,
    constraint_values,
    gamma_criterion,
    importance_weights,
    sample_risk_level,
)
from dial.nets import load_checkpoint, save_checkpoint

from conftest import Sgd

PRIOR = BetaParams(0.1, 0.9)


def make_model(hidden=16, seed=0, **kw):
    return ConstraintModel(3, 2, hidden=hidden,
                           rng=np.random.default_rng(seed), **kw)


def random_traj(rng, length=5, n_features=4):
    return Trajectory(states=rng.normal(size=(length, 3)),
                      actions=rng.normal(size=(length, 2)),
                      extrinsic_rewards=rng.normal(size=length),
                      cost_features=(rng.uniform(size=(length, n_features)) < 0.3)
                      .astype(float))


def constant_alpha_model(a1, a2, hidden=8):
    # zero weights, output bias chosen so softplus(b) + floor hits the target
    model = make_model(hidden=hidden)
    for w in model.net.weights:
        w[:] = 0.0
    for b in model.net.biases:
        b[:] = 0.0
    model.net.biases[2][0] = math.log(math.expm1(a1 - model.head.floor))
    model.net.biases[2][1] = math.log(math.expm1(a2 - model.head.floor))
    return model


# ------------------------------------------------------------- step outputs

def test_step_beta_fresh_init_is_moderate():
    model = make_model(seed=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        alphas = model.step_alphas(rng.normal(size=3), rng.normal(size=2))
        assert alphas.shape == (1, 2)
        assert np.all((1e-3 <= alphas) & (alphas <= 10.0))


def test_step_beta_deterministic_without_noise():
    model = make_model()
    s, a = np.ones((4, 3)), np.ones((4, 2))
    assert np.array_equal(model.step_alphas(s, a), model.step_alphas(s, a))


# ---------------------------------------------------------------- criterion

def test_gamma_uniform_steps_power_law():
    model = constant_alpha_model(1.0, 1.0)
    rng = np.random.default_rng(0)
    for length in (1, 3, 7):
        tau = random_traj(rng, length=length)
        out = gamma_criterion(model, [tau], RiskLevel(1.0))[0]
        assert out == pytest.approx(0.5 ** length, rel=1e-9)
        assert 1.0 - out == pytest.approx(1.0 - 0.5 ** length, rel=1e-9)


def test_gamma_lambda_one_is_product_of_means():
    model = make_model(seed=5)
    rng = np.random.default_rng(1)
    tau = random_traj(rng, length=6)
    alphas = model.step_alphas(tau.states, tau.actions)
    means = alphas[:, 0] / (alphas[:, 0] + alphas[:, 1])
    out = gamma_criterion(model, [tau], RiskLevel(1.0))[0]
    assert out == pytest.approx(float(np.prod(means)), rel=1e-9)


def test_gamma_monotone_in_lambda():
    model = make_model(seed=9)
    rng = np.random.default_rng(2)
    tau = random_traj(rng, length=5)
    vals = [gamma_criterion(model, [tau], RiskLevel(l))[0]
            for l in (0.05, 0.2, 0.5, 0.8, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_gamma_nonincreasing_in_length():
    model = make_model(seed=11)
    rng = np.random.default_rng(3)
    tau = random_traj(rng, length=8)
    vals = []
    for L in (2, 4, 6, 8):
        sub = Trajectory(tau.states[:L], tau.actions[:L],
                         tau.extrinsic_rewards[:L], tau.cost_features[:L])
        vals.append(gamma_criterion(model, [sub], RiskLevel(0.5))[0])
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gamma_threshold_mode_hand_values():
    model = ConstraintModel(3, 2, mode="threshold-inference", n_features=4)
    rng = np.random.default_rng(5)
    tau = random_traj(rng, length=10)
    # logits 0 -> thresholds 0.5; push one feature's rate above it
    tau.cost_features[:] = 0.0
    assert gamma_criterion(model, [tau], RiskLevel(0.5))[0] == 1.0
    tau.cost_features[:, 0] = 1.0  # rate 1.0, excess 0.5
    out = gamma_criterion(model, [tau], RiskLevel(0.5))[0]
    assert out == pytest.approx(0.5, rel=1e-12)
    tau.cost_features[:7, 1] = 1.0  # rate 0.7, excess 0.2
    out = gamma_criterion(model, [tau], RiskLevel(0.5))[0]
    assert out == pytest.approx(0.5 * 0.8, rel=1e-12)


@pytest.mark.parametrize("mode", ["per-step-beta", "threshold-inference"])
@pytest.mark.parametrize("lam", [1.0, 0.37])
def test_gamma_batch_equals_single_calls(mode, lam):
    # one forward and one cvar_arr call over every row, sliced per trajectory
    model = ConstraintModel(3, 2, hidden=16, mode=mode,
                            rng=np.random.default_rng(13))
    if mode == "threshold-inference":
        model.logits[:] = [-1.0, -0.5, 0.2, 0.0]
    rng = np.random.default_rng(14)
    taus = [random_traj(rng, length=n) for n in (1, 7, 3, 40, 2, 11)]
    whole = gamma_criterion(model, taus, RiskLevel(lam))
    singles = [gamma_criterion(model, [t], RiskLevel(lam))[0] for t in taus]
    assert whole.shape == (6,)
    assert np.array_equal(whole, singles)
    assert np.array_equal(gamma_criterion(model, taus[::-1], RiskLevel(lam)),
                          whole[::-1])


def test_gamma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros((0, 3)), actions=np.zeros((0, 2)),
                   extrinsic_rewards=[], cost_features=np.zeros((0, 4)))
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros((3, 3)), actions=np.zeros((2, 2)),
                   extrinsic_rewards=np.zeros(3), cost_features=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Trajectory(states=np.full((2, 3), np.nan), actions=np.zeros((2, 2)),
                   extrinsic_rewards=np.zeros(2), cost_features=np.zeros((2, 4)))


# --------------------------------------------------------- importance weights

def test_importance_weight_identity_and_ratio():
    model = make_model(seed=1)
    rng = np.random.default_rng(6)
    tau = random_traj(rng)
    prev = gamma_criterion(model, [tau], RiskLevel(1.0))
    assert importance_weights(model, [tau], prev)[0] == pytest.approx(1.0)


def test_importance_weight_hand_ratio_and_clip():
    # threshold models give exact closed-form gammas
    cur = ConstraintModel(3, 2, mode="threshold-inference", n_features=1)
    prev = ConstraintModel(3, 2, mode="threshold-inference", n_features=1)
    rng = np.random.default_rng(7)
    tau = random_traj(rng, length=10, n_features=1)
    tau.cost_features[:] = 1.0
    cur.logits[:] = 0.0        # threshold 0.5 -> gamma 0.5
    prev.logits[:] = np.log(3)  # threshold 0.75 -> gamma 0.75
    def gamma1(model):
        return gamma_criterion(model, [tau], RiskLevel(1.0))

    w = importance_weights(cur, [tau], gamma1(prev))[0]
    assert w == pytest.approx(0.5 / 0.75, rel=1e-9)
    prev.logits[:] = 20.0      # threshold ~1 -> gamma ~1
    cur.logits[:] = -20.0      # threshold ~0 -> gamma ~2e-9: ratio clips low
    assert importance_weights(cur, [tau], gamma1(prev))[0] == pytest.approx(1e-3)
    assert importance_weights(prev, [tau], gamma1(cur))[0] == pytest.approx(1e3)


def test_importance_weight_length_mismatch():
    # one previous-model criterion value per trajectory, or a loud failure
    model = make_model()
    rng = np.random.default_rng(0)
    taus = [random_traj(rng), random_traj(rng)]
    with pytest.raises(ValueError):
        importance_weights(model, taus, np.ones(3))


# ------------------------------------------------------------- risk sampling

def test_sample_risk_level_uniform():
    rng = np.random.default_rng(8)
    draws = np.array([sample_risk_level(rng).lam for _ in range(100_000)])
    assert np.all(draws >= 1e-3) and np.all(draws < 1.0)
    se = 1.0 / math.sqrt(12 * len(draws))
    assert abs(draws.mean() - 0.5) < 3 * se
    r1 = [sample_risk_level(np.random.default_rng(42)).lam for _ in range(10)]
    r2 = [sample_risk_level(np.random.default_rng(42)).lam for _ in range(10)]
    assert r1 == r2


# ------------------------------------------------------------------- update

def flat_params(model):
    return np.concatenate([p.ravel() for p in model.params()])


def set_flat(model, vec):
    at = 0
    for p in model.params():
        p[:] = vec[at:at + p.size].reshape(p.shape)
        at += p.size


def update(model, expert, nominal, lam, lr=1e-2, kl_weight=1.0):
    """constraint_update by Sgd at lr toward PRIOR with every omega 1: the
    nominal batch's prev_gamma is its criterion under the current model."""
    return constraint_update(model, expert, nominal, lam, kl_weight=kl_weight,
                             prior=PRIOR, opt=Sgd(lr),
                             prev_gamma=gamma_criterion(model, nominal, RiskLevel(1.0)))


def full_loss(model, expert, nominal, lam, ratio, prior):
    # independent reassembly of the objective the update ascends
    le = np.mean([math.log(max(gamma_criterion(model, [t], lam)[0], 1e-300))
                  for t in expert])
    ln = np.mean([math.log(max(gamma_criterion(model, [t], lam)[0], 1e-300))
                  for t in nominal])
    rows = np.concatenate(
        [model.step_alphas(t.states, t.actions) for t in expert + nominal])
    kl = float(beta_kl_arr(rows[:, 0], rows[:, 1],
                           prior.alpha1, prior.alpha2).mean())
    return le - ln - ratio * kl


def test_update_gradient_matches_full_loss_fd():
    rng = np.random.default_rng(34)
    model = make_model(hidden=6, seed=6)
    lam = RiskLevel(0.7)
    expert = [random_traj(rng, length=1) for _ in range(2)]
    nominal = [random_traj(rng, length=1) for _ in range(2)]
    # seeds chosen so no relu pre-activation sits near its kink, where a
    # two-sided difference of the loss would disagree with any subgradient
    x = np.concatenate([np.concatenate([t.states, t.actions], axis=1)
                        for t in expert + nominal])
    z1 = x @ model.net.weights[0] + model.net.biases[0]
    z2 = np.maximum(z1, 0) @ model.net.weights[1] + model.net.biases[1]
    assert min(np.abs(z1).min(), np.abs(z2).min()) > 1e-2
    lr = 1e-4
    before = flat_params(model).copy()
    update(model, expert, nominal, lam, lr=lr)
    g_impl = (flat_params(model) - before) / lr

    probe = make_model(hidden=6, seed=2)
    h = 1e-6
    g_fd = np.zeros_like(before)
    for i in range(len(before)):
        up, dn = before.copy(), before.copy()
        up[i] += h
        dn[i] -= h
        set_flat(probe, up)
        lu = full_loss(probe, expert, nominal, lam, 1.0, PRIOR)
        set_flat(probe, dn)
        ld = full_loss(probe, expert, nominal, lam, 1.0, PRIOR)
        g_fd[i] = (lu - ld) / (2 * h)
    scale = max(np.abs(g_fd).max(), 1e-12)
    assert np.abs(g_impl - g_fd).max() / scale < 1e-2


def test_kl_partials_match_scipy_and_finite_differences():
    import scipy.special

    rng = np.random.default_rng(36)
    alphas = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (300, 2)))
    a1, a2 = alphas[:, 0], alphas[:, 1]
    kl, d1, d2 = _kl_grads(alphas, BetaParams(0.1, 0.9))
    assert np.array_equal(kl, beta_kl_arr(a1, a2, 0.1, 0.9))
    both = (1.0 - a1 - a2) * scipy.special.polygamma(1, a1 + a2)
    want1 = (a1 - 0.1) * scipy.special.polygamma(1, a1) + both
    want2 = (a2 - 0.9) * scipy.special.polygamma(1, a2) + both
    np.testing.assert_allclose(d1, want1, rtol=1e-11)
    np.testing.assert_allclose(d2, want2, rtol=1e-11)
    # central differences of the KL itself, on shapes small enough that the
    # rounding of its log-gamma terms does not swamp the difference
    mod = (alphas < 50.0).all(axis=1)
    a1, a2, d1, d2 = a1[mod], a2[mod], d1[mod], d2[mod]
    h1, h2 = 1e-6 * a1, 1e-6 * a2
    fd1 = (beta_kl_arr(a1 + h1, a2, 0.1, 0.9) - beta_kl_arr(a1 - h1, a2, 0.1, 0.9)) / (2 * h1)
    fd2 = (beta_kl_arr(a1, a2 + h2, 0.1, 0.9) - beta_kl_arr(a1, a2 - h2, 0.1, 0.9)) / (2 * h2)
    np.testing.assert_allclose(d1, fd1, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(d2, fd2, rtol=1e-5, atol=1e-8)


def test_update_identical_batches_reduces_to_prior_term():
    rng = np.random.default_rng(22)
    model = make_model(hidden=8, seed=4)
    batch = [random_traj(rng, length=3) for _ in range(3)]
    before = flat_params(model).copy()
    # kl_weight = 0 isolates the expert-vs-nominal part, which cancels exactly
    out = update(model, batch, batch, RiskLevel(0.5), kl_weight=0.0)
    assert out["grad_norm"] < 1e-10
    assert np.abs(flat_params(model) - before).max() < 1e-12
    assert out["omegas"] == [1.0, 1.0, 1.0]


def test_update_kl_term_descends_toward_prior():
    rng = np.random.default_rng(23)
    model = make_model(hidden=8, seed=6)
    batch = [random_traj(rng, length=4) for _ in range(2)]
    kls = []
    for _ in range(100):
        out = update(model, batch, batch, RiskLevel(0.5))
        kls.append(out["kl"])
    assert all(b < a for a, b in zip(kls, kls[1:]))
    assert kls[-1] < 0.6 * kls[0]


def test_update_separates_expert_from_nominal():
    # experts stay in a region the nominal batch avoids: gamma gap grows
    rng = np.random.default_rng(24)
    model = make_model(hidden=16, seed=8)
    expert = [Trajectory(states=rng.normal(1.5, 0.2, size=(4, 3)),
                         actions=np.zeros((4, 2)),
                         extrinsic_rewards=np.zeros(4),
                         cost_features=np.zeros((4, 4))) for _ in range(4)]
    nominal = [Trajectory(states=rng.normal(-1.5, 0.2, size=(4, 3)),
                          actions=np.zeros((4, 2)),
                          extrinsic_rewards=np.zeros(4),
                          cost_features=np.zeros((4, 4))) for _ in range(4)]
    lam = RiskLevel(0.5)

    def gap():
        ge = np.mean([gamma_criterion(model, [t], lam)[0] for t in expert])
        gn = np.mean([gamma_criterion(model, [t], lam)[0] for t in nominal])
        return ge - gn

    g0 = gap()
    prev_gamma = gamma_criterion(model, nominal, RiskLevel(1.0))
    for _ in range(60):
        constraint_update(model, expert, nominal, RiskLevel(0.5), kl_weight=1.0,
                          prior=PRIOR, prev_gamma=prev_gamma, opt=Sgd(1e-2))
    assert gap() > g0 + 0.2


def test_update_threshold_mode_directions():
    rng = np.random.default_rng(25)

    def batch(rate):
        out = []
        for _ in range(3):
            t = random_traj(rng, length=10)
            t.cost_features[:] = 0.0
            k = int(round(rate * 10))
            t.cost_features[:k, :] = 1.0
            out.append(t)
        return out

    # only the nominal batch violates: thresholds tighten
    model = ConstraintModel(3, 2, mode="threshold-inference", n_features=4)
    t0 = model.thresholds.copy()
    update(model, batch(0.1), batch(0.9), RiskLevel(0.5))
    assert np.all(model.thresholds < t0)
    # only the expert batch sits above: thresholds relax
    model = ConstraintModel(3, 2, mode="threshold-inference", n_features=4)
    update(model, batch(0.9), batch(0.1), RiskLevel(0.5))
    assert np.all(model.thresholds > t0)


def test_update_nan_aborts_without_touching_params():
    rng = np.random.default_rng(26)
    model = make_model(hidden=8, seed=10)
    model.net.biases[0][0] = np.nan
    batch = [random_traj(rng, length=2)]
    snapshot = [p.copy() for p in model.params()]
    out = constraint_update(model, batch, batch, RiskLevel(0.5), kl_weight=1.0,
                            prior=PRIOR, prev_gamma=np.ones(1), opt=Sgd(1e-2))
    assert out["nan_aborted"]
    for p, s in zip(model.params(), snapshot):
        assert np.array_equal(p, s, equal_nan=True)


# ------------------------------------------------------- floored trajectories

def every_row_update(model, expert, nominal, lam, opt, kl_weight=1.0):
    """constraint_update assembled with cvar_grad_arr on every row, floored
    trajectories included: the reference the floor skip must match bit for bit."""
    omegas = importance_weights(model, nominal,
                                gamma_criterion(model, nominal, RiskLevel(1.0)))
    sides = [(1.0, len(expert), t) for t in expert]
    sides += [(-float(om), len(nominal), t) for om, t in zip(omegas, nominal)]
    x = np.concatenate([np.concatenate([t.states, t.actions], axis=1)
                        for _, _, t in sides])
    raw = model.net.forward(x)
    alphas = model.head.alphas(raw)
    cv, dc1, dc2 = cvar_grad_arr(alphas[:, 0], alphas[:, 1], lam.lam)
    kl, dk1, dk2 = _kl_grads(alphas, PRIOR)
    dalpha = np.zeros_like(alphas)
    loss_e = loss_n = 0.0
    floored = hi = 0
    for w, n, t in sides:
        lo, hi, w = hi, hi + len(t), w / n
        log_g, row_g = _log_gamma_row_grads(cv[lo:hi])
        floored += log_g == LOG_FLOOR
        dalpha[lo:hi, 0] += w * row_g * dc1[lo:hi]
        dalpha[lo:hi, 1] += w * row_g * dc2[lo:hi]
        if w > 0:
            loss_e += w * log_g
        else:
            loss_n += -w * log_g
    dalpha[:, 0] -= kl_weight * dk1 / len(x)
    dalpha[:, 1] -= kl_weight * dk2 / len(x)
    grads = model.net.backward(model.head.backward(raw, dalpha))
    gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    opt.step(model.net.params(), [-g for g in grads])
    return {"nan_aborted": False, "loss_expert": loss_e, "loss_nominal": loss_n,
            "kl": float(kl.mean()), "grad_norm": gnorm, "omegas": list(omegas),
            "floored": floored}


def mixed_batches(rng, long=(400, 450), short=(4, 4)):
    # a fresh model's per-step mean is about 0.55, so a 400-step trajectory
    # sits far below the floor and a 4-step one far above it
    expert = [random_traj(rng, length=n) for n in (long[0], short[0], long[1])]
    nominal = [random_traj(rng, length=n) for n in (short[1], long[0], 6)]
    return expert, nominal


def is_long(t):
    return len(t) >= 400


class Stop(Exception):
    pass


def spy_cvar_grad(monkeypatch, stop=False):
    """Record the alpha rows constraint_update hands to cvar_grad_arr; with
    stop, raise Stop once they are recorded."""
    seen = []

    def spy(a, b, lam):
        seen.append(np.stack([a, b], axis=1))
        if stop:
            raise Stop
        return cvar_grad_arr(a, b, lam)

    monkeypatch.setattr("dial.constraint.cvar_grad_arr", spy)
    return seen


def update_alphas(model, expert, nominal):
    x = np.concatenate([np.concatenate([t.states, t.actions], axis=1)
                        for t in expert + nominal])
    return model.head.alphas(model.net.forward(x))


@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0])
def test_floor_skip_matches_every_row_reference(lam):
    rng = np.random.default_rng(60)
    expert, nominal = mixed_batches(rng)
    model, ref_model = make_model(seed=12), make_model(seed=12)
    for _ in range(3):
        out = update(model, expert, nominal, RiskLevel(lam))
        ref = every_row_update(ref_model, expert, nominal, RiskLevel(lam), Sgd(1e-2))
        assert out.keys() == ref.keys()
        for key in ref:
            assert np.asarray(out[key]).tobytes() == np.asarray(ref[key]).tobytes(), key
        assert 0 < ref["floored"] < len(expert) + len(nominal)
        for p, q in zip(model.params(), ref_model.params()):
            assert p.tobytes() == q.tobytes()


def test_floor_skip_solves_only_unfloored_rows(monkeypatch):
    rng = np.random.default_rng(61)
    expert, nominal = mixed_batches(rng)
    model = make_model(seed=13)
    alphas = update_alphas(model, expert, nominal)
    keep = np.repeat([not is_long(t) for t in expert + nominal],
                     [len(t) for t in expert + nominal])
    seen = spy_cvar_grad(monkeypatch)
    out = update(model, expert, nominal, RiskLevel(0.5))
    assert len(seen) == 1 and np.array_equal(seen[0], alphas[keep])
    assert out["floored"] == sum(map(is_long, expert + nominal))
    # an all-floored batch solves nothing, yet the KL term still moves it
    seen.clear()
    before = flat_params(model).copy()
    out = update(model, expert[::2], nominal[1:2], RiskLevel(0.5))
    assert seen == [] and out["floored"] == 3
    assert not out["nan_aborted"] and not np.array_equal(flat_params(model), before)


def test_floored_count_matches_hand_count():
    rng = np.random.default_rng(62)
    expert, nominal = mixed_batches(rng, long=(400, 120), short=(4, 30))
    model = make_model(seed=14)
    lam = RiskLevel(0.4)
    gammas = [gamma_criterion(model, [t], lam)[0] for t in expert + nominal]
    hand = sum(g == math.exp(LOG_FLOOR) for g in gammas)
    assert 0 < hand < len(gammas)
    assert update(model, expert, nominal, lam)["floored"] == hand


def test_floored_reported_zero_without_per_step_rows():
    rng = np.random.default_rng(63)
    batch = [random_traj(rng, length=500)]
    model = ConstraintModel(3, 2, mode="threshold-inference", n_features=4)
    assert update(model, batch, batch, RiskLevel(0.5))["floored"] == 0
    model = make_model(hidden=8)
    model.net.biases[0][0] = np.nan
    out = constraint_update(model, batch, batch, RiskLevel(0.5), kl_weight=1.0,
                            prior=PRIOR, prev_gamma=np.ones(1), opt=Sgd(1e-2))
    assert out["nan_aborted"] and out["floored"] == 0


def test_bound_inside_margin_takes_exact_path(monkeypatch):
    # 100 equal rows whose summed log means lie just under the floor, by
    # less than the margin that covers np.log's rounding
    length = 100
    mean = math.exp((LOG_FLOOR - 0.5 * FLOOR_MARGIN) / length)
    model = constant_alpha_model(mean / (1.0 - mean), 1.0)
    rng = np.random.default_rng(64)
    expert, nominal = [random_traj(rng, length=length)], [random_traj(rng, length=4)]
    alphas = update_alphas(model, expert, nominal)
    bound = np.log(alphas[:length, 0] / alphas[:length].sum(axis=1)).sum()
    assert LOG_FLOOR - FLOOR_MARGIN < bound <= LOG_FLOOR
    seen = spy_cvar_grad(monkeypatch)
    out = update(model, expert, nominal, RiskLevel(0.5))
    assert len(seen) == 1 and np.array_equal(seen[0], alphas)
    assert out["floored"] == 1


def test_nan_bound_takes_exact_path(monkeypatch):
    # one NaN row in a trajectory that would otherwise floor at its means
    rng = np.random.default_rng(65)
    expert, nominal = [random_traj(rng, length=400)], [random_traj(rng, length=4)]
    expert[0].states[7] = 99.0
    model = make_model(seed=15)
    forward = model.net.forward

    def poisoned(x):
        raw = forward(x)
        raw[x[:, 0] == 99.0] = np.nan
        return raw

    monkeypatch.setattr(model.net, "forward", poisoned)
    seen = spy_cvar_grad(monkeypatch, stop=True)
    with pytest.raises(Stop):
        update(model, expert, nominal, RiskLevel(0.5))
    assert len(seen) == 1 and len(seen[0]) == 404
    assert np.isnan(seen[0]).any(axis=1).tolist() == [i == 7 for i in range(404)]


def test_gamma_solves_every_row(monkeypatch):
    # floored trajectories' rows reach cvar_arr too, in the one call
    rng = np.random.default_rng(67)
    expert, nominal = mixed_batches(rng)
    taus = expert + nominal
    model = make_model(seed=17)
    seen = []

    def spy(a, b, lam):
        seen.append(np.stack([a, b], axis=1))
        return cvar_arr(a, b, lam)

    monkeypatch.setattr("dial.constraint.cvar_arr", spy)
    out = gamma_criterion(model, taus, RiskLevel(0.5))
    alphas = np.concatenate([model.step_alphas(t.states, t.actions) for t in taus])
    assert len(seen) == 1 and np.array_equal(seen[0], alphas)
    assert (out == math.exp(LOG_FLOOR)).tolist() == [is_long(t) for t in taus]


def test_update_rejects_empty_batches():
    model = make_model()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        update(model, [], [random_traj(rng)], RiskLevel(0.5))


# ------------------------------------------------------- values, persistence

def test_constraint_values_matches_single_steps():
    model = make_model(seed=12)
    rng = np.random.default_rng(27)
    obs = rng.normal(size=(10, 3))
    out = constraint_values(model, obs, np.zeros(2), RiskLevel(0.3))
    assert out.shape == (10,)
    for i in range(10):
        tau = Trajectory(states=obs[i:i + 1], actions=np.zeros((1, 2)),
                         extrinsic_rewards=[0.0], cost_features=np.zeros((1, 4)))
        assert out[i] == pytest.approx(
            1.0 - gamma_criterion(model, [tau], RiskLevel(0.3))[0], rel=1e-9)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(28)
    for mode in ("per-step-beta", "threshold-inference"):
        model = ConstraintModel(3, 2, hidden=8, mode=mode,
                                rng=np.random.default_rng(9))
        if mode == "threshold-inference":
            model.logits[:] = [0.3, -0.2, 0.1, 0.0]
        path = tmp_path / f"{mode}.ckpt"
        model.save(path)
        back = ConstraintModel.load(path)
        tau = random_traj(rng)
        a = gamma_criterion(model, [tau], RiskLevel(0.6))[0]
        b = gamma_criterion(back, [tau], RiskLevel(0.6))[0]
        assert a == b
        # parameters byte-identical through a save/load/save cycle
        path2 = tmp_path / f"{mode}2.ckpt"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConstraintModel(3, 2, mode="bogus")
    with pytest.raises(ValueError):
        ConstraintModel(3, 2, mode="threshold-inference").step_alphas(
            np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        _ = make_model().thresholds


def test_load_rejects_other_aggregation(tmp_path):
    path = tmp_path / "c.ckpt"
    make_model(hidden=8).save(path)
    tensors, meta = load_checkpoint(path)
    assert meta["aggregation"] == "product"
    save_checkpoint(path, tensors, {**meta, "aggregation": "min"})
    with pytest.raises(ValueError, match="aggregation 'min'"):
        ConstraintModel.load(path)
