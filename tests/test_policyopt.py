"""Policy optimization tests: safety weight arithmetic, GAE hand values,
PPO clip mechanics, the gated entropy loop, and CEM ranking and rounds
(the rounds live in trainer._cem_round)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dial.constraint import Trajectory
from dial.envs import TaskSpec, make_env
from dial.policyopt import (
    GaussianPolicy,
    MAX_INNER,
    LagrangeState,
    PpoState,
    TrustRegionConfig,
    cem_rank,
    damped_weight,
    gae_advantages,
    ppo_lagrange_update,
    safe_il_policy_step,
    update_safety_weight,
)
from dial.trainer import ConfigError, ControllerPolicy, TrainConfig, _cem_round

from conftest import Sgd


# ------------------------------------------------------------ safety weight

def test_update_safety_weight_arithmetic():
    ls = LagrangeState(epsilon=0.1, kappa=1.0)
    assert update_safety_weight(ls, 0.1).kappa == 1.0
    assert update_safety_weight(ls, 0.6).kappa == pytest.approx(1.0005)
    ls0 = LagrangeState(epsilon=0.1, kappa=0.0)
    assert update_safety_weight(ls0, 0.0).kappa == 0.0


def test_update_safety_weight_validation():
    ls = LagrangeState(epsilon=0.1)
    with pytest.raises(ValueError):
        update_safety_weight(ls, 1.5)
    with pytest.raises(ValueError):
        LagrangeState(epsilon=0.1, kappa=-0.5)


def test_damped_weight_values_and_linearity():
    ls = LagrangeState(epsilon=0.1, kappa=1.0, kappa_d=10.0)
    assert damped_weight(ls, 0.1) == pytest.approx(1.0)
    assert damped_weight(ls, 0.05) == pytest.approx(0.5)
    assert damped_weight(ls, 0.2) > ls.kappa
    # slope in expected risk is kappa_d
    r = np.array([0.0, 0.3, 0.9])
    v = np.array([damped_weight(ls, x) for x in r])
    slopes = np.diff(v) / np.diff(r)
    assert np.allclose(slopes, 10.0)


# ----------------------------------------------------------------- policy

def test_policy_act_and_log_prob():
    pol = GaussianPolicy(3, [-1.0, -2.0], [1.0, 2.0], hidden=16,
                         rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    a = pol.act(np.zeros(3), rng)
    assert a.shape == (2,)
    # density matches a manual diagonal gaussian at the sample
    raw = pol.net.forward(np.zeros(3))
    mu = pol.head.center + pol.head.half * np.tanh(raw[:2])
    sd = np.log1p(np.exp(raw[2:])) + pol.head.std_floor
    manual = sum(-0.5 * ((a[i] - mu[i]) / sd[i]) ** 2
                 - math.log(sd[i]) - 0.5 * math.log(2 * math.pi)
                 for i in range(2))
    assert pol.log_prob(np.zeros(3), a)[0] == pytest.approx(manual, rel=1e-9)


@pytest.mark.parametrize("obs_dim,low,hidden", [(2, [-1.0, -1.0], 64),
                                                (2, [-1.0], 64), (4, [-1.0], 16)])
def test_act_rows_is_act_per_row(obs_dim, low, hidden):
    pol = GaussianPolicy(obs_dim, low, [1.0] * len(low), hidden=hidden,
                         rng=np.random.default_rng(obs_dim))
    obs = np.random.default_rng(8).normal(size=(20, obs_dim))
    for rows in (obs, obs[::3], obs[4:5]):
        rngs = [np.random.default_rng([9, i]) for i in range(len(rows))]
        twins = [np.random.default_rng([9, i]) for i in range(len(rows))]
        got = pol.act_rows(rows, rngs)
        assert got.shape == (len(rows), len(low))
        for i, (o, twin) in enumerate(zip(rows, twins)):
            assert got[i].tobytes() == pol.act(o, twin).tobytes()
        # each generator drew exactly what act drew from its twin
        for rng, twin in zip(rngs, twins):
            assert rng.bit_generator.state == twin.bit_generator.state


def test_policy_save_load_round_trip(tmp_path):
    pol = GaussianPolicy(4, [-1.0], [1.0], hidden=8, rng=np.random.default_rng(2))
    path = tmp_path / "pol.ckpt"
    pol.save(path)
    back = GaussianPolicy.load(path)
    obs = np.random.default_rng(3).normal(size=(5, 4))
    araw = np.random.default_rng(4).normal(size=(5, 1))
    assert np.allclose(pol.log_prob(obs, araw), back.log_prob(obs, araw))


# -------------------------------------------------------------------- GAE

def test_gae_hand_computed():
    rewards = np.array([1.0, 1.0])
    values = np.array([0.5, 0.25])
    adv, ret = gae_advantages(rewards, values, gamma=0.5, lam=0.5)
    # t=1: delta = 1 - 0.25; t=0: delta = 1 + 0.5*0.25 - 0.5, + 0.25*0.75
    assert adv[1] == pytest.approx(0.75)
    assert adv[0] == pytest.approx(0.625 + 0.25 * 0.75)
    assert np.allclose(ret, adv + values)


def test_gae_reduces_to_discounted_return():
    rng = np.random.default_rng(6)
    rewards = rng.normal(size=7)
    adv, ret = gae_advantages(rewards, np.zeros(7), gamma=0.9, lam=1.0)
    expect = 0.0
    tail = np.zeros(7)
    for t in range(6, -1, -1):
        expect = rewards[t] + 0.9 * expect
        tail[t] = expect
    assert np.allclose(ret, tail)


# ---------------------------------------------------------------- PPO core

def one_step_traj(state, action, reward):
    return Trajectory(states=np.asarray(state, dtype=float)[None, :],
                      actions=np.asarray(action, dtype=float)[None, :],
                      extrinsic_rewards=[reward],
                      cost_features=np.zeros((1, 1)))


def zeroed_values(ppo):
    for net in (ppo.v_reward, ppo.v_cost):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0


def test_ppo_zero_advantage_moves_nothing_without_entropy():
    pol = GaussianPolicy(2, [-1.0], [1.0], hidden=8, rng=np.random.default_rng(7))
    ppo = PpoState(pol, np.random.default_rng(8), entropy_beta=0.0)
    zeroed_values(ppo)
    rolls = [one_step_traj([0.1, 0.2], [0.3], 0.0),
             one_step_traj([-0.1, 0.4], [0.1], 0.0)]
    before = [p.copy() for p in pol.params()]
    out = ppo_lagrange_update(pol, rolls, [0.0, 0.0],
                              LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0),
                              ppo, np.random.default_rng(9))
    assert not out["nan_aborted"]
    for p, b in zip(pol.params(), before):
        assert np.array_equal(p, b)


def test_ppo_zero_advantage_entropy_term_touches_only_std():
    pol = GaussianPolicy(2, [-1.0], [1.0], hidden=8, rng=np.random.default_rng(7))
    ppo = PpoState(pol, np.random.default_rng(8), entropy_beta=0.01)
    zeroed_values(ppo)
    rolls = [one_step_traj([0.1, 0.2], [0.3], 0.0),
             one_step_traj([-0.1, 0.4], [0.1], 0.0)]
    b2 = pol.net.biases[2].copy()
    ppo_lagrange_update(pol, rolls, [0.0, 0.0],
                        LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0),
                        ppo, np.random.default_rng(9))
    # output layer bias: mean half frozen, std half moved
    assert np.array_equal(pol.net.biases[2][:1], b2[:1])
    assert not np.array_equal(pol.net.biases[2][1:], b2[1:])


class OldLogProbs:
    """The policy, except that its first log_prob call returns old: the
    update takes its old log-probs from that call."""

    def __init__(self, policy, old):
        self.policy, self.old = policy, old

    def log_prob(self, obs, a_raw):
        old, self.old = self.old, None
        return self.policy.log_prob(obs, a_raw) if old is None else old

    def __getattr__(self, name):
        return getattr(self.policy, name)


def test_ppo_clip_gates_the_gradient():
    def run(shift_negative):
        pol = GaussianPolicy(2, [-1.0], [1.0], hidden=8,
                             rng=np.random.default_rng(10))
        ppo = PpoState(pol, np.random.default_rng(11), entropy_beta=0.0)
        zeroed_values(ppo)
        # rewards 2 and 0 with zero values: normalized advantages +1 and -1
        rolls = [one_step_traj([0.1, 0.2], [0.3], 2.0),
                 one_step_traj([-0.1, 0.4], [0.1], 0.0)]
        obs = np.concatenate([t.states for t in rolls])
        araw = np.concatenate([t.actions for t in rolls])
        lp = pol.log_prob(obs, araw)
        # ratio 2 everywhere pushes the positive-advantage row outside the
        # clip; shifting the negative row to ratio 0.5 clips it too
        old = lp - math.log(2.0)
        if shift_negative:
            old = old.copy()
            old[1] = lp[1] + math.log(2.0)
        before = [p.copy() for p in pol.params()]
        ppo_lagrange_update(OldLogProbs(pol, old), rolls, [0.0, 0.0],
                            LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0),
                            ppo, np.random.default_rng(12))
        return before, [p.copy() for p in pol.params()]

    before, after = run(shift_negative=False)
    assert any(not np.array_equal(b, a) for b, a in zip(before, after))
    before, after = run(shift_negative=True)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_ppo_nan_aborts_and_restores():
    pol = GaussianPolicy(2, [-1.0], [1.0], hidden=8, rng=np.random.default_rng(13))
    ppo = PpoState(pol, np.random.default_rng(14))
    pol.net.biases[0][0] = np.nan
    rolls = [one_step_traj([0.1, 0.2], [0.3], 1.0)]
    snap = [p.copy() for p in pol.params()]
    out = ppo_lagrange_update(pol, rolls, [0.0],
                              LagrangeState(epsilon=0.1), ppo,
                              np.random.default_rng(15))
    assert out["nan_aborted"]
    for p, s in zip(pol.params(), snap):
        assert np.array_equal(p, s, equal_nan=True)


def test_ppo_improves_navigation_return():
    # plain PPO (no risk, no entropy bonus) on a short-horizon goal task
    env = make_env("basic_nav", {"horizon": 150})
    task = TaskSpec("goal", goal=(9.5, 0.5))
    pol = GaussianPolicy(2, env.action_low, env.action_high, hidden=32,
                         rng=np.random.default_rng(16))
    ppo = PpoState(pol, np.random.default_rng(17))
    ls = LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0)
    rng = np.random.default_rng(18)

    def collect(n):
        outs = []
        for _ in range(n):
            s = env.reset(task, rng)
            states, actions, rewards = [], [], []
            for _ in range(env.horizon):
                obs = env.observe(s)
                a = pol.act(obs, rng)
                r = env.step(s, a)
                states.append(obs)
                actions.append(a)
                rewards.append(r.reward)
                s = r.next_state
                if r.done:
                    break
            outs.append(Trajectory(np.array(states), np.array(actions),
                                   np.array(rewards),
                                   np.zeros((len(states), 1))))
        return outs

    first = None
    returns = []
    for it in range(40):
        rolls = collect(8)
        mean_ret = float(np.mean([t.extrinsic_rewards.sum() for t in rolls]))
        returns.append(mean_ret)
        if first is None:
            first = mean_ret
        ppo_lagrange_update(pol, rolls, np.zeros(len(rolls)), ls, ppo, rng)
    assert np.mean(returns[-5:]) > np.mean(returns[:5]) + 100.0


# ------------------------------------------------------ entropy inner loop

def nav_rollouts(n, length, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        states = rng.normal(scale=spread, size=(length, 2))
        actions = rng.normal(scale=0.3, size=(length, 2))
        out.append(Trajectory(states, actions, np.zeros(length),
                              np.zeros((length, 1))))
    return out


def test_inner_loop_delta_zero_takes_exactly_one_step():
    pol = GaussianPolicy(2, [-1, -1], [1, 1], hidden=16,
                         rng=np.random.default_rng(20))
    rolls = nav_rollouts(4, 10, seed=21)
    out = safe_il_policy_step(pol, rolls, np.zeros(4),
                              TrustRegionConfig(delta=0.0, beta=1.0),
                              LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0),
                              np.random.default_rng(22), opt=Sgd(1e-2),
                              max_particles=2048)
    assert out["inner_steps"] == 1
    assert out["dkls"][0] < 1e-10


def test_inner_loop_gates_on_divergence():
    pol = GaussianPolicy(2, [-1, -1], [1, 1], hidden=16,
                         rng=np.random.default_rng(23))
    rolls = nav_rollouts(6, 20, seed=24)
    delta = 0.02
    out = safe_il_policy_step(pol, rolls, np.zeros(6),
                              TrustRegionConfig(delta=delta, beta=1.0),
                              LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0),
                              np.random.default_rng(25), opt=Sgd(0.05),
                              max_particles=2048)
    assert 1 <= out["inner_steps"] <= MAX_INNER
    assert len(out["dkls"]) == out["inner_steps"]
    # every accepted step was taken at an estimate within the region
    assert all(abs(d) <= delta + 1e-12 for d in out["dkls"])


def test_inner_loop_raises_weighted_entropy():
    pol = GaussianPolicy(2, [-1, -1], [1, 1], hidden=16,
                         rng=np.random.default_rng(26))
    rolls = nav_rollouts(6, 30, seed=27)
    out = safe_il_policy_step(pol, rolls, np.zeros(6),
                              TrustRegionConfig(delta=5.0, beta=1.0),
                              LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0),
                              np.random.default_rng(28), opt=Sgd(0.02),
                              max_particles=2048)
    assert out["inner_steps"] >= 5
    assert out["entropies"][-1] > out["entropies"][0]


def test_inner_loop_risk_penalty_downweights_risky_trajectories():
    pol = GaussianPolicy(2, [-1, -1], [1, 1], hidden=16,
                         rng=np.random.default_rng(29))
    rolls = nav_rollouts(8, 15, seed=30)
    risk = np.array([0.9, 0.9, 0.9, 0.9, 0.05, 0.05, 0.05, 0.05])
    obs = [t.states for t in rolls]
    araw = [t.actions for t in rolls]
    lp_before = [pol.log_prob(o, a).sum() for o, a in zip(obs, araw)]
    safe_il_policy_step(pol, rolls, risk,
                        TrustRegionConfig(delta=10.0, beta=0.0),
                        LagrangeState(epsilon=0.1, kappa=5.0, kappa_d=0.0),
                        np.random.default_rng(31), opt=Sgd(0.05),
                        max_particles=2048)
    lp_after = [pol.log_prob(o, a).sum() for o, a in zip(obs, araw)]
    gain = np.array(lp_after) - np.array(lp_before)
    assert gain[4:].mean() > gain[:4].mean()


def test_inner_loop_subsamples_and_is_deterministic():
    def run():
        pol = GaussianPolicy(2, [-1, -1], [1, 1], hidden=16,
                             rng=np.random.default_rng(32))
        rolls = nav_rollouts(10, 40, seed=33)   # 400 rows > 64 particles
        safe_il_policy_step(pol, rolls, np.zeros(10),
                            TrustRegionConfig(delta=0.5, beta=1.0),
                            LagrangeState(epsilon=0.1, kappa=0.0, kappa_d=0.0),
                            np.random.default_rng(34), opt=Sgd(0.02),
                            max_particles=64)
        return [p.copy() for p in pol.params()]

    a, b = run(), run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# -------------------------------------------------------------------- CEM

def test_cem_rank_lexicographic():
    rewards = np.array([10.0, 5.0, 7.0])
    viols = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.5]])
    assert list(cem_rank(rewards, viols)) == [1, 2, 0]


def test_cem_rank_all_feasible_by_reward():
    rewards = np.array([1.0, 3.0, 2.0])
    viols = np.zeros((3, 2))
    assert list(cem_rank(rewards, viols)) == [1, 2, 0]


def run_cem(evaluate, dim, rng, n_iter=5, n_samp=80, n_elite=20, std0=1.0):
    """n_iter rounds from the origin; returns the policy and round reports.
    evaluate scores one candidate; _cem_round takes the whole matrix."""
    pol = ControllerPolicy(np.zeros(dim), np.full(dim, std0))
    batch = lambda cand: tuple(map(np.array, zip(*map(evaluate, cand))))
    history = [_cem_round(pol, batch, n_samp, n_elite, 1e-6, rng)
               for _ in range(n_iter)]
    return pol, history


def test_cem_finds_quadratic_optimum():
    # convergence is measured by objective gap: with 80/20/5 and init std 1
    # the elite-mean sampling noise leaves a point-distance floor of a few
    # hundredths, so the 1e-2 target applies to f(mean) - f*, not ||mean - x*||
    target = np.array([0.3, -0.4, 0.2, 0.1, -0.2])

    def evaluate(x):
        return -float(((x - target) ** 2).sum()), np.zeros(0)

    for seed in range(5):
        pol, history = run_cem(evaluate, 5, np.random.default_rng(seed))
        gap = -evaluate(pol.gains)[0]
        assert gap < 1e-2
        assert np.linalg.norm(pol.gains - target) < 0.15
        rs = [h["elite_reward"] for h in history]
        assert all(b >= a - 1e-9 for a, b in zip(rs, rs[1:]))


def test_cem_feasibility_dominates_reward():
    # reward peak sits inside the infeasible region; CEM must settle at the
    # best feasible point instead
    def evaluate(x):
        reward = -float(((x - 2.0) ** 2).sum())
        violation = max(0.0, float(x[0]) - 0.5)
        return reward, np.array([violation])

    pol, _ = run_cem(evaluate, 2, np.random.default_rng(7), n_iter=8)
    assert pol.gains[0] < 0.55
    assert abs(pol.gains[1] - 2.0) < 0.3


def test_cem_std_floor():
    def evaluate(x):
        return 0.0, np.zeros(1)

    pol, _ = run_cem(evaluate, 3, np.random.default_rng(8), n_iter=2,
                     n_samp=10, n_elite=3, std0=1e-9)
    assert np.all(pol.std >= 1e-6)


def test_cem_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(env="basic_nav", stage="eval", cem_samp=5, cem_elite=6)
    with pytest.raises(ValueError):
        TrustRegionConfig(delta=-1.0, beta=0.1)
    with pytest.raises(ValueError):
        TrustRegionConfig(delta=0.1, beta=0.1, k=0)
