"""Constrained policy improvement.

Two gradient optimizers share this module: the Lagrangian PPO update used
during transfer and the trust-region-gated entropy ascent used while
imitating experts. The constrained cross-entropy search over controller
gains ranks its candidates with cem_rank; its rounds live in
trainer._cem_round, and trainer.RECIPES says which environment uses which.
The safety weight kappa and its damped stand-in live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .entropy import ImportanceWeightSet, KnnGraph, ParticleSet
from .nets import AdamState, GaussianHead, Mlp, load_checkpoint, load_mlp, mlp_tensors, save_checkpoint

LOG_RATIO_CLIP = 50.0
# cap on safe_il_policy_step's gated inner steps
MAX_INNER = 20


# ---------------------------------------------------------------------------
# safety weight

@dataclass(frozen=True)
class LagrangeState:
    """Safety weight kappa with its update rate, damping scale, and budget."""

    epsilon: float
    kappa: float = 1.0
    eta_kappa: float = 1e-3
    kappa_d: float = 10.0

    def __post_init__(self):
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")


def update_safety_weight(ls: LagrangeState, expected_risk: float) -> LagrangeState:
    """Projected ascent on the risk-budget gap."""
    if not 0.0 <= expected_risk <= 1.0:
        raise ValueError(f"expected risk must lie in [0, 1], got {expected_risk}")
    kappa = max(0.0, ls.kappa + ls.eta_kappa * (expected_risk - ls.epsilon))
    return replace(ls, kappa=kappa)


def damped_weight(ls: LagrangeState, expected_risk: float) -> float:
    """Damped weight used inside the policy objective; kappa itself is untouched.

    Undershooting the budget shrinks the effective weight, overshooting
    grows it, both immediately rather than at kappa's slow timescale.
    """
    return ls.kappa - ls.kappa_d * (ls.epsilon - expected_risk)


# ---------------------------------------------------------------------------
# gaussian policy

class GaussianPolicy:
    """Mlp producing a diagonal Gaussian over a box of actions."""

    def __init__(self, obs_dim: int, action_low, action_high, hidden: int = 256,
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.obs_dim = int(obs_dim)
        self.head = GaussianHead(action_low, action_high)
        self.hidden = int(hidden)
        self.net = Mlp(self.obs_dim, self.hidden, 2 * self.head.dim, rng)

    def params(self) -> list:
        return self.net.params()

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One unclipped sample: the env clips it when it steps, and the
        trajectory records it as drawn, so log_prob scores what was sampled."""
        raw = self.net.forward(np.asarray(obs, dtype=float))
        return self.head.sample(raw, rng)

    def act_rows(self, obs: np.ndarray, rngs: list) -> np.ndarray:
        """act over observation rows, one generator per row: row i is bit
        for bit act(obs[i], rngs[i]) and draws from rngs[i] what it draws."""
        mu, sd = self.head.split(self.net.forward_rows(obs))
        return mu + sd * np.array([rng.standard_normal(self.head.dim) for rng in rngs])

    def log_prob(self, obs: np.ndarray, a_raw: np.ndarray) -> np.ndarray:
        # leaves the net's forward cache on the full batch for backward use
        raw = self.net.forward(np.atleast_2d(obs))
        return self.head.log_prob(raw, np.atleast_2d(a_raw))

    def save(self, path) -> None:
        tensors = mlp_tensors(self.net, "pi")
        tensors["pi.low"] = self.head.low
        tensors["pi.high"] = self.head.high
        save_checkpoint(path, tensors, {"kind": "policy", "obs_dim": self.obs_dim,
                                        "hidden": self.hidden})

    @classmethod
    def load(cls, path) -> "GaussianPolicy":
        tensors, meta = load_checkpoint(path)
        if meta.get("kind") != "policy":
            raise ValueError(f"{path}: not a policy checkpoint")
        pol = cls(meta["obs_dim"], tensors["pi.low"], tensors["pi.high"],
                  hidden=meta["hidden"])
        load_mlp(pol.net, tensors, "pi")
        return pol


# ---------------------------------------------------------------------------
# generalized advantage estimation

def gae_advantages(rewards: np.ndarray, values: np.ndarray, gamma: float,
                   lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-trajectory advantages and value targets; terminal value is zero."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    adv = np.zeros_like(rewards)
    last = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        v_next = values[t + 1] if t + 1 < len(values) else 0.0
        delta = rewards[t] + gamma * v_next - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv, adv + values


# ---------------------------------------------------------------------------
# PPO-Lagrange

class PpoState:
    """Value networks, optimizers, and hyperparameters for ppo_lagrange_update."""

    # surrogate clip width, discount, GAE lambda and rows per minibatch
    clip, gamma, gae_lambda, minibatch = 0.2, 0.99, 0.95, 256

    def __init__(self, policy: GaussianPolicy, rng: np.random.Generator,
                 lr: float = 1e-3, entropy_beta: float = 0.0):
        self.v_reward = Mlp(policy.obs_dim, policy.hidden, 1, rng)
        self.v_cost = Mlp(policy.obs_dim, policy.hidden, 1, rng)
        self.opt_pi = AdamState(policy.params(), lr)
        self.opt_vr = AdamState(self.v_reward.params(), lr)
        self.opt_vc = AdamState(self.v_cost.params(), lr)
        self.entropy_beta = entropy_beta


def ppo_lagrange_update(policy: GaussianPolicy, rollouts: list, risk_bars,
                        ls: LagrangeState, ppo: PpoState,
                        rng: np.random.Generator) -> dict:
    """One epoch of clipped-surrogate minibatch ascent on reward minus risk.

    Each trajectory's expected risk is spread uniformly over its steps as a
    pseudo-cost; reward and cost advantages are estimated separately and
    combined with the damped safety weight before normalization.
    """
    if not rollouts:
        raise ValueError("need at least one rollout")
    risk_bars = np.asarray(risk_bars, dtype=float)
    if risk_bars.shape[0] != len(rollouts):
        raise ValueError("one risk value per rollout required")
    kappa_tilde = damped_weight(ls, float(risk_bars.mean()))

    obs = np.concatenate([t.states for t in rollouts])
    a_raw = np.concatenate([t.actions for t in rollouts])
    lp_old = policy.log_prob(obs, a_raw)

    vr = ppo.v_reward.forward(obs)[:, 0]
    vc = ppo.v_cost.forward(obs)[:, 0]
    adv_r = np.empty(len(obs))
    adv_c = np.empty(len(obs))
    ret_r = np.empty(len(obs))
    ret_c = np.empty(len(obs))
    at = 0
    for m, tau in enumerate(rollouts):
        n = len(tau)
        pseudo = np.full(n, risk_bars[m] / n)
        a, r = gae_advantages(tau.extrinsic_rewards, vr[at:at + n],
                              ppo.gamma, ppo.gae_lambda)
        adv_r[at:at + n], ret_r[at:at + n] = a, r
        a, r = gae_advantages(pseudo, vc[at:at + n], ppo.gamma, ppo.gae_lambda)
        adv_c[at:at + n], ret_c[at:at + n] = a, r
        at += n

    adv = adv_r - kappa_tilde * adv_c
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    snapshot = ([p.copy() for p in policy.params()]
                + [p.copy() for p in ppo.v_reward.params()]
                + [p.copy() for p in ppo.v_cost.params()])
    idx = rng.permutation(len(obs))
    clip_hits = 0
    for s in range(0, len(idx), ppo.minibatch):
        mb = idx[s:s + ppo.minibatch]
        raw = policy.net.forward(obs[mb])
        lp = policy.head.log_prob(raw, a_raw[mb])
        ratio = np.exp(np.clip(lp - lp_old[mb], -LOG_RATIO_CLIP, LOG_RATIO_CLIP))
        a_mb = adv[mb]
        outside = ((a_mb >= 0.0) & (ratio > 1.0 + ppo.clip)) | (
            (a_mb < 0.0) & (ratio < 1.0 - ppo.clip))
        clip_hits += int(outside.sum())
        coeff = np.where(outside, 0.0, ratio * a_mb) / len(mb)
        dr = policy.head.log_prob_backward(raw, a_raw[mb], coeff)
        if ppo.entropy_beta > 0.0:
            dr = dr + policy.head.entropy_backward(
                raw, np.full(len(mb), ppo.entropy_beta / len(mb)))
        grads = policy.net.backward(dr)
        if not all(np.all(np.isfinite(g)) for g in grads):
            _restore(policy, ppo, snapshot)
            return {"nan_aborted": True, "kappa_tilde": kappa_tilde}
        ppo.opt_pi.step(policy.params(), [-g for g in grads])

        for net, opt, target in ((ppo.v_reward, ppo.opt_vr, ret_r),
                                 (ppo.v_cost, ppo.opt_vc, ret_c)):
            v = net.forward(obs[mb])[:, 0]
            gv = net.backward((2.0 * (v - target[mb]) / len(mb))[:, None])
            if not all(np.all(np.isfinite(g)) for g in gv):
                _restore(policy, ppo, snapshot)
                return {"nan_aborted": True, "kappa_tilde": kappa_tilde}
            opt.step(net.params(), gv)

    return {"nan_aborted": False, "kappa_tilde": kappa_tilde,
            "clip_fraction": clip_hits / len(obs),
            "mean_advantage": float(adv.mean()),
            "value_loss": float(((vr - ret_r) ** 2).mean()),
            "cost_value_loss": float(((vc - ret_c) ** 2).mean())}


def _restore(policy, ppo, snapshot):
    params = (policy.params() + ppo.v_reward.params() + ppo.v_cost.params())
    for p, s in zip(params, snapshot):
        p[:] = s


# ---------------------------------------------------------------------------
# trust-region entropy step (safe IL)

@dataclass(frozen=True)
class TrustRegionConfig:
    """Gate and objective weights for the imitation-stage policy loop."""

    delta: float
    beta: float
    k: int = 4

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def safe_il_policy_step(policy: GaussianPolicy, rollouts: list, risk_bars,
                        tr: TrustRegionConfig, ls: LagrangeState,
                        rng: np.random.Generator, *, opt: AdamState,
                        max_particles: int) -> dict:
    """Entropy-ascent inner loop gated by the divergence estimate.

    Particles are rollout states under the old policy; reweighting them by
    per-trajectory likelihood ratios tracks the new policy's state
    distribution without fresh rollouts. Steps ascend
    beta * H_k + reward surrogate - kappa_tilde * risk surrogate
    and stop at the first divergence estimate above delta (the first step
    always runs) or after MAX_INNER opt steps. risk_bars holds each
    rollout's expected risk under the constraint model.
    """
    if not rollouts:
        raise ValueError("need at least one rollout")
    risk_bars = np.asarray(risk_bars, dtype=float)
    n_traj = len(rollouts)
    kappa_tilde = damped_weight(ls, float(risk_bars.mean()))

    obs = np.concatenate([t.states for t in rollouts])
    a_raw = np.concatenate([t.actions for t in rollouts])
    traj_of_row = np.concatenate([np.full(len(t), m, dtype=int)
                                  for m, t in enumerate(rollouts)])
    if len(obs) > max_particles:
        pick = np.sort(rng.choice(len(obs), size=max_particles, replace=False))
    else:
        pick = np.arange(len(obs))
    graph = KnnGraph(ParticleSet(obs[pick]), tr.k)
    traj_of_particle = traj_of_row[pick]

    returns = np.array([float(np.sum(t.extrinsic_rewards)) for t in rollouts])
    r_base = returns.mean()
    risk_base = risk_bars.mean()

    lp_old = policy.log_prob(obs, a_raw)

    # inverse neighbor scatter: dH/dw_j = -sum over balls containing j
    inv_idx = graph.neighbors.ravel()

    dkls = []
    entropies = []
    steps = 0
    for inner in range(MAX_INNER):
        raw = policy.net.forward(obs)
        lp_new = policy.head.log_prob(raw, a_raw)
        delta_m = np.zeros(n_traj)
        np.add.at(delta_m, traj_of_row, lp_new - lp_old)
        clipped = np.abs(delta_m) >= LOG_RATIO_CLIP
        u = np.exp(np.clip(delta_m, -LOG_RATIO_CLIP, LOG_RATIO_CLIP))
        w = u[traj_of_particle]
        w = w / w.sum()
        ws = ImportanceWeightSet(w)

        # the signed estimate drifts negative under pure entropy ascent, so
        # the region must bite on deviation in either direction
        dkl = graph.kl_estimate(ws)
        if inner > 0 and abs(dkl) > tr.delta:
            break
        dkls.append(dkl)
        entropies.append(graph.iw_entropy(ws))

        big = graph.neighbor_weight_sums(w)
        term = np.zeros_like(big)
        pos = big > 0.0
        term[pos] = (np.log(big[pos]) - graph.log_vol[pos] + 1.0) / tr.k
        g = np.zeros(graph.m)
        np.add.at(g, inv_idx, -np.repeat(term, tr.k))

        gw = g * w
        g_tot = float(gw.sum())
        g_m = np.zeros(n_traj)
        np.add.at(g_m, traj_of_particle, gw)
        p_m = np.zeros(n_traj)
        np.add.at(p_m, traj_of_particle, w)

        coef = tr.beta * (g_m - p_m * g_tot)
        coef += u * ((returns - r_base) - kappa_tilde * (risk_bars - risk_base)) / n_traj
        coef[clipped] = 0.0

        dr = policy.head.log_prob_backward(raw, a_raw, coef[traj_of_row])
        grads = policy.net.backward(dr)
        if not all(np.all(np.isfinite(g_)) for g_ in grads):
            return {"nan_aborted": True, "inner_steps": steps, "dkls": dkls,
                    "entropies": entropies, "kappa_tilde": kappa_tilde}
        opt.step(policy.params(), [-g_ for g_ in grads])
        steps += 1

    return {"nan_aborted": False, "inner_steps": steps, "dkls": dkls,
            "entropies": entropies, "kappa_tilde": kappa_tilde,
            "expected_risk": float(risk_bars.mean())}


# ---------------------------------------------------------------------------
# constrained cross-entropy ranking

def cem_rank(rewards: np.ndarray, violations: np.ndarray) -> np.ndarray:
    """Candidate order: fewest violated constraints, least total excess,
    then highest reward."""
    counts = (violations > 0.0).sum(axis=1)
    mags = np.maximum(violations, 0.0).sum(axis=1)
    return np.lexsort((-np.asarray(rewards, dtype=float), mags, counts))
