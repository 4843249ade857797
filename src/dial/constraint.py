"""Risk-sensitive constraint model.

A small network maps each (state, action) pair to Beta shape parameters; a
trajectory's feasibility criterion aggregates the per-step lower-tail CVaR
values. Expert trajectories push the criterion up, nominal rollouts push it
down through importance weights, and a Beta KL term regularizes toward a
sparse prior. A separate threshold-inference mode learns per-feature
violation budgets for environments whose cost features are observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .betarisk import (BetaParams, RiskLevel, beta_kl_arr, beta_mean_arr, cvar_arr,
                       cvar_grad_arr, trigamma_arr)
from .nets import AdamState, BetaHead, Mlp, load_checkpoint, load_mlp, mlp_tensors, save_checkpoint

LOG_FLOOR = math.log(1e-30)
# slack for np.log's rounding when a sum of log means vouches for the floor
FLOOR_MARGIN = 1e-6
OMEGA_LO, OMEGA_HI = 1e-3, 1e3

PER_STEP_BETA = "per-step-beta"
THRESHOLD = "threshold-inference"


@dataclass
class Trajectory:
    """One rollout: per-step arrays of equal length."""

    states: np.ndarray
    actions: np.ndarray
    extrinsic_rewards: np.ndarray
    cost_features: np.ndarray
    task: object = None

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.actions = np.atleast_2d(np.asarray(self.actions, dtype=float))
        self.extrinsic_rewards = np.asarray(self.extrinsic_rewards, dtype=float).reshape(-1)
        self.cost_features = np.atleast_2d(np.asarray(self.cost_features, dtype=float))
        n = len(self.states)
        if not (len(self.actions) == len(self.extrinsic_rewards)
                == len(self.cost_features) == n) or n == 0:
            raise ValueError("trajectory arrays must share a nonzero length")
        for arr in (self.states, self.actions, self.extrinsic_rewards, self.cost_features):
            if not np.all(np.isfinite(arr)):
                raise ValueError("trajectory contains non-finite entries")

    def __len__(self) -> int:
        return len(self.states)


class ConstraintModel:
    """Learnable feasibility model, either per-step Beta or threshold mode.

    Per-step mode runs an Mlp with a BetaHead over concatenated
    (state, action) rows. Threshold mode keeps one logit per cost feature;
    sigmoid(logit) is the inferred per-episode rate budget.
    """

    def __init__(self, state_dim: int, action_dim: int, hidden: int = 256,
                 mode: str = PER_STEP_BETA, n_features: int = 4,
                 rng: np.random.Generator | None = None):
        if mode not in (PER_STEP_BETA, THRESHOLD):
            raise ValueError(f"unknown constraint mode '{mode}'")
        self.mode = mode
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.hidden = int(hidden)
        self.n_features = int(n_features)
        if mode == PER_STEP_BETA:
            if rng is None:
                rng = np.random.default_rng(0)
            self.net = Mlp(self.state_dim + self.action_dim, self.hidden, 2, rng)
            self.head = BetaHead()
            self.logits = None
        else:
            self.net = None
            self.head = None
            self.logits = np.zeros(self.n_features)

    # -- parameter access -------------------------------------------------

    def params(self) -> list:
        if self.mode == PER_STEP_BETA:
            return self.net.params()
        return [self.logits]

    @property
    def thresholds(self) -> np.ndarray:
        if self.mode != THRESHOLD:
            raise ValueError("thresholds exist only in threshold-inference mode")
        return 1.0 / (1.0 + np.exp(-self.logits))

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        # trajectories always aggregate as a product of per-step terms; the
        # header still names it so existing checkpoints keep their bytes
        meta = {"kind": "constraint", "mode": self.mode,
                "aggregation": "product",
                "state_dim": self.state_dim, "action_dim": self.action_dim,
                "hidden": self.hidden, "n_features": self.n_features}
        if self.mode == PER_STEP_BETA:
            tensors = mlp_tensors(self.net, "phi")
        else:
            tensors = {"logits": self.logits}
        save_checkpoint(path, tensors, meta)

    @classmethod
    def load(cls, path) -> "ConstraintModel":
        tensors, meta = load_checkpoint(path)
        if meta.get("kind") != "constraint":
            raise ValueError(f"{path}: not a constraint checkpoint")
        if meta.get("aggregation") != "product":
            raise ValueError(f"{path}: unsupported aggregation "
                             f"'{meta.get('aggregation')}'")
        model = cls(meta["state_dim"], meta["action_dim"], hidden=meta["hidden"],
                    mode=meta["mode"], n_features=meta["n_features"])
        if model.mode == PER_STEP_BETA:
            load_mlp(model.net, tensors, "phi")
        else:
            model.logits = np.asarray(tensors["logits"], dtype=float).copy()
        return model

    # -- evaluation -------------------------------------------------------

    def step_alphas(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Beta shape parameters for a batch of steps, shape (T, 2)."""
        if self.mode != PER_STEP_BETA:
            raise ValueError("step_alphas requires per-step-beta mode")
        x = np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)], axis=1)
        return self.head.alphas(self.net.forward(x))


def _threshold_terms(model: ConstraintModel, tau: Trajectory) -> np.ndarray:
    rates = tau.cost_features.mean(axis=0)
    if rates.shape[0] != model.n_features:
        raise ValueError(f"expected {model.n_features} cost features, got {rates.shape[0]}")
    return np.maximum(1.0 - np.maximum(0.0, rates - model.thresholds), 1e-12)


def gamma_criterion(model: ConstraintModel, taus: list, lam: RiskLevel) -> np.ndarray:
    """Feasibility criterion gamma of each trajectory at risk level lam.

    Per-step mode runs the network on each trajectory's rows alone, since
    BLAS rounds a row differently depending on how many rows share the
    call, then takes every row's CVaR in one cvar_arr call, whose rows never
    mix.  A trajectory's gamma is the product of its own rows' CVaRs,
    floored in log space at LOG_FLOOR, and has the same bits in any batch.
    The expected risk gamma_bar is 1 - gamma.
    """
    if model.mode == THRESHOLD:
        return np.array([math.exp(max(float(np.log(_threshold_terms(model, t)).sum()),
                                      LOG_FLOOR)) for t in taus])
    alphas = np.concatenate([model.step_alphas(t.states, t.actions) for t in taus])
    cv = cvar_arr(alphas[:, 0], alphas[:, 1], lam.lam)
    ends = np.cumsum([len(t) for t in taus])[:-1]
    return np.array([min(math.exp(max(float(np.log(np.maximum(c, 1e-300)).sum()),
                                      LOG_FLOOR)), 1.0) for c in np.split(cv, ends)])


def importance_weights(model: ConstraintModel, taus: list,
                       prev_gamma: np.ndarray) -> np.ndarray:
    """Likelihood ratios of taus under the current vs the previous model.

    prev_gamma holds the taus' lam = 1 criterion under the model that was
    current when they were collected.
    """
    g_cur = gamma_criterion(model, taus, RiskLevel(1.0))
    return np.clip(g_cur / prev_gamma, OMEGA_LO, OMEGA_HI)


def sample_risk_level(rng: np.random.Generator) -> RiskLevel:
    # reject the extreme lower tail where CVaR inversion degenerates
    lam = float(rng.uniform())
    while lam < 1e-3:
        lam = float(rng.uniform())
    return RiskLevel(lam)


# ---------------------------------------------------------------------------
# constraint update

def _kl_grads(alphas: np.ndarray, prior: BetaParams):
    """Beta KL to the prior per row plus its partials in both shape parameters.

    d KL / d qa = (qa - pa) psi'(qa) + (pa - qa + pb - qb) psi'(qa + qb),
    and likewise for qb.
    """
    a1, a2 = alphas[:, 0], alphas[:, 1]
    p1, p2 = prior.alpha1, prior.alpha2
    kl = beta_kl_arr(a1, a2, p1, p2)
    both = (p1 - a1 + p2 - a2) * trigamma_arr(a1 + a2)
    return kl, (a1 - p1) * trigamma_arr(a1) + both, (a2 - p2) * trigamma_arr(a2) + both


def _log_gamma_row_grads(cv: np.ndarray):
    """d log(product) / d cv per row, honoring the floor."""
    cv = np.maximum(cv, 1e-300)
    grads = np.zeros_like(cv)
    log_g = float(np.log(cv).sum())
    if log_g > LOG_FLOOR:
        grads = 1.0 / cv
    return max(log_g, LOG_FLOOR), grads


def _report(aborted: bool, loss_e, loss_n, kl, grad_norm, omegas, floored=0) -> dict:
    return {"nan_aborted": aborted, "loss_expert": loss_e, "loss_nominal": loss_n,
            "kl": kl, "grad_norm": grad_norm, "omegas": list(omegas), "floored": floored}


def _update_threshold(model, sides, omegas, opt):
    grad = np.zeros_like(model.logits)
    log_e = log_n = 0.0
    eps_hat = model.thresholds
    for w, n, tau in sides:
        terms = _threshold_terms(model, tau)
        active = tau.cost_features.mean(axis=0) > eps_hat
        # d log term_i / d logit_i = sig'(l_i) / term_i where the hinge is on
        grad += w * np.where(active, eps_hat * (1.0 - eps_hat) / terms, 0.0) / n
        part = w * float(np.log(terms).sum()) / n
        if w > 0:
            log_e += part
        else:
            log_n -= part
    if not np.all(np.isfinite(grad)):
        return _report(True, log_e, log_n, 0.0, float("nan"), omegas)
    opt.step([model.logits], [-grad])
    return _report(False, log_e, log_n, 0.0, float(np.linalg.norm(grad)), omegas)


def constraint_update(model: ConstraintModel, expert_batch: list, nominal_batch: list,
                      lam: RiskLevel, *, kl_weight: float, prior: BetaParams,
                      prev_gamma: np.ndarray, opt: AdamState) -> dict:
    """One ascent step on the expert-vs-nominal criterion gap, KL-regularized.

    Maximizes E_expert[log gamma] - E_nominal[omega * log gamma] while
    descending kl_weight times the mean Beta KL to the prior. Gradients reach
    the network by composing the CVaR and KL partials in the shape
    parameters with exact backprop; opt consumes the combined gradient at
    its own lr. prev_gamma holds the nominal trajectories' lam = 1 criterion
    under the model they were collected against, from which the importance
    weights omega follow.

    A row's CVaR never exceeds its Beta mean, so a trajectory whose summed
    log means is at most LOG_FLOOR - FLOOR_MARGIN is floored and its rows
    get zero gradient: those rows keep their means as CVaRs with zero
    partials, and only the other rows go to cvar_grad_arr, each with the
    bits it gets in any batch.  A skipped row's quantile is never solved,
    so it cannot raise; every computed row still raises on a failed solve.
    A bound that is not a number takes the exact path.  The report counts
    the trajectories whose log gamma sits at LOG_FLOOR as floored.
    """
    if not expert_batch or not nominal_batch:
        raise ValueError("need nonempty expert and nominal batches")
    # a poisoned model would crash the special functions before the gradient
    # NaN check could fire, so screen the parameters up front
    if not all(np.all(np.isfinite(p)) for p in model.params()):
        nan = float("nan")
        return _report(True, nan, nan, nan, nan, [])
    omegas = importance_weights(model, nominal_batch, prev_gamma)
    # (weight, batch size, trajectory): experts ascend, nominals descend by omega
    sides = [(1.0, len(expert_batch), tau) for tau in expert_batch]
    sides += [(-float(om), len(nominal_batch), tau) for om, tau in zip(omegas, nominal_batch)]
    if model.mode == THRESHOLD:
        return _update_threshold(model, sides, omegas, opt)

    x = np.concatenate([np.concatenate([tau.states, tau.actions], axis=1)
                        for _, _, tau in sides])
    raw = model.net.forward(x)
    alphas = model.head.alphas(raw)
    cv = beta_mean_arr(alphas[:, 0], alphas[:, 1])
    dc1, dc2 = np.zeros(len(x)), np.zeros(len(x))
    lens = [len(tau) for _, _, tau in sides]
    bounds = np.array([np.log(np.maximum(c, 1e-300)).sum()
                       for c in np.split(cv, np.cumsum(lens)[:-1])])
    keep = np.repeat(~(bounds <= LOG_FLOOR - FLOOR_MARGIN), lens)
    if keep.any():
        cv[keep], dc1[keep], dc2[keep] = cvar_grad_arr(alphas[keep, 0], alphas[keep, 1],
                                                       lam.lam)
    kl, dk1, dk2 = _kl_grads(alphas, prior)

    dalpha = np.zeros_like(alphas)
    loss_e = loss_n = 0.0
    floored = hi = 0
    for w, n, tau in sides:
        lo, hi, w = hi, hi + len(tau), w / n
        log_g, row_g = _log_gamma_row_grads(cv[lo:hi])
        floored += log_g == LOG_FLOOR
        dalpha[lo:hi, 0] += w * row_g * dc1[lo:hi]
        dalpha[lo:hi, 1] += w * row_g * dc2[lo:hi]
        if w > 0:
            loss_e += w * log_g
        else:
            loss_n += -w * log_g
    # KL term: mean over every step row of both batches
    dalpha[:, 0] -= kl_weight * dk1 / len(x)
    dalpha[:, 1] -= kl_weight * dk2 / len(x)

    draw = model.head.backward(raw, dalpha)
    grads = model.net.backward(draw)
    if not all(np.all(np.isfinite(g)) for g in grads):
        return _report(True, loss_e, loss_n, float(kl.mean()), float("nan"), omegas,
                       floored)
    gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    opt.step(model.net.params(), [-g for g in grads])
    return _report(False, loss_e, loss_n, float(kl.mean()), gnorm, omegas, floored)


def constraint_values(model: ConstraintModel, obs: np.ndarray, action: np.ndarray,
                      lam: RiskLevel) -> np.ndarray:
    """Expected risk gamma_bar of each observation treated as a 1-step trajectory.

    Used by the constraint-map export: rows of obs share one fixed action.
    """
    obs = np.atleast_2d(obs)
    acts = np.broadcast_to(np.asarray(action, dtype=float), (len(obs), model.action_dim))
    alphas = model.step_alphas(obs, acts)
    cv = np.clip(cvar_arr(alphas[:, 0], alphas[:, 1], lam.lam), 1e-30, 1.0)
    return 1.0 - cv
