"""Training orchestration: expert generation, safe imitation, safe transfer.

The imitation stage alternates constraint updates at sampled risk levels with
gated entropy steps on the exploration policy; the transfer stage freezes the
constraint model and optimizes a target reward against the recovered risk.
What differs between environments (stage budgets, task families, the
demonstrators, and whether a driving controller with a threshold constraint
replaces the Gaussian policy and the per-step Beta model) is one row of
RECIPES; the stages themselves are shared.

Rollout streams: each episode draws its task, then its start (env.reset),
in episode order. run_tasks steps the episodes of an env with step_batch
and a policy with act_rows in lockstep, each on a stream of its own:
evaluate's SeedSequence([seed, episode]), which drew its task too, or
expert-gen's child rng.spawn(n_experts)[i], which leaves the stage
stream's draws as they were. Anything else runs one episode at a time on
the stage stream, so an expert that draws nothing per step writes the same
demonstrations on either path. collect_rollouts keeps every episode on
the one stage stream, and with step_batch and a Gaussian policy it still
steps them in lockstep while they run to the horizon: it draws each
episode's noise ahead and rewinds the stream where one ends early.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .betarisk import BetaParams, RiskLevel
from .constraint import (
    PER_STEP_BETA,
    THRESHOLD,
    ConstraintModel,
    Trajectory,
    constraint_update,
    gamma_criterion,
    sample_risk_level,
)
from .dataio import read_dataset, write_dataset, write_metrics
from .envs import make_env
from .envs.base import row_dots
from .nets import AdamState, load_checkpoint, save_checkpoint
from .policyopt import (
    GaussianPolicy,
    LagrangeState,
    PpoState,
    TrustRegionConfig,
    cem_rank,
    damped_weight,
    safe_il_policy_step,
    ppo_lagrange_update,
    update_safety_weight,
)

STAGES = ("expert-gen", "safe-il", "safe-tl", "eval")

CONSTRAINT_FILE = "constraint.ckpt"
POLICY_FILE = "policy.ckpt"
METRICS_FILE = "metrics.jsonl"
DATASET_FILE = "experts.jsonl"


class ConfigError(ValueError):
    """Bad run configuration; the CLI reports these as usage failures."""


class ExpertInfeasibleError(RuntimeError):
    """The experts' demonstrations missed the safety budget; nothing was written."""


def dial_threads() -> int:
    """Number of threads `evaluate` uses: one, the caller's."""
    return 1


@dataclass(frozen=True)
class Recipe:
    """One environment's row of RECIPES.

    il_steps budgets safe-il and tl_steps safe-tl; beta and delta are
    safe-il's entropy weight and trust region. tasks names the task family
    of expert-gen, then of safe-tl and eval (safe-il draws "il"). driving
    swaps the Gaussian policy and per-step Beta model for controller CEM
    rounds against a threshold constraint. experts(env, cfg, rng, mode)
    builds the demonstrators, CEM-searched controllers or closed-form
    guidance laws, and returns policy_for: a task's goal (or None) to the
    policy that demonstrates it, or one goal row per task to the one that
    demonstrates each row (see run_tasks).
    """

    il_steps: int
    tl_steps: int
    n_experts: int
    beta: float
    delta: float
    tasks: tuple
    driving: bool
    experts: Callable


def task_mode_for(env_name: str, stage: str) -> str:
    """Which task family each stage draws from."""
    if stage == "safe-il":
        return "il"
    expert, transfer = RECIPES[env_name].tasks
    return expert if stage == "expert-gen" else transfer


# the type each numeric TrainConfig field must hold (bools are neither)
_NUMERIC = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


@dataclass
class TrainConfig:
    """One run's knobs. Env-step budgets count collected rollout steps;
    candidate evaluations inside a cross-entropy policy phase are not part
    of the imitation budget (they are for transfer, where the search is the
    optimizer)."""

    env: str
    stage: str
    seed: int = 0
    env_steps: int = 0
    n_rollouts: int = 20
    n_experts: int = 50
    lam: float = 0.5
    lambda_mode: str = "uniform"
    lam_pinned: float = 1.0
    beta: float = 0.01
    delta: float = 0.5
    lr_constraint: float = 1e-2
    lr_prior: float = 1e-2
    lr_kappa: float = 1e-3
    lr_reward: float = 1e-3
    kappa0: float = 1.0
    kappa_d: float = 10.0
    k_neighbors: int = 4
    prior_alpha: tuple = (0.1, 0.9)
    constraint_steps: int = 10
    batch_expert: int = 10
    batch_nominal: int = 10
    hidden_policy: int = 64
    hidden_constraint: int = 64
    expert_eps_frac: float = 0.5
    safety_margin: float = 1.0
    cem_samp: int = 80
    cem_elite: int = 20
    cem_iter: int = 5
    cem_eval_episodes: int = 4
    controller_std0: float = 1.0
    controller_std_floor: float = 0.05
    max_particles: int = 2048
    eval_episodes: int = 20
    eval_seeds: list | None = None
    env_config: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            v, kind = getattr(self, f.name), _NUMERIC.get(f.type)
            if kind and (isinstance(v, bool) or not isinstance(v, kind[0])):
                raise ConfigError(f"{f.name} must be {kind[1]}, got {v!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage '{self.stage}'")
        if self.env_steps <= 0 and self.stage in ("safe-il", "safe-tl"):
            raise ConfigError(f"env_steps must be > 0, got {self.env_steps}")
        if self.n_rollouts < 1 or self.n_experts < 1:
            raise ConfigError("n_rollouts and n_experts must be >= 1")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError(f"lam must lie in (0, 1], got {self.lam}")
        if self.lambda_mode not in ("uniform", "pinned"):
            raise ConfigError(f"unknown lambda_mode '{self.lambda_mode}'")
        if not 0.0 < self.lam_pinned <= 1.0:
            raise ConfigError(f"lam_pinned must lie in (0, 1], got {self.lam_pinned}")
        if self.constraint_steps < 0:
            raise ConfigError("constraint_steps must be >= 0")
        if self.batch_expert < 1 or self.batch_nominal < 1:
            raise ConfigError("constraint batch sizes must be >= 1")
        if self.cem_elite > self.cem_samp:
            raise ConfigError("cem_elite cannot exceed cem_samp")
        if min(self.cem_elite, self.cem_iter, self.cem_eval_episodes) < 1:
            raise ConfigError(
                "cem_elite, cem_iter and cem_eval_episodes must be >= 1")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.max_particles <= self.k_neighbors:
            raise ConfigError(f"max_particles must exceed k_neighbors "
                              f"({self.k_neighbors}), got {self.max_particles}")
        if min(self.hidden_policy, self.hidden_constraint) < 1:
            raise ConfigError("hidden_policy and hidden_constraint must be >= 1")
        if self.delta < 0.0 or self.kappa0 < 0.0:
            raise ConfigError("delta and kappa0 must be >= 0")
        if not 0.0 < self.expert_eps_frac <= 1.0:
            raise ConfigError(
                f"expert_eps_frac must lie in (0, 1], got {self.expert_eps_frac}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if not self.lr_constraint > 0.0:
            raise ConfigError(f"lr_constraint must be > 0, got {self.lr_constraint}")
        try:
            BetaParams(*self.prior_alpha)
        except (TypeError, ValueError):
            raise ConfigError(f"prior_alpha must be two finite numbers > 0, "
                              f"got {self.prior_alpha!r}") from None
        seeds = self.eval_seeds
        if seeds is not None and not (isinstance(seeds, (list, tuple)) and all(
                type(s) is int and s >= 0 for s in seeds)):
            raise ConfigError(f"eval_seeds must be a list of integers >= 0, got {seeds!r}")
        if self.env not in RECIPES:
            raise ConfigError(f"unknown env '{self.env}'")
        if not isinstance(self.env_config, (dict, type(None))):
            raise ConfigError(f"env_config must be an object, got {self.env_config!r}")
        try:
            make_env(self.env, self.env_config)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"env_config: {exc}") from None

    @classmethod
    def for_env(cls, env: str, stage: str, **overrides) -> "TrainConfig":
        """Stage defaults from the environment's recipe."""
        if env not in RECIPES:
            raise ConfigError(f"unknown env '{env}'")
        r = RECIPES[env]
        base: dict = {"env": env, "stage": stage, "n_experts": r.n_experts}
        if stage in ("safe-il", "expert-gen"):
            base.update(env_steps=r.il_steps, beta=r.beta, delta=r.delta)
        elif stage in ("safe-tl", "eval"):
            base["env_steps"] = r.tl_steps
        base.update(overrides)
        return cls.from_dict(base)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("env", "stage"):
            if key not in data:
                raise ConfigError(f"config is missing required key '{key}'")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


@dataclass
class Metrics:
    """Aggregate episode statistics.

    rr/cr are episode sums averaged over episodes (cr per cost feature),
    cv the fraction of episodes whose per-step rate breaks any budget, se
    the entropy of the pooled visitation histogram, goal_rate the fraction
    that reached their goal.
    """

    rr: float
    cr: np.ndarray
    cv: float
    se: float
    goal_rate: float
    feasible_reward: float | None = None

    def __post_init__(self):
        self.cr = np.asarray(self.cr, dtype=float).reshape(-1)
        if not 0.0 <= self.cv <= 1.0:
            raise ValueError(f"cv must lie in [0, 1], got {self.cv}")
        if self.se < 0.0:
            raise ValueError(f"se must be >= 0, got {self.se}")

    @property
    def cr_total(self) -> float:
        return float(self.cr.sum())

    def to_dict(self) -> dict:
        out = {"rr": self.rr, "cr": [float(v) for v in self.cr],
               "cr_total": self.cr_total, "cv": self.cv, "se": self.se,
               "goal_rate": self.goal_rate}
        if self.feasible_reward is not None:
            out["feasible_reward"] = self.feasible_reward
        return out


# ---------------------------------------------------------------------------
# rollout plumbing

class GainPolicy:
    """A deterministic gain vector with the per-gain search width of the CEM."""

    def __init__(self, gains, std=None):
        self.gains = np.asarray(gains, dtype=float).reshape(-1)
        self.std = (np.ones_like(self.gains) if std is None
                    else np.asarray(std, dtype=float).reshape(-1))


class ControllerPolicy(GainPolicy):
    """Gains as the action; the driving env maps them to pedal and wheel."""

    def act(self, obs, rng):
        return self.gains

    def save(self, path) -> None:
        save_checkpoint(path, {"ctrl.gains": self.gains, "ctrl.std": self.std},
                        {"kind": "controller"})

    @classmethod
    def load(cls, path) -> "ControllerPolicy":
        tensors, meta = load_checkpoint(path)
        if meta.get("kind") != "controller":
            raise ValueError(f"{path}: not a controller checkpoint")
        return cls(tensors["ctrl.gains"], tensors["ctrl.std"])


class PumpPolicy(GainPolicy):
    """Bang-bang energy pump for under-actuated climbs.

    Throttle rides the current motion except when retreating past the brake
    line or faster than the retreat cap, where it flips to slow down.  Gains
    are offsets in scaled units around mid-track and mid-cap so the zero
    vector is already a sane controller and unit noise covers the usable band.
    """

    BRAKE_MID, BRAKE_SPAN = -0.35, 0.3
    CAP_MID, CAP_SPAN = 0.035, 0.025

    def act(self, obs, rng):
        x, v = float(obs[0]), float(obs[1])
        brake_line = self.BRAKE_MID + self.gains[0] * self.BRAKE_SPAN
        retreat_cap = self.CAP_MID + self.gains[1] * self.CAP_SPAN
        if v >= 0.0 or x <= brake_line or v <= -retreat_cap:
            a = np.ones(1)
        else:
            a = -np.ones(1)
        return a

    def act_rows(self, obs, rngs):
        """act over observation rows, bit for bit; draws nothing. gains may
        be one vector for every row or one row of gains per observation."""
        x, v = obs[..., 0], obs[..., 1]
        brake_line = self.BRAKE_MID + self.gains[..., 0] * self.BRAKE_SPAN
        retreat_cap = self.CAP_MID + self.gains[..., 1] * self.CAP_SPAN
        return np.where((v >= 0.0) | (x <= brake_line) | (v <= -retreat_cap),
                        1.0, -1.0)


class BalancePolicy(GainPolicy):
    """Linear state feedback clip(k . obs, -1, 1) for balancing a pole.

    k = MID + SPAN * gains: gains are offsets in scaled units around a gain
    that already balances from near upright, as PumpPolicy's are.
    """

    MID = np.array([0.2, 0.4, 1.5, 1.0])
    SPAN = 0.3

    def act(self, obs, rng):
        k = self.MID + self.SPAN * self.gains
        return np.clip(np.array([float(k @ obs)]), -1.0, 1.0)


class DetourPolicy:
    """Straight-line guidance that swings around a circular no-go disc.

    Aims at the goal; when the straight run would cut the disc inflated by
    margin, aims along the nearer tangent instead, and when already inside
    the shell slides along it with an outward bias.  Jitter adds small
    action noise so repeated runs do not collapse onto one curve.  goal is
    one point, or for act_rows one point per row.
    """

    def __init__(self, goal, hazard_center, hazard_radius,
                 margin: float = 0.3, jitter: float = 0.1):
        self.goal = np.asarray(goal, dtype=float)
        self.hazard = np.asarray(hazard_center, dtype=float)
        self.avoid = float(hazard_radius) + margin
        self.jitter = jitter

    def act(self, obs, rng):
        p = np.asarray(obs, dtype=float)
        to_goal = self.goal - p
        dg = float(np.linalg.norm(to_goal))
        if dg < 1e-9:
            return np.zeros(2)
        u = to_goal / dg
        vc = self.hazard - p
        d = float(np.linalg.norm(vc))
        if d <= self.avoid:
            # right at the disc center every way out ties; keep heading
            if d > 1e-9:
                radial = -vc / d
                tang = np.array([-radial[1], radial[0]])
                if float(tang @ u) < 0.0:
                    tang = -tang
                u = tang + 0.5 * radial
                u = u / float(np.linalg.norm(u))
        elif self._blocked(u, dg, vc, d):
            t_len = math.sqrt(max(d * d - self.avoid ** 2, 1e-12))
            alpha = math.atan2(self.avoid, t_len)
            ca, sa = math.cos(alpha), math.sin(alpha)
            cu = vc / d
            c1 = np.array([ca * cu[0] - sa * cu[1], sa * cu[0] + ca * cu[1]])
            c2 = np.array([ca * cu[0] + sa * cu[1], -sa * cu[0] + ca * cu[1]])
            u = c1 if float(c1 @ u) >= float(c2 @ u) else c2
        # scale so the larger component saturates: full box speed, same heading
        a = u / max(abs(float(u[0])), abs(float(u[1])), 1e-9)
        if self.jitter:
            a = a + self.jitter * rng.standard_normal(2)
        return np.clip(a, -1.0, 1.0)

    def act_rows(self, obs, rngs):
        """act over observation rows, each toward its goal with its own
        generator: row i is bit for bit act(obs[i], rngs[i]) toward goal i
        and draws from rngs[i] what it draws. Dots are per-row matmuls and
        the trig is math's, per blocked row, as numpy's may round otherwise."""
        p = np.asarray(obs, dtype=float)
        to_goal = self.goal - p
        dg = np.sqrt(row_dots(to_goal, to_goal))
        vc = self.hazard - p
        d = np.sqrt(row_dots(vc, vc))
        moving = dg >= 1e-9
        u = to_goal / np.where(moving, dg, 1.0)[:, None]
        inside = d <= self.avoid
        i = np.flatnonzero(inside & (d > 1e-9))
        if i.size:
            radial = -vc[i] / d[i, None]
            tang = np.stack([-radial[:, 1], radial[:, 0]], axis=1)
            flip = row_dots(tang, u[i]) < 0.0
            tang[flip] = -tang[flip]
            v = tang + 0.5 * radial
            u[i] = v / np.sqrt(row_dots(v, v))[:, None]
        proj = row_dots(vc, u)
        j = np.flatnonzero(~inside & (proj > 0.0) & (proj < dg + self.avoid)
                           & (d * d - proj * proj < self.avoid ** 2))
        if j.size:
            t_len = np.sqrt(np.maximum(d[j] * d[j] - self.avoid ** 2, 1e-12))
            alpha = [math.atan2(self.avoid, t) for t in t_len.tolist()]
            ca = np.array([math.cos(x) for x in alpha])
            sa = np.array([math.sin(x) for x in alpha])
            cu = vc[j] / d[j, None]
            x, y = cu[:, 0], cu[:, 1]
            c1 = np.stack([ca * x - sa * y, sa * x + ca * y], axis=1)
            c2 = np.stack([ca * x + sa * y, -sa * x + ca * y], axis=1)
            uj = u[j]
            u[j] = np.where((row_dots(c1, uj) >= row_dots(c2, uj))[:, None], c1, c2)
        a = u / np.maximum(np.maximum(np.abs(u[:, 0]), np.abs(u[:, 1])), 1e-9)[:, None]
        a[~moving] = 0.0
        k = np.flatnonzero(moving)
        if self.jitter and k.size:
            a[k] += self.jitter * np.array([rngs[r].standard_normal(2) for r in k])
        return np.clip(a, -1.0, 1.0)

    def _blocked(self, u, dg: float, vc, d: float) -> bool:
        proj = float(vc @ u)
        if proj <= 0.0 or proj >= dg + self.avoid:
            return False
        return d * d - proj * proj < self.avoid ** 2


def _checkpoint_kind(path, want: tuple) -> str:
    """path's checkpoint kind; ConfigError unless path reads as a checkpoint
    of one of the kinds in want."""
    try:
        kind = load_checkpoint(path)[1].get("kind")
    except (OSError, ValueError) as exc:
        # load_checkpoint's own messages already lead with the path
        msg = str(getattr(exc, "strerror", None) or exc)
        raise ConfigError(msg if msg.startswith(f"{path}:") else f"{path}: {msg}") from exc
    if kind not in want:
        raise ConfigError(f"{path}: a '{kind}' checkpoint, not {' or '.join(want)}")
    return kind


def load_policy(path):
    """Dispatch on the checkpoint kind."""
    if _checkpoint_kind(path, ("policy", "controller")) == "policy":
        return GaussianPolicy.load(path)
    return ControllerPolicy.load(path)


def _fit(path, env, what: str, have, want) -> None:
    if have != want:
        raise ConfigError(f"{path}: {what} {have} do not match env '{env.name}' {want}")


def check_policy(policy, env, path) -> None:
    """Raise ConfigError unless policy is the kind env's recipe runs and
    fits env: (obs, action) dims of a Gaussian policy, gains of a controller."""
    driving = RECIPES[env.name].driving
    _fit(path, env, "policy", type(policy).__name__,
         "ControllerPolicy" if driving else "GaussianPolicy")
    if driving:
        _fit(path, env, "gains", policy.gains.size, env.action_dim)
    else:
        _fit(path, env, "(obs, action) dims", (policy.obs_dim, policy.head.dim),
             (env.state_dim, env.action_dim))


def load_constraint(path, env) -> ConstraintModel:
    """The constraint model at path; ConfigError unless it is one, of the
    mode env's recipe learns, and fits env: (state, action) dims of a
    per-step model, cost features of a threshold model."""
    _checkpoint_kind(path, ("constraint",))
    model = ConstraintModel.load(path)
    driving = RECIPES[env.name].driving
    _fit(path, env, "mode", model.mode, THRESHOLD if driving else PER_STEP_BETA)
    if driving:
        _fit(path, env, "cost features", model.n_features, env.cost_dim)
    else:
        _fit(path, env, "(state, action) dims", (model.state_dim, model.action_dim),
             (env.state_dim, env.action_dim))
    return model


def run_episode(env, policy, task, rng) -> tuple:
    """Roll one episode; returns its Trajectory and whether it reached its
    goal, which is whether the env ended it before the horizon ran out.

    The env steps on the action act returns and the trajectory records the
    same action; for a Gaussian policy that is the unclipped sample, which
    the env clips to its box itself. The episode draws from rng only in
    env.reset and in each step's act, in that order; a Gaussian policy's act
    draws one standard_normal(dim) row. collect_rollouts' lockstep path
    repeats exactly these draws.
    """
    s = env.reset(task, rng)
    states, actions, rewards, costs = [], [], [], []
    for _ in range(env.horizon):
        obs = env.observe(s)
        a = policy.act(obs, rng)
        res = env.step(s, a)
        states.append(obs)
        actions.append(np.asarray(a, dtype=float).reshape(-1))
        rewards.append(res.reward)
        costs.append(res.cost_features)
        s = res.next_state
        if res.done:
            break
    tau = Trajectory(np.array(states), np.array(actions),
                     np.array(rewards), np.array(costs), task=task)
    return tau, bool(res.done)


def collect_rollouts(env, policy, n: int, rng, mode: str = "il",
                     budget_left: int | None = None, ahead: bool = False):
    """Up to n episodes, stopping early once budget_left steps are recorded;
    returns the trajectories, their goal flags and the step count.

    Episodes draw from the one stream rng in turn, each its task and then
    what run_episode draws. With ahead, env.step_batch and a policy with
    act_noise, they step together with the same bits: the next episodes,
    as many as n and the budget could keep, are drawn ahead as if each ran
    to the horizon, its noise one standard_normal((horizon, dim)) block.
    numpy fills that block as horizon calls of standard_normal(dim) would,
    and leaves rng in their state (a test pins this). They are kept up to
    the first that reaches its goal or meets the budget; as it ends, the
    ones after it stop. rng is then rewound to before the last kept one's
    draws, which are repeated for the steps it took.

    Drawing ahead pays only while episodes run to the horizon, so pass
    ahead where the last batch did (not any(goals)). After an episode
    reaches its goal the rest run one at a time. No result depends on it.
    """
    lockstep = hasattr(env, "step_batch") and hasattr(policy, "act_noise")
    trajs, goals, steps, over = [], [], 0, False
    while len(trajs) < n and not over:
        k = n - len(trajs)
        if budget_left is not None:
            k = min(k, math.ceil((budget_left - steps) / env.horizon))
        if lockstep and ahead and k > 1:
            marks, batch = _draw_ahead(env, policy, k, rng, mode)
        else:
            task = env.sample_task(rng, mode)
            marks, batch = None, [run_episode(env, policy, task, rng)]
        for kept, (tau, goal) in enumerate(batch, 1):
            trajs.append(tau)
            goals.append(goal)
            steps += len(tau)
            ahead = ahead and not goal
            over = budget_left is not None and steps >= budget_left
            if over or goal:
                break
        if marks:
            rng.bit_generator.state = marks[kept - 1]
            _draw_episode(env, policy, rng, mode, len(tau))
    return trajs, goals, steps


def _draw_episode(env, policy, rng, mode: str, steps: int) -> tuple:
    """The task, start and action noise that a steps-long episode of a
    Gaussian policy draws from rng."""
    task = env.sample_task(rng, mode)
    return task, env.reset(task, rng), rng.standard_normal((steps, policy.head.dim))


def _draw_ahead(env, policy, k: int, rng, mode: str) -> tuple:
    """k episodes drawn ahead to the horizon and stepped together up to the
    first that reaches its goal; returns the rng state saved before each
    one's draws, and the (Trajectory, goal) pairs of those kept."""
    marks, draws = [], []
    for _ in range(k):
        marks.append(rng.bit_generator.state)
        draws.append(_draw_episode(env, policy, rng, mode, env.horizon))
    tasks, starts, noise = zip(*draws)
    goals = _goal_rows(tasks)
    z = np.stack(noise, axis=1)
    state = np.array(starts, dtype=float)
    horizon = env.horizon
    # time-major records; the loop writes views of the rows still stepping
    recs = (np.zeros((horizon, k, env.state_dim)),
            np.zeros((horizon, k, env.action_dim)),
            np.zeros((horizon, k)), np.zeros((horizon, k, env.cost_dim)))
    states, actions, rewards, costs = recs
    lens, kept, reached = [horizon] * k, k, False
    for t in range(horizon):
        states[t] = state
        actions[t] = a = policy.act_noise(state, z[t, :len(state)])
        state, rewards[t], costs[t], goal = env.step_batch(state, a, goals)
        if goal.any():
            # the first row to end is kept; it and the rows after it stop
            j = int(goal.argmax())
            lens[j], kept, reached = t + 1, j + 1, True
            state = state[:j]
            goals = None if goals is None else goals[:j]
            states, actions, rewards, costs = (r[:, :j] for r in
                                               (states, actions, rewards, costs))
            if not j:
                break
    return marks, [(Trajectory(*(r[:n, i] for r in recs), task=task),
                    reached and i == kept - 1)
                   for i, (n, task) in enumerate(zip(lens[:kept], tasks))]


def _episode_violates(env, tau: Trajectory) -> bool:
    rates = tau.cost_features.mean(axis=0)
    eps = np.broadcast_to(np.atleast_1d(env.eps), rates.shape)
    return bool(np.any(rates > eps))


def rollout_metrics(env, rollouts: list, goals: list) -> Metrics:
    """Episode statistics of one batch, goals holding each rollout's goal
    flag; see Metrics for definitions."""
    if not rollouts:
        raise ValueError("need at least one rollout")
    rr = float(np.mean([t.extrinsic_rewards.sum() for t in rollouts]))
    cr = np.mean([t.cost_features.sum(axis=0) for t in rollouts], axis=0)
    violates = [_episode_violates(env, t) for t in rollouts]
    grid = env.grid()
    for t in rollouts:
        grid.add(env.project(t.states))
    ok = [t.extrinsic_rewards.sum() for t, bad in zip(rollouts, violates) if not bad]
    return Metrics(rr=rr, cr=cr, cv=float(np.mean(violates)), se=grid.entropy(),
                   goal_rate=float(np.mean(goals)),
                   feasible_reward=float(np.mean(ok)) if ok else None)


def run_episodes(env, starts, act, goals=None) -> tuple:
    """Episodes in lockstep, one per row of starts (states, which are also
    the observations): each step makes one act(states) and one step_batch
    call over every row. Where both are bit for bit their per-row selves and
    each row draws only from its own stream, row i is bit for bit the
    run_episode from starts[i]. A row's record ends at its goal step; the
    loop ends at the horizon or once every row is done, and done rows keep
    stepping unrecorded. Returns the time-major padded (horizon, rows, ...)
    states, actions, rewards and costs, then each row's length and goal
    flag: row i's episode is [:lens[i], i] of each.
    """
    state = np.array(starts, dtype=float)
    rows, horizon = len(state), env.horizon
    # time-major, so each step writes one contiguous block per record
    states = np.zeros((horizon, rows, env.state_dim))
    actions = np.zeros((horizon, rows, env.action_dim))
    rewards = np.zeros((horizon, rows))
    costs = np.zeros((horizon, rows, env.cost_dim))
    lens = np.full(rows, horizon)
    live = np.ones(rows, dtype=bool)
    for t in range(horizon):
        states[t] = state
        actions[t] = a = np.reshape(act(state), (rows, -1))
        state, rewards[t], costs[t], goal = env.step_batch(state, a, goals)
        lens[goal & live] = t + 1
        live &= ~goal
        if not live.any():
            break
    return states, actions, rewards, costs, lens, ~live


def run_tasks(env, jobs, policy_for) -> list:
    """One episode per job (task, rng, row_rng), as (Trajectory, goal) pairs.

    policy_for(goal) is the policy that acts toward a task's goal, which may
    be None, and must give every goal the same kind of policy; given one
    goal row per task (or None where a task has no goal), it acts toward
    each row's. Jobs are drawn in order. With env.step_batch and a policy
    with act_rows, each task is reset on its rng as its job is drawn, then
    every episode runs in lockstep through run_episodes, row i drawing only
    from its row_rng: bit for bit run_episode(env, policy_for(task.goal),
    task, row_rng) from that start. Otherwise each job runs
    run_episode(env, policy_for(task.goal), task, rng) before the next one
    is drawn.
    """
    results, rows = [], []
    for task, rng, row_rng in jobs:
        policy = policy_for(task.goal)
        if hasattr(env, "step_batch") and hasattr(policy, "act_rows"):
            rows.append((task, env.reset(task, rng), row_rng))
        else:
            results.append(run_episode(env, policy, task, rng))
    if not rows:
        return results
    tasks, starts, rngs = zip(*rows)
    goals = _goal_rows(tasks)
    policy = policy_for(goals)
    *recs, lens, goal = run_episodes(
        env, starts, lambda obs: policy.act_rows(obs, rngs), goals)
    return results + [
        (Trajectory(*(r[:n, i] for r in recs), task=task), bool(g))
        for i, (n, g, task) in enumerate(zip(lens, goal, tasks))]


def _goal_rows(tasks) -> np.ndarray | None:
    """One goal row per task, or None where a task has no goal."""
    if any(task.goal is None for task in tasks):
        return None
    return np.array([task.goal for task in tasks], dtype=float)


def evaluate(cfg: TrainConfig, policy) -> tuple:
    """Metrics over eval_episodes per seed, with per-episode detail.

    Each episode draws only from its own SeedSequence([seed, episode])
    stream, so its result does not depend on the other episodes, and
    run_tasks may step them in lockstep.
    """
    task_mode = task_mode_for(cfg.env, "eval")
    seeds = cfg.eval_seeds if cfg.eval_seeds else [cfg.seed]
    jobs = [(int(s), ep) for s in seeds for ep in range(cfg.eval_episodes)]
    env = make_env(cfg.env, cfg.env_config)
    rngs = [np.random.default_rng(np.random.SeedSequence(job)) for job in jobs]
    trajs, goals = zip(*run_tasks(
        env, ((env.sample_task(rng, task_mode), rng, rng) for rng in rngs),
        lambda goal: policy))
    metrics = rollout_metrics(env, trajs, goals)
    detail = [{"seed": s, "episode": ep,
               "rr": float(tau.extrinsic_rewards.sum()),
               "cr": [float(v) for v in tau.cost_features.sum(axis=0)],
               "len": len(tau), "goal": goal}
              for (s, ep), tau, goal in zip(jobs, trajs, goals)]
    return metrics, detail


def _lagrange(env, cfg: TrainConfig) -> LagrangeState:
    return LagrangeState(epsilon=env.eps_scalar, kappa=cfg.kappa0,
                         eta_kappa=cfg.lr_kappa, kappa_d=cfg.kappa_d)


def _record(records: list, env, rollouts, goals, steps: int,
            ls: LagrangeState, expected: float, extra: dict) -> None:
    """Append one iteration's metrics-log entry."""
    m = rollout_metrics(env, rollouts, goals)
    records.append({"iteration": len(records), "env_steps": steps,
                    "rr": m.rr, "cr": [float(v) for v in m.cr],
                    "cv": m.cv, "se": m.se, "kappa": ls.kappa,
                    "kappa_tilde": damped_weight(ls, expected), **extra})


def _save_run(out_dir: Path, records: list, policy, model=None) -> dict:
    """Write a stage's checkpoints and metrics log; returns their paths."""
    out = {"policy": out_dir / POLICY_FILE, "metrics": out_dir / METRICS_FILE}
    if model is not None:
        out["constraint"] = out_dir / CONSTRAINT_FILE
        model.save(out["constraint"])
    policy.save(out["policy"])
    write_metrics(out["metrics"], records)
    return {**out, "records": records}


# ---------------------------------------------------------------------------
# expert generation

def _cem_objective(env, cfg: TrainConfig, rng, task_mode: str,
                   thresholds: np.ndarray, count_steps: list | None = None,
                   make_policy=ControllerPolicy, episode_tail: bool = False):
    """Candidate evaluator over a fixed set of seeded episodes.

    Violations are positive excesses of per-step feature rates over the
    given thresholds (true budgets for experts, learned ones after).
    episode_tail ranks by the worst episode instead of the batch mean,
    for searches that face a per-episode certification afterwards. Like
    run_tasks, an env with step_batch and a policy with act_rows run the
    candidate x seed episodes in lockstep, a gains row each; others one by one.
    """
    seeds = [int(rng.integers(2 ** 31 - 1))
             for _ in range(cfg.cem_eval_episodes)]
    batched = hasattr(env, "step_batch") and hasattr(make_policy, "act_rows")
    if batched:
        # each seed's stream draws only its task and start, so every
        # candidate starts from the same states
        starts = []
        for s in seeds:
            erng = np.random.default_rng(s)
            starts.append(env.reset(env.sample_task(erng, task_mode), erng))

    def evaluate_candidates(cand):
        # episode reward sums and cost rows, candidate-major then seed
        if batched:
            policy = make_policy(cand[0])
            policy.gains = np.repeat(cand, len(seeds), axis=0)
            _, _, rewards, costs, lens, _ = run_episodes(
                env, np.tile(np.array(starts, dtype=float), (len(cand), 1)),
                lambda obs: policy.act_rows(obs, None))
            rs = [float(rewards[:n, i].sum()) for i, n in enumerate(lens)]
            costs = [costs[:n, i] for i, n in enumerate(lens)]
        else:
            rs, costs = [], []
            for gains in cand:
                for s in seeds:
                    erng = np.random.default_rng(s)
                    task = env.sample_task(erng, task_mode)
                    tau, _ = run_episode(env, make_policy(gains), task, erng)
                    rs.append(float(tau.extrinsic_rewards.sum()))
                    costs.append(tau.cost_features)
        if count_steps is not None:
            count_steps[0] += sum(map(len, costs))
        per = len(seeds)
        rates = np.array([c.mean(axis=0) for c in costs]).reshape(len(cand), per, -1)
        agg = np.array([np.max(r, axis=0) if episode_tail else np.mean(r, axis=0)
                        for r in rates])
        rewards = np.array([np.mean(rs[i:i + per]) for i in range(0, len(rs), per)])
        return rewards, np.maximum(0.0, agg - thresholds)

    return evaluate_candidates


def _cem_round(policy, evaluate_candidates, n_samp: int,
               n_elite: int, std_floor: float, rng) -> dict:
    """One sample-rank-refit round warm-started at the current gains.

    evaluate_candidates maps the (n_samp, dims) candidate matrix to mean
    rewards (n_samp,) and violations (n_samp, k).
    """
    cand = policy.gains + policy.std * rng.standard_normal(
        (n_samp, policy.gains.size))
    rewards, viols = evaluate_candidates(cand)
    order = cem_rank(rewards, viols)
    elite = cand[order[:n_elite]]
    policy.gains = elite.mean(axis=0)
    policy.std = np.maximum(elite.std(axis=0), std_floor)
    return {"elite_reward": float(rewards[order[:n_elite]].mean()),
            "elite_violation": float(viols[order[:n_elite]].sum(axis=1).mean())}


def _controller_expert(env, cfg: TrainConfig, rng, task_mode: str,
                       make_policy=ControllerPolicy, n_gains: int | None = None,
                       episode_tail: bool = False):
    """Search one controller by CEM; it demonstrates every task."""
    n = env.action_dim if n_gains is None else n_gains
    policy = make_policy(np.zeros(n), np.full(n, cfg.controller_std0))
    thresholds = np.atleast_1d(np.asarray(env.eps, dtype=float)) * cfg.expert_eps_frac
    evaluate_candidates = _cem_objective(env, cfg, rng, task_mode, thresholds,
                                         make_policy=make_policy,
                                         episode_tail=episode_tail)
    for _ in range(cfg.cem_iter):
        _cem_round(policy, evaluate_candidates, cfg.cem_samp, cfg.cem_elite,
                   1e-6, rng)
    return lambda goal: policy


def _pump_expert(env, cfg, rng, mode):
    # a bang-bang pump found by the same constrained search the driving env
    # uses; certification runs n_experts fresh starts, so the candidate tail
    # needs more than a handful of eval episodes or the elite parks itself on
    # the line
    pump_cfg = replace(cfg, cem_eval_episodes=max(cfg.cem_eval_episodes, 16))
    return _controller_expert(env, pump_cfg, rng, mode, PumpPolicy, n_gains=2,
                              episode_tail=True)


def _detour_experts(env, cfg, rng, mode):
    # one guidance law per goal; the observation has no goal in it, and the
    # scaled step budget is too thin to learn four reaching policies
    return lambda goal: DetourPolicy(goal, env.cfg["hazard_center"],
                                     env.cfg["hazard_radius"])


def _balance_expert(env, cfg, rng, mode):
    return _controller_expert(env, cfg, rng, mode, BalancePolicy, n_gains=4,
                              episode_tail=True)


RECIPES = {
    "intersection": Recipe(il_steps=150_000, tl_steps=150_000, n_experts=100,
                           beta=0.01, delta=0.1, tasks=("il", "meta"),
                           driving=True, experts=_controller_expert),
    "mountain_car": Recipe(il_steps=50_000, tl_steps=50_000, n_experts=50,
                           beta=0.01, delta=0.5, tasks=("tl", "tl"),
                           driving=False, experts=_pump_expert),
    "cartpole": Recipe(il_steps=500_000, tl_steps=500_000, n_experts=50,
                       beta=0.01, delta=0.5, tasks=("tl", "tl"),
                       driving=False, experts=_balance_expert),
    "basic_nav": Recipe(il_steps=200_000, tl_steps=500_000, n_experts=50,
                        beta=1.0, delta=1.0, tasks=("il", "meta"),
                        driving=False, experts=_detour_experts),
}


def expert_manifest_path(dataset_path) -> Path:
    return Path(dataset_path).with_suffix(".manifest.json")


def check_expert_manifest(dataset_path) -> dict:
    """The imitation stage only accepts datasets with a feasibility proof."""
    mpath = expert_manifest_path(dataset_path)
    if not mpath.exists():
        raise ConfigError(f"{dataset_path}: no expert manifest at {mpath}")
    with open(mpath) as fh:
        man = json.load(fh)
    if not man.get("certified"):
        raise ConfigError(f"{mpath}: expert dataset is not certified feasible")
    return man


def generate_experts(cfg: TrainConfig, out_dir) -> dict:
    """Build the recipe's experts, roll demonstrations, certify, then write.

    Each demonstration draws its task, then its start, from the stage
    stream (seeded by cfg.seed), in order. On an env with step_batch and
    experts with act_rows, the demonstrations then run in lockstep, demo i
    stepping on the child stream rng.spawn(n_experts)[i]; otherwise each
    runs on the stage stream before the next task is drawn. Spawning leaves
    the stage stream's draws as they were, so experts that draw nothing per
    step write the same bytes on either path.

    Raises ExpertInfeasibleError (writing nothing) when the demonstrations
    break the env budget scaled by safety_margin.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = make_env(cfg.env, cfg.env_config)
    rng = np.random.default_rng(cfg.seed)
    mode = task_mode_for(cfg.env, "expert-gen")
    policy_for = RECIPES[cfg.env].experts(env, cfg, rng, mode)
    jobs = ((env.sample_task(rng, mode), rng, child)
            for child in rng.spawn(cfg.n_experts))
    trajs, goals = zip(*run_tasks(env, jobs, policy_for))
    metrics = rollout_metrics(env, trajs, goals)
    cv_limit = env.eps_scalar * cfg.safety_margin
    if metrics.cv > cv_limit:
        raise ExpertInfeasibleError(
            f"expert CV {metrics.cv:.4f} exceeds {cv_limit:.4f} "
            f"(budget {env.eps_scalar:.4f} x margin {cfg.safety_margin}); "
            "refusing to write the dataset")

    dataset = out_dir / DATASET_FILE
    write_dataset(dataset, trajs)
    manifest = {
        "v": 1, "env": cfg.env, "seed": cfg.seed,
        "n_trajectories": len(trajs),
        "rr": metrics.rr, "cr": [float(v) for v in metrics.cr],
        "cv": metrics.cv, "goal_rate": metrics.goal_rate,
        "budget": env.eps_scalar, "cv_limit": cv_limit, "certified": True,
    }
    with open(expert_manifest_path(dataset), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return {"dataset": dataset, "manifest": expert_manifest_path(dataset),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# safe imitation

def _draw_batch(n: int, size: int, rng) -> np.ndarray:
    return rng.choice(n, size=min(size, n), replace=False)


def _policy_lambda(cfg: TrainConfig, rng) -> RiskLevel:
    if cfg.lambda_mode == "pinned":
        return RiskLevel(cfg.lam_pinned)
    return sample_risk_level(rng)


def safe_il(cfg: TrainConfig, dataset_path, out_dir) -> dict:
    """Alternate constraint learning and safe exploration until the budget.

    Writes constraint/policy checkpoints and a per-iteration metrics log;
    returns their paths plus the record list.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    check_expert_manifest(dataset_path)
    experts = read_dataset(dataset_path)
    if not experts:
        raise ConfigError(f"{dataset_path}: empty expert dataset")
    env = make_env(cfg.env, cfg.env_config)
    rng = np.random.default_rng(cfg.seed)

    driving = RECIPES[cfg.env].driving
    if driving:
        model = ConstraintModel(env.state_dim, env.action_dim, mode=THRESHOLD,
                                n_features=env.cost_dim)
        policy = ControllerPolicy(np.zeros(env.action_dim),
                                  np.full(env.action_dim, cfg.controller_std0))
        opt_p = None
    else:
        model = ConstraintModel(env.state_dim, env.action_dim,
                                hidden=cfg.hidden_constraint, rng=rng)
        policy = GaussianPolicy(env.state_dim, env.action_low, env.action_high,
                                cfg.hidden_policy, rng)
        opt_p = AdamState(policy.params(), cfg.lr_reward)
    opt_c = AdamState(model.params(), cfg.lr_constraint)
    prior = BetaParams(*cfg.prior_alpha)
    ls = _lagrange(env, cfg)
    tr = TrustRegionConfig(delta=cfg.delta, beta=cfg.beta, k=cfg.k_neighbors)

    records = []
    steps_total = 0
    ahead = True  # a fresh stage's episodes are taken to run to the horizon
    while steps_total < cfg.env_steps:
        rollouts, goals, got = collect_rollouts(
            env, policy, cfg.n_rollouts, rng, "il",
            budget_left=cfg.env_steps - steps_total, ahead=ahead)
        steps_total += got
        ahead = not any(goals)

        # constraint phase: importance weights are taken against the model
        # that was current when this batch was collected
        prev_gamma = gamma_criterion(model, rollouts, RiskLevel(1.0))
        aborts = floored = 0
        for _ in range(cfg.constraint_steps):
            lam_c = _policy_lambda(cfg, rng)
            ei = _draw_batch(len(experts), cfg.batch_expert, rng)
            ni = _draw_batch(len(rollouts), cfg.batch_nominal, rng)
            upd = constraint_update(model, [experts[i] for i in ei],
                                    [rollouts[i] for i in ni], lam_c,
                                    kl_weight=cfg.lr_prior / cfg.lr_constraint,
                                    prior=prior, prev_gamma=prev_gamma[ni],
                                    opt=opt_c)
            aborts += upd["nan_aborted"]
            floored += upd["floored"]

        lam_pol = _policy_lambda(cfg, rng)
        risk_bars = 1.0 - gamma_criterion(model, rollouts, lam_pol)
        expected = float(risk_bars.mean())
        ls = update_safety_weight(ls, expected)

        dkl, policy_aborted = 0.0, 0
        if driving:
            evaluate_candidates = _cem_objective(env, cfg, rng, "il",
                                                 model.thresholds)
            _cem_round(policy, evaluate_candidates, cfg.cem_samp,
                       cfg.cem_elite, cfg.controller_std_floor, rng)
        else:
            diag = safe_il_policy_step(policy, rollouts, risk_bars, tr, ls,
                                       rng, opt=opt_p,
                                       max_particles=cfg.max_particles)
            if diag["dkls"]:
                dkl = float(diag["dkls"][-1])
            policy_aborted = int(diag["nan_aborted"])
        _record(records, env, rollouts, goals, steps_total, ls, expected,
                {"dkl": dkl, "lambda": lam_pol.lam,
                 "constraint_aborts": aborts, "constraint_floored": floored,
                 "policy_aborted": policy_aborted})

    return _save_run(out_dir, records, policy, model)


# ---------------------------------------------------------------------------
# safe transfer

class _CostAudit:
    """Flags any read of the true-cost channel inside a gradient update."""

    def __init__(self):
        self.armed = False
        self.touched = 0

    def __enter__(self):
        self.armed = True
        self.touched = 0
        return self

    def __exit__(self, *exc):
        self.armed = False
        return False


COST_AUDIT = _CostAudit()


class _AuditedTrajectory(Trajectory):
    """Trajectory whose cost features trip the audit while it is armed."""

    @property
    def cost_features(self):
        if COST_AUDIT.armed:
            COST_AUDIT.touched += 1
        return self._cost_features

    @cost_features.setter
    def cost_features(self, value):
        self._cost_features = value


def _guarded(rollouts: list) -> list:
    return [_AuditedTrajectory(t.states, t.actions, t.extrinsic_rewards,
                               t.cost_features, task=t.task)
            for t in rollouts]


def safe_tl(cfg: TrainConfig, constraint_path, policy_path, out_dir) -> dict:
    """Optimize the target task against the frozen recovered constraint.

    The true cost stream feeds the metrics log only; the update path sees
    just the model's risk, and the audit turns any leak into a hard error.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = make_env(cfg.env, cfg.env_config)
    rng = np.random.default_rng(cfg.seed)
    model = load_constraint(constraint_path, env)
    policy = None
    if policy_path is not None:
        policy = load_policy(policy_path)
        check_policy(policy, env, policy_path)
    frozen = [p.copy() for p in model.params()]
    lam = RiskLevel(cfg.lam)
    mode = task_mode_for(cfg.env, "safe-tl")

    transfer = _safe_tl_driving if RECIPES[cfg.env].driving else _safe_tl_control
    result = transfer(cfg, env, model, policy, lam, mode, rng, out_dir)

    for p, q in zip(model.params(), frozen):
        if not np.array_equal(p, q):
            raise RuntimeError("constraint model changed during transfer")
    return result


def _safe_tl_control(cfg, env, model, policy, lam, mode, rng, out_dir):
    if policy is None:
        policy = GaussianPolicy(env.state_dim, env.action_low,
                                env.action_high, cfg.hidden_policy, rng)
    ppo = PpoState(policy, rng, lr=cfg.lr_reward, entropy_beta=cfg.beta)
    ls = _lagrange(env, cfg)
    records = []
    steps_total = 0
    ahead = True  # a fresh stage's episodes are taken to run to the horizon
    while steps_total < cfg.env_steps:
        rollouts, goals, got = collect_rollouts(
            env, policy, cfg.n_rollouts, rng, mode,
            budget_left=cfg.env_steps - steps_total, ahead=ahead)
        steps_total += got
        ahead = not any(goals)
        risk_bars = 1.0 - gamma_criterion(model, rollouts, lam)
        expected = float(risk_bars.mean())
        ls = update_safety_weight(ls, expected)
        guarded = _guarded(rollouts)
        with COST_AUDIT:
            diag = ppo_lagrange_update(policy, guarded, risk_bars, ls, ppo, rng)
        if COST_AUDIT.touched:
            raise RuntimeError("true cost was read inside a transfer update")
        _record(records, env, rollouts, goals, steps_total, ls, expected,
                {"dkl": 0.0, "lambda": lam.lam,
                 "policy_aborted": int(diag["nan_aborted"])})
    return _save_run(out_dir, records, policy)


def _safe_tl_driving(cfg, env, model, policy, lam, mode, rng, out_dir):
    """Constrained cross-entropy rounds on the target route; candidate
    episodes are the interaction, so they count toward the budget."""
    if policy is not None:
        policy.std = np.maximum(policy.std, cfg.controller_std_floor)
    else:
        policy = ControllerPolicy(np.zeros(env.action_dim),
                                  np.full(env.action_dim, cfg.controller_std0))
    ls = _lagrange(env, cfg)
    records = []
    counter = [0]
    while counter[0] < cfg.env_steps:
        evaluate_candidates = _cem_objective(env, cfg, rng, mode,
                                             model.thresholds,
                                             count_steps=counter)
        _cem_round(policy, evaluate_candidates, cfg.cem_samp, cfg.cem_elite,
                   cfg.controller_std_floor, rng)
        rollouts, goals, got = collect_rollouts(env, policy, cfg.n_rollouts,
                                                rng, mode)
        counter[0] += got
        risk_bars = 1.0 - gamma_criterion(model, rollouts, lam)
        expected = float(risk_bars.mean())
        ls = update_safety_weight(ls, expected)
        _record(records, env, rollouts, goals, counter[0], ls, expected,
                {"dkl": 0.0, "lambda": lam.lam, "policy_aborted": 0})
    return _save_run(out_dir, records, policy)


# ---------------------------------------------------------------------------
# risk-level sweep

def sweep_lambda(cfg: TrainConfig, constraint_path, policy_path, out_dir,
                 lambdas=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)) -> dict:
    """Short transfer run per risk level; reports the feasible frontier."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    limit = getattr(make_env(cfg.env, cfg.env_config), "cost_limit", None)
    rows = []
    for lam in lambdas:
        sub = replace(cfg, lam=float(lam))
        run_dir = out_dir / f"lam_{lam:.1f}"
        res = safe_tl(sub, constraint_path, policy_path, run_dir)
        metrics, _ = evaluate(sub, load_policy(res["policy"]))
        feasible = (metrics.cr_total <= limit) if limit is not None else None
        rows.append({"lambda": float(lam), "rr": metrics.rr,
                     "cr": [float(v) for v in metrics.cr],
                     "cr_total": metrics.cr_total, "cv": metrics.cv,
                     "se": metrics.se, "feasible": feasible})
    sweep_path = out_dir / "sweep.jsonl"
    write_metrics(sweep_path, rows)
    return {"sweep": sweep_path, "rows": rows}
