"""Shared environment plumbing: budgets, tasks, step results, config merging."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..entropy import VisitationGrid


def budget_from_horizon(cost_limit: float, gamma: float, horizon: int) -> float:
    """Per-step risk budget equivalent to a discounted episode cost limit.

    eps = (1 - gamma) * d / (1 - gamma^T): a policy whose per-step violation
    rate stays below eps keeps its discounted episode cost below d.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if cost_limit <= 0.0:
        raise ValueError(f"cost limit must be > 0, got {cost_limit}")
    return (1.0 - gamma) * cost_limit / (1.0 - gamma ** horizon)


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row dot products of two (n, k) arrays as stacked (1, k) @ (k, 1)
    matmuls: each rounds as the 1-D ndarray dot (and np.linalg.norm) of
    that row does, where a sum over axis 1 does not on every row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def wrap_angle(theta):
    """Angle (scalar or array) wrapped into [-pi, pi)."""
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class TaskSpec:
    """What an episode is asked to do.

    kind "explore" carries no extrinsic reward; goal tasks carry coordinates;
    driving tasks carry the route name and per-task reward draws.
    """

    kind: str
    goal: tuple | None = None
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.goal is not None:
            out["goal"] = [float(v) for v in self.goal]
        if self.params:
            out["params"] = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                             for k, v in self.params.items()}
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TaskSpec":
        return cls(kind=data["kind"],
                   goal=tuple(data["goal"]) if "goal" in data else None,
                   params=dict(data.get("params", {})))


@dataclass
class StepResult:
    next_state: object
    reward: float
    cost_features: np.ndarray
    done: bool


def _fits(val, default) -> bool:
    """Whether val is of default's kind: a number (not a bool) for a number,
    a list of as many numbers for a vector, a non-empty list of such vectors
    for a list of vectors."""
    if isinstance(default, numbers.Real):
        return isinstance(val, numbers.Real) and not isinstance(val, bool)
    if not isinstance(val, (list, tuple)):
        return False
    if isinstance(default[0], list):
        return len(val) > 0 and all(_fits(v, default[0]) for v in val)
    return len(val) == len(default) and all(_fits(v, default[0]) for v in val)


def merge_config(name: str, defaults: dict, overrides: dict | None) -> dict:
    """defaults updated by overrides, each of its default's kind (_fits);
    every grid_bins entry must be >= 1."""
    cfg = dict(defaults)
    for key, val in (overrides or {}).items():
        if key not in defaults:
            raise ValueError(f"unknown key '{name}.{key}'")
        if not _fits(val, defaults[key]):
            raise ValueError(f"{name}.{key} must be of the kind of its default "
                             f"{defaults[key]!r}, got {val!r}")
        cfg[key] = val
    if min(cfg["grid_bins"]) < 1:
        raise ValueError(f"{name}.grid_bins must be >= 1, got {cfg['grid_bins']!r}")
    return cfg


class Environment:
    """Base interface; subclasses fill in dynamics and geometry.

    States move through step() explicitly; observe() turns a state into the
    flat vector that policies and constraint nets consume.
    """

    name = "base"
    state_dim = 0
    action_dim = 0
    cost_dim = 1

    def reset(self, task: TaskSpec, rng: np.random.Generator):
        """Bind the episode task and return the initial state."""
        self._task = task
        return self._initial_state(task, rng)

    def _initial_state(self, task: TaskSpec, rng: np.random.Generator):
        raise NotImplementedError

    def step(self, state, action) -> StepResult:
        raise NotImplementedError

    def observe(self, state) -> np.ndarray:
        return np.asarray(state, dtype=float)

    def true_cost(self, state) -> np.ndarray:
        raise NotImplementedError

    def sample_task(self, rng: np.random.Generator, mode: str = "il") -> TaskSpec:
        raise NotImplementedError

    def grid(self) -> VisitationGrid:
        return VisitationGrid.empty(self.grid_lo, self.grid_hi, self.grid_bins)

    def project(self, obs: np.ndarray) -> np.ndarray:
        """Map observations to the 2 tracked grid coordinates."""
        obs = np.atleast_2d(obs)
        return obs[:, self.grid_axes]

    @property
    def eps_scalar(self) -> float:
        eps = self.eps
        return float(np.sum(eps)) if np.ndim(eps) else float(eps)
