"""Point-mass navigation in a square arena with a circular hazard."""

from __future__ import annotations

import math

import numpy as np

from .base import (Environment, StepResult, TaskSpec, budget_from_horizon,
                   merge_config, row_dots)

DEFAULTS = {
    "gamma": 0.99,
    "horizon": 1200,
    "cost_limit": 10.0,
    "dt": 0.05,
    "arena": 10.0,
    "hazard_center": [5.0, 5.0],
    "hazard_radius": 2.0,
    "start": [0.5, 0.5],
    "goal_radius": 0.3,
    "progress_reward": 100.0,
    "train_goals": [[9.5, 0.5], [0.5, 9.5], [9.5, 5.0], [5.0, 9.5]],
    "meta_goal": [9.5, 9.5],
    "grid_bins": [20, 20],
}


class BasicNav(Environment):
    """Velocity-controlled point in [0, arena]^2.

    The hazard disc sits between the start corner and the far goals, so
    direct straight-line routes to several goals pay cost. Progress reward
    is potential shaped: 100 * (previous distance - new distance).
    """

    name = "basic_nav"
    state_dim = 2
    action_dim = 2
    cost_dim = 1

    def __init__(self, overrides: dict | None = None):
        cfg = merge_config(self.name, DEFAULTS, overrides)
        self.cfg = cfg
        self.gamma = cfg["gamma"]
        self.horizon = int(cfg["horizon"])
        self.cost_limit = cfg["cost_limit"]
        self.eps = budget_from_horizon(self.cost_limit, self.gamma, self.horizon)
        self.action_low = np.array([-1.0, -1.0])
        self.action_high = np.array([1.0, 1.0])
        self.grid_lo = np.zeros(2)
        self.grid_hi = np.full(2, cfg["arena"])
        self.grid_bins = (int(cfg["grid_bins"][0]), int(cfg["grid_bins"][1]))
        self.grid_axes = (0, 1)
        self._hazard = np.asarray(cfg["hazard_center"], dtype=float)

    def _initial_state(self, task: TaskSpec, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self.cfg["start"], dtype=float).copy()

    def step(self, state: np.ndarray, action) -> StepResult:
        # np.minimum/np.maximum and sqrt of the ndarray dot give np.clip's and
        # np.linalg.norm's bits at less call overhead; a Python x*x + y*y
        # would not, as the 2-element dot may round once through an FMA
        a = np.asarray(action, dtype=float).reshape(-1)
        a = np.minimum(np.maximum(a, -1.0), 1.0)
        task = getattr(self, "_task", None)
        pos = np.minimum(np.maximum(state + a * self.cfg["dt"], 0.0), self.cfg["arena"])
        reward = 0.0
        done = False
        if task is not None and task.goal is not None:
            goal = np.asarray(task.goal, dtype=float)
            v_prev, v_new = state - goal, pos - goal
            d_prev, d_new = math.sqrt(v_prev.dot(v_prev)), math.sqrt(v_new.dot(v_new))
            reward = self.cfg["progress_reward"] * (d_prev - d_new)
            done = d_new < self.cfg["goal_radius"]
        return StepResult(pos, reward, self.true_cost(pos), done)

    def step_batch(self, states: np.ndarray, actions: np.ndarray,
                   goals: np.ndarray) -> tuple:
        """step() over state rows (which are also the observations), each
        toward its own row of goals, bit for bit; returns (next states,
        rewards, cost features (n, 1), goal flags)."""
        c = self.cfg
        pos = np.clip(states + np.clip(actions, -1.0, 1.0) * c["dt"], 0.0, c["arena"])

        def dist(p):
            d = p - goals
            return np.sqrt(row_dots(d, d))

        d_new = dist(pos)
        reward = c["progress_reward"] * (dist(states) - d_new)
        # math.hypot per row: np.hypot differs from it in the last bit
        hx, hy = self._hazard
        cost = [[1.0 if math.hypot(x - hx, y - hy) < c["hazard_radius"] else 0.0]
                for x, y in pos.tolist()]
        return pos, reward, np.array(cost), d_new < c["goal_radius"]

    def true_cost(self, state) -> np.ndarray:
        d = math.hypot(float(state[0]) - self._hazard[0],
                       float(state[1]) - self._hazard[1])
        return np.array([1.0 if d < self.cfg["hazard_radius"] else 0.0])

    def sample_task(self, rng: np.random.Generator, mode: str = "il") -> TaskSpec:
        if mode == "meta":
            return TaskSpec("goal", goal=tuple(self.cfg["meta_goal"]))
        goals = self.cfg["train_goals"]
        return TaskSpec("goal", goal=tuple(goals[int(rng.integers(len(goals)))]))
