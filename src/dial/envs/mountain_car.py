"""Continuous mountain car with a forbidden stretch on the far left slope."""

from __future__ import annotations

import math

import numpy as np

from .base import Environment, StepResult, TaskSpec, budget_from_horizon, merge_config

DEFAULTS = {
    "gamma": 0.99,
    "horizon": 400,
    "cost_limit": 0.5,
    "force": 0.0015,
    "gravity": 0.0025,
    "min_position": -1.2,
    "max_position": 0.6,
    "max_speed": 0.07,
    "goal_position": 0.45,
    "red_line": -0.9,
    "start_low": -0.6,
    "start_high": -0.4,
    "goal_reward": 100.0,
    "action_penalty": 0.1,
    "grid_bins": [24, 22],
}


class MountainCar(Environment):
    """One-dimensional car in a valley; throttle in [-1, 1].

    The usual trick of swinging far left to gain momentum crosses the red
    line at x < -0.9; a safe solution turns around earlier and pumps.
    """

    name = "mountain_car"
    state_dim = 2
    action_dim = 1
    cost_dim = 1

    def __init__(self, overrides: dict | None = None):
        cfg = merge_config(self.name, DEFAULTS, overrides)
        self.cfg = cfg
        self.gamma = cfg["gamma"]
        self.horizon = int(cfg["horizon"])
        self.cost_limit = cfg["cost_limit"]
        self.eps = budget_from_horizon(self.cost_limit, self.gamma, self.horizon)
        self.action_low = np.array([-1.0])
        self.action_high = np.array([1.0])
        self.grid_lo = np.array([cfg["min_position"], -cfg["max_speed"]])
        self.grid_hi = np.array([cfg["max_position"], cfg["max_speed"]])
        self.grid_bins = (int(cfg["grid_bins"][0]), int(cfg["grid_bins"][1]))
        self.grid_axes = (0, 1)

    def _initial_state(self, task: TaskSpec, rng: np.random.Generator) -> np.ndarray:
        x = rng.uniform(self.cfg["start_low"], self.cfg["start_high"])
        return np.array([x, 0.0])

    def step(self, state: np.ndarray, action) -> StepResult:
        a = min(max(float(np.asarray(action).reshape(-1)[0]), -1.0), 1.0)
        x, v = float(state[0]), float(state[1])
        v = v + self.cfg["force"] * a - self.cfg["gravity"] * math.cos(3.0 * x)
        v = min(max(v, -self.cfg["max_speed"]), self.cfg["max_speed"])
        x = x + v
        if x < self.cfg["min_position"]:
            x, v = self.cfg["min_position"], 0.0
        if x > self.cfg["max_position"]:
            x = self.cfg["max_position"]
        goal = x >= self.cfg["goal_position"]
        reward = -self.cfg["action_penalty"] * a * a
        if goal:
            reward += self.cfg["goal_reward"]
        nxt = np.array([x, v])
        return StepResult(nxt, reward, self.true_cost(nxt), goal)

    def step_batch(self, states: np.ndarray, actions: np.ndarray,
                   goals=None) -> tuple:
        """step() over state rows (which are also the observations) with one
        throttle per row, bit for bit; returns (next states, rewards,
        cost features (n, 1), goal flags). goals is unused: every episode
        here ends at goal_position, as in step()."""
        c = self.cfg
        a = np.minimum(np.maximum(np.asarray(actions, dtype=float).reshape(-1), -1.0), 1.0)
        nxt = np.empty((len(states), 2))
        x, v = nxt[:, 0], nxt[:, 1]
        v[:] = states[:, 1] + c["force"] * a - c["gravity"] * np.cos(3.0 * states[:, 0])
        np.minimum(np.maximum(v, -c["max_speed"], out=v), c["max_speed"], out=v)
        # x < min_position <= max_position: the order of the two bounds is free
        np.minimum(states[:, 0] + v, c["max_position"], out=x)
        wall = x < c["min_position"]
        x[wall] = c["min_position"]
        v[wall] = 0.0
        goal = x >= c["goal_position"]
        reward = -c["action_penalty"] * a * a
        reward[goal] += c["goal_reward"]
        cost = (x < c["red_line"]).astype(float)[:, None]
        return nxt, reward, cost, goal

    def true_cost(self, state) -> np.ndarray:
        return np.array([1.0 if float(state[0]) < self.cfg["red_line"] else 0.0])

    def sample_task(self, rng: np.random.Generator, mode: str = "il") -> TaskSpec:
        if mode == "il":
            return TaskSpec("explore")
        return TaskSpec("goal", goal=(self.cfg["goal_position"],))
