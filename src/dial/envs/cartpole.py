"""Cart-pole with continuous force, no fall-over reset, and rail limits as cost."""

from __future__ import annotations

import math

import numpy as np

from .base import (Environment, StepResult, TaskSpec, budget_from_horizon, merge_config,
                   wrap_angle)

DEFAULTS = {
    "gamma": 0.99,
    "horizon": 400,
    "cost_limit": 5.0,
    "gravity": 9.8,
    "masscart": 1.0,
    "masspole": 0.1,
    "half_length": 0.5,
    "force_mag": 10.0,
    "dt": 0.02,
    "cart_limit": 1.5,
    "start_bound": 0.05,
    "grid_bins": [20, 20],
    "grid_x_range": 2.4,
}


class CartPole(Environment):
    """Classic cart-pole dynamics, continuous action in [-1, 1] scaled to force.

    Episodes only end at the horizon. The pole may spin; reward 1 + cos(theta)
    pays for keeping it up, and cost fires when the cart leaves |x| <= 1.5.
    """

    name = "cartpole"
    state_dim = 4
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
        r = cfg["grid_x_range"]
        self.grid_lo = np.array([-r, -math.pi])
        self.grid_hi = np.array([r, math.pi])
        self.grid_bins = (int(cfg["grid_bins"][0]), int(cfg["grid_bins"][1]))
        self.total_mass = cfg["masscart"] + cfg["masspole"]
        self.polemass_length = cfg["masspole"] * cfg["half_length"]

    def _initial_state(self, task: TaskSpec, rng: np.random.Generator) -> np.ndarray:
        b = self.cfg["start_bound"]
        return rng.uniform(-b, b, size=4)

    def step(self, state: np.ndarray, action) -> StepResult:
        a = float(np.clip(np.asarray(action).reshape(-1)[0], -1.0, 1.0))
        force = self.cfg["force_mag"] * a
        x, xd, th, thd = (float(s) for s in state)
        costh, sinth = math.cos(th), math.sin(th)
        temp = (force + self.polemass_length * thd * thd * sinth) / self.total_mass
        th_acc = (self.cfg["gravity"] * sinth - costh * temp) / (
            self.cfg["half_length"]
            * (4.0 / 3.0 - self.cfg["masspole"] * costh * costh / self.total_mass))
        x_acc = temp - self.polemass_length * th_acc * costh / self.total_mass
        dt = self.cfg["dt"]
        x += dt * xd
        xd += dt * x_acc
        th += dt * thd
        thd += dt * th_acc
        nxt = np.array([x, xd, th, thd])
        reward = 1.0 + math.cos(th)
        return StepResult(nxt, reward, self.true_cost(nxt), False)

    def true_cost(self, state) -> np.ndarray:
        over = abs(float(state[0])) > self.cfg["cart_limit"]
        return np.array([1.0 if over else 0.0])

    def sample_task(self, rng: np.random.Generator, mode: str = "il") -> TaskSpec:
        if mode == "il":
            return TaskSpec("explore")
        return TaskSpec("balance")

    def project(self, obs: np.ndarray) -> np.ndarray:
        obs = np.atleast_2d(obs)
        return np.stack([obs[:, 0], wrap_angle(obs[:, 2])], axis=1)
