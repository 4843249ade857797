"""Four-arm intersection with dense traffic and per-event safety thresholds.

The ego approaches from the south and must clear the junction on a left,
right, or straight route while 15 vehicles loop through on their own routes
at fixed speed. Actions are the 5 gains of a linear tracking controller;
the env turns them into (accel, steer) each step, so a constant action
vector is already a driving policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import Environment, StepResult, TaskSpec, merge_config, wrap_angle

DEFAULTS = {
    "gamma": 0.99,
    "horizon": 75,
    "dt": 0.1,
    "thresholds": [0.2, 0.2, 0.05, 0.1],
    "lane_offset": 2.0,
    "box_half": 6.0,
    "spawn_dist": 26.0,
    "exit_dist": 26.0,
    # traffic loops are long so 15 vehicles leave crossable gaps
    "traffic_spawn_dist": 60.0,
    "traffic_exit_dist": 60.0,
    "wheelbase": 2.5,
    # center distance counting as contact; lanes sit 4 apart and crossing
    # vehicles legitimately pass within ~3, so contact must be tighter
    "collision_dist": 2.5,
    "n_vehicles": 15,
    "other_speed": 8.0,
    "ego_speed0": 8.0,
    "v_max": 20.0,
    "accel_max": 5.0,
    "steer_max": 1.0,
    "param_max": 4.0,
    "v_set": 10.0,
    "d_safe": 10.0,
    "lookahead": 3.0,
    "t_pred": 3.5,
    "conflict_radius": 3.2,
    "restart_speed": 3.0,
    "detect_range": 30.0,
    "follow_gap": 12.0,
    "stop_gap": 6.0,
    "block_lat": 3.2,
    # past this depth beyond the box entry the ego is committed: crossing
    # traffic no longer triggers its brake, which prevents mid-box freezes
    "commit_depth": 2.0,
    "speed_cap": 15.0,
    "headway_dist": 10.0,
    "headway_cone_deg": 10.0,
    "offroad_lat": 2.0,
    "goal_reward": 10.0,
    "goal_margin": 2.0,
    "xi_speed_mean": 0.1,
    "xi_speed_std": 0.1,
    "xi_angle_mean": -0.2,
    "xi_angle_std": 0.1,
    "grid_half": 30.0,
    "grid_bins": [20, 20],
}

ARMS = ("S", "E", "N", "W")
MOVES = ("left", "straight", "right")


class Path:
    """Piecewise-linear route with arclength lookup and signed projection."""

    def __init__(self, pts: np.ndarray):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("path needs at least 2 points of dim 2")
        self.pts = pts
        seg = pts[1:] - pts[:-1]
        self.seg = seg
        self.seg_len = np.sqrt((seg ** 2).sum(axis=1))
        if np.any(self.seg_len <= 0.0):
            raise ValueError("path has a zero-length segment")
        self.unit = seg / self.seg_len[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])
        self.lo = pts.min(axis=0)
        self.hi = pts.max(axis=0)

    def point_at(self, s: float) -> np.ndarray:
        s = min(max(float(s), 0.0), self.length)
        i = int(np.searchsorted(self.cum, s, side="right")) - 1
        i = min(max(i, 0), len(self.seg_len) - 1)
        frac = (s - self.cum[i]) / self.seg_len[i]
        return self.pts[i] + frac * self.seg[i]

    def heading_at(self, s: float) -> float:
        s = min(max(float(s), 0.0), self.length)
        i = int(np.searchsorted(self.cum, s, side="right")) - 1
        i = min(max(i, 0), len(self.seg_len) - 1)
        return math.atan2(self.unit[i, 1], self.unit[i, 0])

    def project(self, xy: np.ndarray) -> tuple[float, float]:
        """Return (station, signed lateral offset); positive offset is left."""
        xy = np.asarray(xy, dtype=float)
        rel = xy[None, :] - self.pts[:-1]
        t = (rel * self.unit).sum(axis=1)
        t = np.clip(t, 0.0, self.seg_len)
        closest = self.pts[:-1] + t[:, None] * self.unit
        d2 = ((xy[None, :] - closest) ** 2).sum(axis=1)
        i = int(np.argmin(d2))
        w = xy - closest[i]
        lat = self.unit[i, 0] * w[1] - self.unit[i, 1] * w[0]
        return float(self.cum[i] + t[i]), float(lat)


def _rot(pts: np.ndarray, quarter_turns: int) -> np.ndarray:
    ang = quarter_turns * math.pi / 2.0
    c, s = math.cos(ang), math.sin(ang)
    r = np.array([[c, -s], [s, c]])
    return pts @ r.T


def _arc(center, radius, a0, a1, step_deg=10.0):
    n = max(int(abs(a1 - a0) / math.radians(step_deg)) + 1, 2)
    angs = np.linspace(a0, a1, n + 1)
    return np.asarray(center) + radius * np.stack(
        [np.cos(angs), np.sin(angs)], axis=1)


def build_routes(lane: float, box: float, spawn: float, exit_d: float) -> dict:
    """All 12 (entry arm, maneuver) routes as Path objects.

    Built once in the south-entry frame and rotated into the other arms.
    Turn radii: box - lane for right turns, box + lane for left turns, so
    both arcs land exactly on the target lane centerline.
    """
    south = {}
    entry = np.array([[lane, -spawn], [lane, -box]])
    south["straight"] = np.concatenate([entry, [[lane, exit_d]]])
    r_right = box - lane
    arc_r = _arc([box, -box], r_right, math.pi, math.pi / 2.0)
    south["right"] = np.concatenate([entry, arc_r[1:], [[exit_d, -lane]]])
    r_left = box + lane
    arc_l = _arc([-box, -box], r_left, 0.0, math.pi / 2.0)
    south["left"] = np.concatenate([entry, arc_l[1:], [[-exit_d, lane]]])
    routes = {}
    for k, arm in enumerate(ARMS):
        for move in MOVES:
            routes[(arm, move)] = Path(_rot(south[move], k))
    return routes


@dataclass(frozen=True)
class ControlState:
    """Features the gain controller consumes."""

    v: float
    v_set: float
    front_speed: float | None
    front_gap: float | None
    e_lat: float
    e_head: float
    d_safe: float


def linear_controller_act(params: np.ndarray, cs: ControlState,
                          accel_max: float, steer_max: float):
    """Map 5 gains to (accel, steer).

    accel tracks v_set, brakes for a slower lead vehicle and for a short
    gap; steer is proportional feedback on lateral offset and heading error.
    """
    p = np.asarray(params, dtype=float).reshape(-1)
    if p.shape[0] != 5:
        raise ValueError(f"controller expects 5 gains, got {p.shape[0]}")
    accel = p[0] * (cs.v_set - cs.v)
    if cs.front_speed is not None:
        accel += p[1] * min(0.0, cs.front_speed - cs.v)
    if cs.front_gap is not None:
        accel += p[2] * min(0.0, cs.front_gap - cs.d_safe)
    steer = -(p[3] * cs.e_lat + p[4] * cs.e_head)
    return (float(np.clip(accel, -accel_max, accel_max)),
            float(np.clip(steer, -steer_max, steer_max)))


@dataclass(frozen=True)
class IntersectionState:
    t: int
    ego: np.ndarray          # x, y, heading, speed
    crashed: bool
    stations: np.ndarray     # one per surrounding vehicle
    speeds: np.ndarray       # current speed of each surrounding vehicle


class IntersectionLite(Environment):
    name = "intersection"
    state_dim = 112
    action_dim = 5
    cost_dim = 4

    def __init__(self, overrides: dict | None = None):
        cfg = merge_config(self.name, DEFAULTS, overrides)
        self.cfg = cfg
        self.gamma = cfg["gamma"]
        self.horizon = int(cfg["horizon"])
        self.eps = np.asarray(cfg["thresholds"], dtype=float)
        if self.eps.shape != (4,):
            raise ValueError("thresholds must have 4 entries")
        self.action_low = np.full(5, -cfg["param_max"])
        self.action_high = np.full(5, cfg["param_max"])
        g = cfg["grid_half"]
        self.grid_lo = np.array([-g, -g])
        self.grid_hi = np.array([g, g])
        self.grid_bins = (int(cfg["grid_bins"][0]), int(cfg["grid_bins"][1]))
        self.routes = build_routes(cfg["lane_offset"], cfg["box_half"],
                                   cfg["spawn_dist"], cfg["exit_dist"])
        self.traffic_routes = build_routes(
            cfg["lane_offset"], cfg["box_half"],
            cfg["traffic_spawn_dist"], cfg["traffic_exit_dist"])
        self._route_keys = [(a, m) for a in ARMS for m in MOVES]

    def sample_task(self, rng: np.random.Generator, mode: str = "il") -> TaskSpec:
        if mode == "meta":
            kind = "straight"
        else:
            kind = "left" if rng.random() < 0.5 else "right"
        params = {
            "xi_speed": float(rng.normal(self.cfg["xi_speed_mean"],
                                         self.cfg["xi_speed_std"])),
            "xi_angle": float(rng.normal(self.cfg["xi_angle_mean"],
                                         self.cfg["xi_angle_std"])),
        }
        return TaskSpec(kind, params=params)

    def _initial_state(self, task: TaskSpec, rng: np.random.Generator):
        if task.kind not in MOVES:
            raise ValueError(f"unknown intersection task '{task.kind}'")
        self._route = self.routes[("S", task.kind)]
        n = int(self.cfg["n_vehicles"])
        keys = [self._route_keys[int(rng.integers(len(self._route_keys)))]
                for _ in range(n)]
        self._other_paths = [self.traffic_routes[k] for k in keys]
        start = self._route.point_at(0.0)
        stations = np.zeros(n)
        placed = []
        for i, path in enumerate(self._other_paths):
            # keep spawns clear of the ego and of each other
            for _ in range(40):
                s = rng.uniform(0.0, path.length - 4.0)
                p = path.point_at(s)
                if np.linalg.norm(p - start) < 8.0:
                    continue
                if any(np.linalg.norm(p - q) < 6.0 for q in placed):
                    continue
                break
            stations[i] = s
            placed.append(path.point_at(s))
        ego = np.array([start[0], start[1], self._route.heading_at(0.0),
                        self.cfg["ego_speed0"]])
        speeds = self._other_speeds(stations, start)
        return IntersectionState(t=0, ego=ego, crashed=False,
                                 stations=stations, speeds=speeds)

    def _other_speeds(self, stations: np.ndarray,
                      ego_pos: np.ndarray) -> np.ndarray:
        """Car-following speeds: cruise, tapering to a stop behind whoever
        is ahead on the same path (the ego counts when it sits on the path)."""
        cfg = self.cfg
        n = len(stations)
        gaps = np.full(n, np.inf)
        ego_frac = np.ones(n)
        m = cfg["block_lat"]
        for i in range(n):
            pi = self._other_paths[i]
            for k in range(n):
                if k != i and self._other_paths[k] is pi:
                    ds = stations[k] - stations[i]
                    if 0.0 < ds < gaps[i]:
                        gaps[i] = ds
            if (np.all(ego_pos >= pi.lo - m)
                    and np.all(ego_pos <= pi.hi + m)):
                se, lat = pi.project(ego_pos)
                ds = se - stations[i]
                if abs(lat) < m and 0.0 < ds < cfg["follow_gap"]:
                    # straight-line distance, not station gap: when the ego
                    # cuts across this lane its projection can slide toward
                    # the vehicle much faster than the vehicle moves
                    d_e = float(np.linalg.norm(
                        ego_pos - pi.point_at(stations[i])))
                    ego_frac[i] = np.clip(
                        (d_e - cfg["collision_dist"] - 1.0) / 5.0, 0.0, 1.0)
        frac = np.clip((gaps - cfg["stop_gap"])
                       / (cfg["follow_gap"] - cfg["stop_gap"]), 0.0, 1.0)
        return cfg["other_speed"] * np.minimum(frac, ego_frac)

    def _others_xy(self, stations: np.ndarray) -> np.ndarray:
        return np.array([p.point_at(s)
                         for p, s in zip(self._other_paths, stations)])

    def _control_state(self, state: IntersectionState) -> ControlState:
        cfg = self.cfg
        x, y, psi, v = state.ego
        others = self._others_xy(state.stations)
        rel = others - np.array([x, y])
        dist = np.sqrt((rel ** 2).sum(axis=1))
        fwd = np.array([math.cos(psi), math.sin(psi)])
        ahead = rel @ fwd
        # conflict detection by closest approach under constant velocities;
        # a stopped ego is projected forward at restart_speed so it keeps
        # yielding to traffic it would hit when resuming
        heads = [p.heading_at(s) for p, s in
                 zip(self._other_paths, state.stations)]
        vels = state.speeds[:, None] * np.array(
            [[math.cos(h), math.sin(h)] for h in heads])
        u = vels - max(float(v), cfg["restart_speed"]) * fwd
        uu = (u ** 2).sum(axis=1)
        t_star = np.where(uu > 1e-9, -(rel * u).sum(axis=1) / np.maximum(uu, 1e-9), 0.0)
        t_star = np.clip(t_star, 0.0, cfg["t_pred"])
        d_min = np.sqrt(((rel + u * t_star[:, None]) ** 2).sum(axis=1))
        s, e_lat = self._route.project(np.array([x, y]))
        # stop-line semantics: before the box the ego yields to predicted
        # crossing conflicts; once committed it only reacts to same-direction
        # traffic and to physical blockers on its route
        in_yield_zone = s <= (cfg["spawn_dist"] - cfg["box_half"]
                              + cfg["commit_depth"])
        heads_arr = np.array(heads)
        hdiff = np.abs(wrap_angle(heads_arr - psi))
        same_dir = hdiff < math.radians(60.0)
        moving = state.speeds > 0.5
        cand = (moving & (d_min < cfg["conflict_radius"])
                & (dist < cfg["detect_range"]) & (ahead > -2.0)
                & (same_dir | in_yield_zone))
        front_speed = front_gap = None
        if np.any(cand):
            j = int(np.argmin(np.where(cand, t_star, np.inf)))
            front_speed = float(vels[j] @ fwd)
            front_gap = float(dist[j] - cfg["collision_dist"])
        if front_gap is None:
            # stopped vehicles block only when the ego's own upcoming route
            # passes through them; a straight-ray test either deadlocks two
            # mutual yielders or misses obstacles past a curve
            near = np.flatnonzero(~moving & (dist < 12.0) & (ahead > -2.0))
            if near.size:
                route_pts = np.array([self._route.point_at(s + ds)
                                      for ds in (1.5, 3.0, 4.5, 6.0, 8.0, 10.0)])
                for j in near[np.argsort(dist[near])]:
                    clear = np.sqrt(((route_pts - others[j]) ** 2).sum(axis=1))
                    if float(clear.min()) < cfg["collision_dist"] + 0.3:
                        front_speed = 0.0
                        front_gap = float(dist[j] - cfg["collision_dist"])
                        break
        look = min(s + cfg["lookahead"], self._route.length)
        e_head = wrap_angle(psi - self._route.heading_at(look))
        return ControlState(v=float(v), v_set=cfg["v_set"],
                            front_speed=front_speed, front_gap=front_gap,
                            e_lat=e_lat, e_head=e_head, d_safe=cfg["d_safe"])

    def step(self, state: IntersectionState, action) -> StepResult:
        cfg = self.cfg
        params = np.clip(np.asarray(action, dtype=float).reshape(-1),
                         -cfg["param_max"], cfg["param_max"])
        cs = self._control_state(state)
        accel, steer = linear_controller_act(params, cs, cfg["accel_max"],
                                             cfg["steer_max"])
        dt = cfg["dt"]
        x, y, psi, v = state.ego
        speeds = self._other_speeds(state.stations, state.ego[:2])
        if not state.crashed:
            x += v * math.cos(psi) * dt
            y += v * math.sin(psi) * dt
            psi = wrap_angle(psi + v / cfg["wheelbase"] * math.tan(steer) * dt)
            v = float(np.clip(v + accel * dt, 0.0, cfg["v_max"]))
        stations = state.stations + speeds * dt
        for i, p in enumerate(self._other_paths):
            if stations[i] > p.length:
                stations[i] -= p.length
        others = self._others_xy(stations)
        ego_pos = np.array([x, y])
        dist = np.sqrt(((others - ego_pos) ** 2).sum(axis=1))
        crashed = bool(state.crashed or np.any(dist < cfg["collision_dist"]))
        if crashed and not state.crashed:
            v = 0.0
        nxt = IntersectionState(t=state.t + 1,
                                ego=np.array([x, y, psi, v]),
                                crashed=crashed, stations=stations,
                                speeds=speeds)
        feats = self._features(nxt, others)
        s, _ = self._route.project(ego_pos)
        goal = (not crashed) and s >= self._route.length - cfg["goal_margin"]
        e_head = wrap_angle(psi - self._route.heading_at(s))
        xi = self._task.params
        reward = xi["xi_speed"] * v + xi["xi_angle"] * abs(e_head)
        if goal:
            reward += cfg["goal_reward"]
        return StepResult(nxt, float(reward), feats, goal,
                          {"goal": goal, "crashed": crashed})

    def _features(self, state: IntersectionState,
                  others: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        x, y, psi, v = state.ego
        rel = others - np.array([x, y])
        dist = np.sqrt((rel ** 2).sum(axis=1))
        angs = np.arctan2(rel[:, 1], rel[:, 0]) - psi
        angs = np.abs(wrap_angle(angs))
        cone = math.radians(cfg["headway_cone_deg"])
        headway = bool(np.any((dist < cfg["headway_dist"]) & (angs < cone)))
        _, lat = self._route.project(np.array([x, y]))
        return np.array([
            1.0 if v > cfg["speed_cap"] else 0.0,
            1.0 if headway else 0.0,
            1.0 if state.crashed else 0.0,
            1.0 if abs(lat) > cfg["offroad_lat"] else 0.0,
        ])

    def true_cost(self, state: IntersectionState, action=None) -> np.ndarray:
        return self._features(state, self._others_xy(state.stations))

    def observe(self, state: IntersectionState) -> np.ndarray:
        x, y, psi, v = state.ego
        rows = [np.array([x / 20.0, y / 20.0,
                          v * math.cos(psi) / 10.0, v * math.sin(psi) / 10.0,
                          math.cos(psi), math.sin(psi), v / 10.0])]
        for p, s, sp in zip(self._other_paths, state.stations, state.speeds):
            pt = p.point_at(s)
            h = p.heading_at(s)
            rows.append(np.array([
                (pt[0] - x) / 20.0, (pt[1] - y) / 20.0,
                sp * math.cos(h) / 10.0, sp * math.sin(h) / 10.0,
                math.cos(h), math.sin(h), sp / 10.0]))
        return np.concatenate(rows)

    def project(self, obs: np.ndarray) -> np.ndarray:
        obs = np.atleast_2d(obs)
        return obs[:, :2] * 20.0
