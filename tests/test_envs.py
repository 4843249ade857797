"""Environment tests: budgets, dynamics spot checks, cost predicates,
scripted feasibility probes, and intersection geometry."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dial.envs import (
    ControlState,
    TaskSpec,
    budget_from_horizon,
    linear_controller_act,
    make_env,
)
from dial.envs.base import merge_config
from dial.envs.intersection import Path, build_routes, wrap_angle


# ---------------------------------------------------------------- budgets

def test_budget_matches_literal_discounted_sum():
    # oracle: eps * sum_t gamma^t = d with the sum done term by term
    for d, gamma, horizon in [(0.5, 0.99, 400), (10.0, 0.99, 1200),
                              (5.0, 0.99, 400), (0.5, 0.9, 50)]:
        s = sum(gamma ** t for t in range(horizon))
        assert budget_from_horizon(d, gamma, horizon) == pytest.approx(
            d / s, rel=1e-12)


def test_budget_reference_values():
    assert budget_from_horizon(0.5, 0.99, 400) == pytest.approx(
        0.00509135, abs=2e-6)
    assert budget_from_horizon(10.0, 0.99, 1200) == pytest.approx(
        0.1, abs=1e-4)


def test_budget_validation():
    with pytest.raises(ValueError):
        budget_from_horizon(0.5, 1.0, 400)
    with pytest.raises(ValueError):
        budget_from_horizon(0.5, 0.99, 0)
    with pytest.raises(ValueError):
        budget_from_horizon(-1.0, 0.99, 400)


def test_env_eps_uses_its_own_budget():
    env = make_env("mountain_car")
    assert env.eps == pytest.approx(
        budget_from_horizon(0.5, 0.99, 400), rel=1e-12)
    nav = make_env("basic_nav")
    assert nav.eps == pytest.approx(
        budget_from_horizon(10.0, 0.99, 1200), rel=1e-12)


# ------------------------------------------------------------ config plumbing

def test_merge_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="bogus"):
        merge_config("env", {"a": 1}, {"bogus": 2})


def test_make_env_unknown_name():
    with pytest.raises(ValueError, match="unknown env"):
        make_env("nope")


def test_make_env_applies_overrides():
    env = make_env("basic_nav", {"horizon": 300})
    assert env.horizon == 300
    assert env.eps == pytest.approx(budget_from_horizon(10.0, 0.99, 300))
    with pytest.raises(ValueError):
        make_env("basic_nav", {"not_a_key": 1})


def test_taskspec_json_round_trip():
    t = TaskSpec("goal", goal=(9.5, 0.5), params={"xi": 0.25})
    back = TaskSpec.from_json(t.to_json())
    assert back.kind == "goal" and back.goal == (9.5, 0.5)
    assert back.params["xi"] == 0.25
    t2 = TaskSpec.from_json(TaskSpec("explore").to_json())
    assert t2.goal is None and t2.params == {}


# ------------------------------------------------------------- mountain car

def test_mountain_car_single_step_hand_values():
    env = make_env("mountain_car")
    s = np.array([-0.5, 0.0])
    r = env.step(s, np.array([1.0]))
    v_expect = 0.0015 * 1.0 - 0.0025 * math.cos(3.0 * -0.5)
    assert r.next_state[1] == pytest.approx(v_expect, rel=1e-12)
    assert r.next_state[0] == pytest.approx(-0.5 + v_expect, rel=1e-12)
    assert r.reward == pytest.approx(-0.1)
    assert not r.done


def test_mountain_car_clips_speed_and_wall():
    env = make_env("mountain_car")
    r = env.step(np.array([-1.19, -0.07]), np.array([-1.0]))
    assert r.next_state[0] == -1.2 and r.next_state[1] == 0.0
    # speed magnitude never exceeds the cap
    s = np.array([0.0, 0.069])
    r = env.step(s, np.array([1.0]))
    assert abs(r.next_state[1]) <= 0.07 + 1e-15


def test_mountain_car_goal_and_cost_predicates():
    env = make_env("mountain_car")
    r = env.step(np.array([0.44, 0.05]), np.array([0.0]))
    assert r.done and r.reward == pytest.approx(100.0)
    assert env.true_cost(np.array([-0.91, 0.0]))[0] == 1.0
    assert env.true_cost(np.array([-0.9, 0.0]))[0] == 0.0
    assert env.true_cost(np.array([-0.89, 0.0]))[0] == 0.0


def test_mountain_car_reset_range():
    env = make_env("mountain_car")
    for seed in range(30):
        rng = np.random.default_rng(seed)
        s = env.reset(TaskSpec("explore"), rng)
        assert -0.6 <= s[0] <= -0.4 and s[1] == 0.0


def mountain_car_sweep():
    """Seeded states and throttles, including out-of-range ones, plus rows
    that hit the left wall, the right clamp, both speed caps, the goal and
    land exactly on the red line."""
    rng = np.random.default_rng(17)
    n = 4000
    states = np.column_stack([rng.uniform(-1.3, 0.7, n), rng.uniform(-0.08, 0.08, n)])
    actions = rng.uniform(-1.5, 1.5, n)
    # at x = -0.9 with a = 0, v = gravity * cos(3x) cancels to exactly 0
    on_line = 0.0025 * math.cos(3.0 * -0.9)
    hand = np.array([[-1.19, -0.07, -1.0], [0.59, 0.07, 1.0], [0.0, 0.069, 1.0],
                     [-0.5, -0.069, -1.0], [0.44, 0.02, 0.0], [-0.9, on_line, 0.0]])
    return np.vstack([states, hand[:, :2]]), np.concatenate([actions, hand[:, 2]])


def test_mountain_car_step_batch_matches_step():
    env = make_env("mountain_car")
    states, actions = mountain_car_sweep()
    nxt, rewards, costs, goal = env.step_batch(states, actions)
    for i, (s, a) in enumerate(zip(states, actions)):
        r = env.step(s, np.array([a]))
        assert np.array_equal(nxt[i], r.next_state)
        assert np.array_equal(rewards[i], r.reward)
        assert np.array_equal(costs[i], r.cost_features)
        assert goal[i] == r.done
    # the sweep reaches every branch of the dynamics
    assert np.any(nxt[:, 0] == -1.2) and np.any(nxt[:, 0] == 0.6)
    assert np.any(nxt[:, 1] == 0.07) and np.any(nxt[:, 1] == -0.07)
    assert goal.any() and costs.any()
    assert nxt[-1, 0] == -0.9 and costs[-1, 0] == 0.0


def test_mountain_car_step_clamps_throttle_like_np_clip():
    env = make_env("mountain_car")
    s = np.array([-0.5, 0.01])
    for a in (-3.0, -1.0, -0.25, 0.0, 0.7, 1.0, 2.5, np.inf, -np.inf, np.nan):
        got = env.step(s, np.array([a]))
        want = env.step(s, np.clip(np.array([a]), -1.0, 1.0))
        assert np.array_equal(got.next_state, want.next_state, equal_nan=True)
        assert np.array_equal(got.reward, want.reward, equal_nan=True)


def run_mountain_car_policy(env, seed, act_fn):
    rng = np.random.default_rng(seed)
    s = env.reset(TaskSpec("goal"), rng)
    crossed = False
    for t in range(env.horizon):
        r = env.step(s, np.array([act_fn(s, t)]))
        s = r.next_state
        crossed = crossed or r.cost_features[0] > 0
        if r.done:
            return True, crossed
    return False, crossed


def test_mountain_car_safe_route_exists():
    # pump energy but brake the leftward swing before the red line:
    # reaching the goal must not require entering x < -0.9
    env = make_env("mountain_car")

    def pump(s, t):
        x, v = s
        if v >= 0:
            return 1.0
        return -1.0 if (x > -0.55 and v > -0.03) else 1.0

    for seed in range(5):
        goal, crossed = run_mountain_car_policy(env, seed, pump)
        assert goal and not crossed


def test_mountain_car_reckless_route_crosses():
    # the classic full-swing solution overshoots the red line, so the
    # constraint actually binds on fast policies
    env = make_env("mountain_car")

    def swing(s, t):
        x, v = s
        if v >= 0:
            return 1.0
        return -1.0 if v > -0.05 else 1.0

    crossings = 0
    for seed in range(5):
        goal, crossed = run_mountain_car_policy(env, seed, swing)
        assert goal
        crossings += int(crossed)
    assert crossings >= 4


# ----------------------------------------------------------------- cartpole

def test_cartpole_single_step_matches_equations():
    env = make_env("cartpole")
    s = np.array([0.1, -0.2, 0.3, 0.5])
    a = 0.7
    r = env.step(s, np.array([a]))
    # independent reimplementation of the pole dynamics
    g, mc, mp, half, dt = 9.8, 1.0, 0.1, 0.5, 0.02
    force = 10.0 * a
    x, xd, th, thd = s
    costh, sinth = math.cos(th), math.sin(th)
    tmp = (force + mp * half * thd ** 2 * sinth) / (mc + mp)
    thacc = (g * sinth - costh * tmp) / (
        half * (4.0 / 3.0 - mp * costh ** 2 / (mc + mp)))
    xacc = tmp - mp * half * thacc * costh / (mc + mp)
    expect = np.array([x + dt * xd, xd + dt * xacc,
                       th + dt * thd, thd + dt * thacc])
    assert np.allclose(r.next_state, expect, rtol=1e-12)
    assert r.reward == pytest.approx(1.0 + math.cos(expect[2]), rel=1e-12)


def test_cartpole_never_terminates():
    env = make_env("cartpole")
    rng = np.random.default_rng(3)
    s = env.reset(TaskSpec("explore"), rng)
    for t in range(400):
        r = env.step(s, np.array([rng.uniform(-1, 1)]))
        assert not r.done
        s = r.next_state


def test_cartpole_cost_predicate():
    env = make_env("cartpole")
    assert env.true_cost(np.array([1.51, 0, 0, 0]))[0] == 1.0
    assert env.true_cost(np.array([-1.51, 0, 0, 0]))[0] == 1.0
    assert env.true_cost(np.array([1.49, 0, 0, 0]))[0] == 0.0


def test_cartpole_projection_wraps_angle():
    env = make_env("cartpole")
    obs = np.array([[0.5, 0, 2 * math.pi + 0.3, 0]])
    pts = env.project(obs)
    assert pts[0, 0] == 0.5
    assert pts[0, 1] == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------- basic nav

def test_basic_nav_step_and_progress_reward():
    env = make_env("basic_nav")
    task = TaskSpec("goal", goal=(9.5, 0.5))
    rng = np.random.default_rng(0)
    s = env.reset(task, rng)
    a = np.array([1.0, 0.0])
    r = env.step(s, a)
    assert np.allclose(r.next_state, [0.55, 0.5])
    d_prev = math.hypot(0.5 - 9.5, 0.0)
    d_new = math.hypot(0.55 - 9.5, 0.0)
    assert r.reward == pytest.approx(100.0 * (d_prev - d_new), rel=1e-12)


def test_basic_nav_clips_to_arena_and_action_box():
    env = make_env("basic_nav")
    env.reset(TaskSpec("explore"), np.random.default_rng(0))
    r = env.step(np.array([0.01, 9.99]), np.array([-5.0, 5.0]))
    # action clipped to unit box, then position clipped to the arena
    assert r.next_state[0] == pytest.approx(0.0)
    assert r.next_state[1] == pytest.approx(10.0)


def basic_nav_sweep(env):
    """Seeded states, goals and actions beyond the box, plus rows pushed into
    the arena walls and rows that stand still on the goal radius and the
    hazard radius, each also one ulp either side. The hazard rows include
    every one of a dense ring on which np.hypot and math.hypot fall on
    different sides of the radius."""
    rng = np.random.default_rng(23)
    goals_all = np.array(env.cfg["train_goals"], dtype=float)
    n = 3000
    states = rng.uniform(0.0, 10.0, (n, 2))
    actions = rng.uniform(-1.6, 1.6, (n, 2))
    walls = np.array([[0.01, 5.0], [9.99, 5.0], [3.0, 0.02], [3.0, 9.98], [0.0, 10.0]])
    states = np.vstack([states, walls])
    actions = np.vstack([actions, [[-1.0, 0.0], [1.5, 0.0], [0.3, -2.0], [0.0, 1.0],
                                   [-1.0, 1.0]]])
    goals = goals_all[rng.integers(len(goals_all), size=len(states))]

    m, hazard, radius = 6000, np.array(env.cfg["hazard_center"]), env.cfg["hazard_radius"]
    th = rng.uniform(0.0, 2.0 * math.pi, m)
    unit = np.column_stack([np.cos(th), np.sin(th)])
    ring_goals = goals_all[np.arange(m) % 4]
    ring = np.vstack([ring_goals[:200] + env.cfg["goal_radius"] * unit[:200],
                      hazard + radius * unit[200:]])
    ring = np.vstack([np.column_stack([np.nextafter(ring[:, 0], toward), ring[:, 1]])
                      for toward in (-np.inf, ring[:, 0], np.inf)])
    dx, dy = (ring - hazard).T
    split = (np.hypot(dx, dy) < radius) != np.array(
        [math.hypot(x, y) < radius for x, y in zip(dx, dy)])
    assert split.any()
    keep = (np.arange(len(ring)) % m < 400) | split
    # a zero action leaves the position exactly where it stands
    states = np.vstack([states, ring[keep]])
    actions = np.vstack([actions, np.zeros((keep.sum(), 2))])
    goals = np.vstack([goals, np.tile(ring_goals, (3, 1))[keep]])
    return states, actions, goals


def test_basic_nav_step_batch_matches_step():
    env = make_env("basic_nav")
    states, actions, goals = basic_nav_sweep(env)
    nxt, rewards, costs, done = env.step_batch(states, actions, goals)
    for i, (s, a, g) in enumerate(zip(states, actions, goals)):
        env.reset(TaskSpec("goal", goal=tuple(g)), None)
        r = env.step(s, a)
        assert nxt[i].tobytes() == r.next_state.tobytes()
        assert np.float64(rewards[i]).tobytes() == np.float64(r.reward).tobytes()
        assert costs[i].tobytes() == r.cost_features.tobytes()
        assert done[i] == r.done
    # the sweep reaches the walls, both sides of both radii and every goal
    assert np.any(nxt == 0.0) and np.any(nxt == 10.0)
    assert done.any() and not done.all()
    assert costs.any() and not costs.all()
    assert len({tuple(g) for g in goals[done]}) == 4
    hz = env.cfg["hazard_center"]
    d_hz = np.array([math.hypot(x - hz[0], y - hz[1]) for x, y in nxt])
    near = np.abs(d_hz - env.cfg["hazard_radius"]) < 1e-12
    assert costs[near].any() and not costs[near].all()


def test_basic_nav_hazard_cost():
    env = make_env("basic_nav")
    assert env.true_cost(np.array([5.0, 5.0]))[0] == 1.0
    assert env.true_cost(np.array([5.0, 6.9]))[0] == 1.0
    assert env.true_cost(np.array([5.0, 7.1]))[0] == 0.0


def test_basic_nav_explore_task_has_no_reward():
    env = make_env("basic_nav")
    rng = np.random.default_rng(1)
    s = env.reset(TaskSpec("explore"), rng)
    for _ in range(20):
        r = env.step(s, rng.uniform(-1, 1, 2))
        assert r.reward == 0.0 and not r.done
        s = r.next_state


def test_basic_nav_task_sampling():
    env = make_env("basic_nav")
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(100):
        t = env.sample_task(rng, "il")
        seen.add(t.goal)
    assert seen == {(9.5, 0.5), (0.5, 9.5), (9.5, 5.0), (5.0, 9.5)}
    assert env.sample_task(rng, "meta").goal == (9.5, 9.5)


def test_basic_nav_edge_route_avoids_hazard_and_reaches_goal():
    env = make_env("basic_nav")
    task = TaskSpec("goal", goal=(9.5, 0.5))
    rng = np.random.default_rng(0)
    s = env.reset(task, rng)
    cost = 0.0
    done = False
    for t in range(env.horizon):
        d = np.asarray(task.goal) - s
        a = d / max(np.linalg.norm(d), 1e-9)
        r = env.step(s, a)
        s = r.next_state
        cost += r.cost_features[0]
        if r.done:
            done = True
            break
    assert done and cost == 0.0


def test_basic_nav_diagonal_route_pays_cost():
    env = make_env("basic_nav")
    task = TaskSpec("goal", goal=(9.5, 9.5))
    rng = np.random.default_rng(0)
    s = env.reset(task, rng)
    cost = 0.0
    for t in range(env.horizon):
        d = np.asarray(task.goal) - s
        a = d / max(np.linalg.norm(d), 1e-9)
        r = env.step(s, a)
        s = r.next_state
        cost += r.cost_features[0]
        if r.done:
            break
    assert cost > 50.0


# ------------------------------------------------------------ path geometry

def test_path_point_heading_station():
    p = Path(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0]]))
    assert p.length == pytest.approx(15.0)
    assert np.allclose(p.point_at(3.0), [3.0, 0.0])
    assert np.allclose(p.point_at(12.0), [10.0, 2.0])
    assert p.heading_at(3.0) == pytest.approx(0.0)
    assert p.heading_at(12.0) == pytest.approx(math.pi / 2)
    # beyond the ends: clipped
    assert np.allclose(p.point_at(99.0), [10.0, 5.0])
    assert np.allclose(p.point_at(-1.0), [0.0, 0.0])


def test_path_projection_signed_lateral():
    p = Path(np.array([[0.0, 0.0], [10.0, 0.0]]))
    s, lat = p.project(np.array([4.0, 1.5]))
    assert s == pytest.approx(4.0)
    assert lat == pytest.approx(1.5)    # left of travel direction
    s, lat = p.project(np.array([4.0, -2.0]))
    assert lat == pytest.approx(-2.0)


def test_routes_start_and_end_on_lanes():
    routes = build_routes(lane=2.0, box=6.0, spawn=26.0, exit_d=26.0)
    st = routes[("S", "straight")]
    assert np.allclose(st.pts[0], [2.0, -26.0])
    assert np.allclose(st.pts[-1], [2.0, 26.0])
    rt = routes[("S", "right")]
    assert np.allclose(rt.pts[0], [2.0, -26.0])
    assert np.allclose(rt.pts[-1], [26.0, -2.0])
    assert rt.heading_at(rt.length - 1.0) == pytest.approx(0.0, abs=1e-9)
    lf = routes[("S", "left")]
    assert np.allclose(lf.pts[-1], [-26.0, 2.0])
    assert abs(wrap_angle(lf.heading_at(lf.length - 1.0) - math.pi)) < 1e-9
    # rotated arm: east entry drives west along y = +2
    est = routes[("E", "straight")]
    assert np.allclose(est.pts[0], [26.0, 2.0])
    assert np.allclose(est.pts[-1], [-26.0, 2.0])


def test_routes_have_no_large_gaps():
    routes = build_routes(2.0, 6.0, 26.0, 26.0)
    for (arm, move), path in routes.items():
        assert np.all(path.seg_len > 0.0)
        if move != "straight":
            # arcs are sampled finely enough that the polyline hugs the circle
            interior = path.seg_len[1:-1]
            assert np.all(interior < 2.0)


# ----------------------------------------------------------- gain controller

CTRL = dict(accel_max=5.0, steer_max=1.0)


def test_controller_speed_tracking_sign():
    cs = ControlState(v=6.0, v_set=10.0, front_speed=None, front_gap=None,
                      e_lat=0.0, e_head=0.0, d_safe=10.0)
    accel, steer = linear_controller_act(np.array([1.0, 0, 0, 0, 0]), cs, **CTRL)
    assert accel == pytest.approx(4.0)
    assert steer == 0.0


def test_controller_brakes_for_slow_lead_and_short_gap():
    cs = ControlState(v=10.0, v_set=10.0, front_speed=6.0, front_gap=4.0,
                      e_lat=0.0, e_head=0.0, d_safe=10.0)
    accel, _ = linear_controller_act(np.array([0, 1.0, 0, 0, 0]), cs, **CTRL)
    assert accel == pytest.approx(-4.0)
    accel, _ = linear_controller_act(np.array([0, 0, 0.5, 0, 0]), cs, **CTRL)
    assert accel == pytest.approx(-3.0)
    # faster lead or wide gap contribute nothing
    cs2 = ControlState(v=10.0, v_set=10.0, front_speed=12.0, front_gap=15.0,
                       e_lat=0.0, e_head=0.0, d_safe=10.0)
    accel, _ = linear_controller_act(np.array([0, 1.0, 1.0, 0, 0]), cs2, **CTRL)
    assert accel == 0.0


def test_controller_steering_is_corrective():
    # sitting left of the lane with the lane's own heading: steer right
    cs = ControlState(v=8.0, v_set=10.0, front_speed=None, front_gap=None,
                      e_lat=1.0, e_head=0.0, d_safe=10.0)
    _, steer = linear_controller_act(np.array([0, 0, 0, 0.5, 0]), cs, **CTRL)
    assert steer == pytest.approx(-0.5)
    cs = ControlState(v=8.0, v_set=10.0, front_speed=None, front_gap=None,
                      e_lat=0.0, e_head=0.3, d_safe=10.0)
    _, steer = linear_controller_act(np.array([0, 0, 0, 0, 2.0]), cs, **CTRL)
    assert steer == pytest.approx(-0.6)


def test_controller_clips_and_validates():
    cs = ControlState(v=0.0, v_set=10.0, front_speed=None, front_gap=None,
                      e_lat=-5.0, e_head=0.0, d_safe=10.0)
    accel, steer = linear_controller_act(np.array([9.0, 0, 0, 9.0, 0]), cs, **CTRL)
    assert accel == 5.0 and steer == 1.0
    with pytest.raises(ValueError):
        linear_controller_act(np.zeros(4), cs, **CTRL)


# ------------------------------------------------------------- intersection

GOOD_GAINS = np.array([0.6, 2.5, 1.5, 0.3, 1.5])


def intersection_rollout(env, seed, kind, gains):
    rng = np.random.default_rng(seed)
    task = TaskSpec(kind, params={"xi_speed": 0.1, "xi_angle": -0.2})
    s = env.reset(task, rng)
    feats = np.zeros(4)
    goal = False
    for t in range(env.horizon):
        r = env.step(s, gains)
        s = r.next_state
        feats += r.cost_features
        if r.done:
            goal = True
            break
    return goal, s.crashed, feats / env.horizon


def test_intersection_reset_layout():
    env = make_env("intersection")
    rng = np.random.default_rng(0)
    s = env.reset(env.sample_task(rng, "il"), rng)
    assert np.allclose(s.ego[:2], [2.0, -26.0])
    assert s.ego[2] == pytest.approx(math.pi / 2)
    assert s.ego[3] == pytest.approx(8.0)
    assert len(s.stations) == 15 and len(s.speeds) == 15
    obs = env.observe(s)
    assert obs.shape == (112,)
    assert np.all(np.isfinite(obs))
    # spawn keeps everyone clear of the ego
    others = env._others_xy(s.stations)
    d = np.sqrt(((others - s.ego[:2]) ** 2).sum(axis=1))
    assert d.min() > 4.0


def test_intersection_eps_vector():
    env = make_env("intersection")
    assert np.allclose(env.eps, [0.2, 0.2, 0.05, 0.1])
    assert env.cost_dim == 4 and env.action_dim == 5


def test_intersection_task_split_and_reward_draws():
    env = make_env("intersection")
    rng = np.random.default_rng(5)
    kinds = [env.sample_task(rng, "il").kind for _ in range(400)]
    frac_left = kinds.count("left") / 400
    assert set(kinds) == {"left", "right"}
    assert 0.4 < frac_left < 0.6
    assert env.sample_task(rng, "meta").kind == "straight"
    xs = np.array([env.sample_task(rng, "il").params["xi_speed"]
                   for _ in range(2000)])
    assert abs(xs.mean() - 0.1) < 0.01 and abs(xs.std() - 0.1) < 0.01


def test_intersection_speeding_and_offroad_features():
    env = make_env("intersection")
    rng = np.random.default_rng(1)
    s = env.reset(TaskSpec("straight", params={"xi_speed": 0.1,
                                               "xi_angle": -0.2}), rng)
    fast = dataclasses.replace(s, ego=np.array([2.0, -26.0, math.pi / 2, 16.0]))
    assert env.true_cost(fast)[0] == 1.0
    assert env.true_cost(s)[0] == 0.0
    off = dataclasses.replace(s, ego=np.array([4.6, -26.0, math.pi / 2, 8.0]))
    assert env.true_cost(off)[3] == 1.0
    assert env.true_cost(s)[3] == 0.0


def test_intersection_headway_cone():
    env = make_env("intersection")
    rng = np.random.default_rng(2)
    s = env.reset(TaskSpec("straight", params={"xi_speed": 0.1,
                                               "xi_angle": -0.2}), rng)
    others = env._others_xy(s.stations)
    target = others[0]
    # face vehicle 0 from 6m away: inside cone and range
    for back, expect in [(6.0, 1.0), (14.0, 0.0)]:
        pos = target - np.array([back, 0.0])
        ego = np.array([pos[0], pos[1], 0.0, 8.0])
        st = dataclasses.replace(s, ego=ego)
        assert env.true_cost(st)[1] == expect
    # same distance but facing away: outside the cone
    pos = target - np.array([6.0, 0.0])
    ego = np.array([pos[0], pos[1], math.pi, 8.0])
    st = dataclasses.replace(s, ego=ego)
    assert env.true_cost(st)[1] == 0.0


def test_intersection_collision_is_sticky_and_freezes_ego():
    env = make_env("intersection")
    rng = np.random.default_rng(3)
    s = env.reset(TaskSpec("straight", params={"xi_speed": 0.1,
                                               "xi_angle": -0.2}), rng)
    # teleport the ego onto the nearest vehicle to force contact
    others = env._others_xy(s.stations)
    s = dataclasses.replace(s, ego=np.array([others[0][0] - 1.0, others[0][1],
                                             0.0, 8.0]))
    r = env.step(s, GOOD_GAINS)
    assert r.cost_features[2] == 1.0
    assert r.next_state.crashed
    pos = r.next_state.ego[:2].copy()
    for _ in range(3):
        r = env.step(r.next_state, GOOD_GAINS)
        assert r.cost_features[2] == 1.0
        assert np.allclose(r.next_state.ego[:2], pos)
        assert r.next_state.ego[3] == 0.0


def test_intersection_scripted_gains_complete_right_turns():
    env = make_env("intersection")
    goals, crashes = 0, 0
    for seed in range(20):
        goal, crashed, _ = intersection_rollout(env, seed, "right", GOOD_GAINS)
        goals += int(goal)
        crashes += int(crashed)
    assert goals >= 14
    assert crashes <= 2


def test_intersection_scripted_gains_mostly_complete_lefts():
    env = make_env("intersection")
    goals, crashes = 0, 0
    for seed in range(20):
        goal, crashed, _ = intersection_rollout(env, seed, "left", GOOD_GAINS)
        goals += int(goal)
        crashes += int(crashed)
    assert goals >= 10
    assert crashes <= 4


def test_intersection_deterministic_rollouts():
    env = make_env("intersection")

    def run():
        rng = np.random.default_rng(11)
        task = TaskSpec("left", params={"xi_speed": 0.05, "xi_angle": -0.15})
        s = env.reset(task, rng)
        out = []
        for t in range(30):
            r = env.step(s, GOOD_GAINS)
            s = r.next_state
            out.append((s.ego.copy(), r.reward, r.cost_features.copy()))
        return out

    a, b = run(), run()
    for (ea, ra, ca), (eb, rb, cb) in zip(a, b):
        assert np.array_equal(ea, eb) and ra == rb and np.array_equal(ca, cb)


def test_intersection_projection_recovers_ego_position():
    env = make_env("intersection")
    rng = np.random.default_rng(4)
    s = env.reset(env.sample_task(rng, "il"), rng)
    obs = env.observe(s)
    pt = env.project(obs[None, :])
    assert pt.shape == (1, 2)
    assert np.allclose(pt[0], s.ego[:2])


# -------------------------------------------------------------------- grids

def test_grid_specs():
    mc = make_env("mountain_car")
    g = mc.grid()
    assert g.counts.shape == (24, 22)
    assert np.allclose(g.lo, [-1.2, -0.07]) and np.allclose(g.hi, [0.6, 0.07])
    nav = make_env("basic_nav")
    assert nav.grid().counts.shape == (20, 20)
    cp = make_env("cartpole")
    assert cp.grid().counts.shape == (20, 20)
    ix = make_env("intersection")
    assert ix.grid().counts.shape == (20, 20)


def test_project_shapes():
    for name in ("mountain_car", "cartpole", "basic_nav"):
        env = make_env(name)
        rng = np.random.default_rng(0)
        s = env.reset(env.sample_task(rng, "il"), rng)
        obs = env.observe(s)
        pts = env.project(np.stack([obs, obs]))
        assert pts.shape == (2, 2)


# ------------------------------------------------------- out-of-box actions

def _state_bytes(s):
    if dataclasses.is_dataclass(s):
        return tuple(np.asarray(getattr(s, f.name)).tobytes()
                     for f in dataclasses.fields(s))
    return np.asarray(s).tobytes()


@pytest.mark.parametrize("name", ["basic_nav", "mountain_car", "cartpole",
                                  "intersection"])
@pytest.mark.parametrize("mode", ["il", "meta"])
def test_step_clips_actions_to_the_box(name, mode):
    # policies hand env.step unclipped Gaussian samples, so every env must
    # treat an action outside its box exactly as the box's nearest point
    env = make_env(name)
    rng = np.random.default_rng(11)
    s = env.reset(env.sample_task(rng, mode), rng)
    for _ in range(150):
        a = rng.uniform(3.0 * env.action_low, 3.0 * env.action_high)
        got = env.step(s, a)
        want = env.step(s, np.clip(a, env.action_low, env.action_high))
        assert _state_bytes(got.next_state) == _state_bytes(want.next_state)
        assert np.float64(got.reward).tobytes() == np.float64(want.reward).tobytes()
        assert got.cost_features.tobytes() == want.cost_features.tobytes()
        assert got.done == want.done
        s = want.next_state
        if want.done:
            s = env.reset(env.sample_task(rng, mode), rng)
