"""Orchestration tests: configs, rollout accounting, certification, stages.

Training runs here are deliberately tiny; they check structure, accounting,
and reproducibility rather than task performance.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from dial.betarisk import BetaParams
from dial.constraint import PER_STEP_BETA, THRESHOLD, ConstraintModel, Trajectory
from dial.dataio import hash_file, read_metrics, write_dataset
from dial.envs import TaskSpec, make_env
from dial.nets import save_checkpoint
from dial.policyopt import GaussianPolicy
from dial.trainer import (
    COST_AUDIT,
    RECIPES,
    BalancePolicy,
    ConfigError,
    ControllerPolicy,
    DetourPolicy,
    ExpertInfeasibleError,
    Metrics,
    PumpPolicy,
    TrainConfig,
    _cem_objective,
    _guarded,
    check_expert_manifest,
    collect_rollouts,
    evaluate,
    expert_manifest_path,
    generate_experts,
    load_policy,
    rollout_metrics,
    run_episode,
    run_episodes,
    run_tasks,
    safe_il,
    safe_tl,
    task_mode_for,
)

from conftest import Sgd

NAV_SMALL = {"horizon": 60}
# per-env sizes at which every stage runs in about a second
ENV_SMALL = {"basic_nav": NAV_SMALL, "mountain_car": {"horizon": 60},
             "cartpole": {"horizon": 60}, "intersection": {"horizon": 40}}
CEM_SMALL = {"cem_samp": 4, "cem_elite": 2, "cem_iter": 1,
             "cem_eval_episodes": 1}


def nav_cfg(stage, **over):
    over.setdefault("env_config", NAV_SMALL)
    return TrainConfig.for_env("basic_nav", stage, **over)


def write_certified_dataset(tmp_path, env, rng, n=6):
    """A tiny hand-rolled dataset with a manifest that claims feasibility."""
    policy = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 16, rng)
    taus = []
    for _ in range(n):
        task = env.sample_task(rng, "il")
        tau, _ = run_episode(env, policy, task, rng)
        taus.append(tau)
    path = tmp_path / "experts.jsonl"
    write_dataset(path, taus)
    man = {"v": 1, "env": env.name, "seed": 0, "n_trajectories": n,
           "rr": 0.0, "cr": [0.0], "cv": 0.0, "goal_rate": 0.0,
           "budget": env.eps_scalar, "cv_limit": env.eps_scalar,
           "certified": True}
    expert_manifest_path(path).write_text(json.dumps(man))
    return path


class TestTrainConfig:
    def test_stage_tables(self):
        il = TrainConfig.for_env("basic_nav", "safe-il")
        assert (il.env_steps, il.beta, il.delta) == (200_000, 1.0, 1.0)
        assert il.n_experts == 50
        tl = TrainConfig.for_env("mountain_car", "safe-tl")
        assert (tl.env_steps, tl.n_experts) == (50_000, 50)
        assert TrainConfig.for_env("intersection", "safe-tl").n_experts == 100
        assert TrainConfig.for_env("cartpole", "safe-il").env_steps == 500_000
        assert TrainConfig.for_env("intersection", "safe-il").delta == 0.1

    def test_shared_defaults(self):
        cfg = TrainConfig.for_env("mountain_car", "safe-il")
        assert cfg.n_rollouts == 20
        assert cfg.constraint_steps == 10
        assert (cfg.lr_constraint, cfg.lr_kappa) == (1e-2, 1e-3)
        assert cfg.kappa_d == 10.0
        assert cfg.prior_alpha == (0.1, 0.9)
        assert (cfg.cem_samp, cfg.cem_elite, cfg.cem_iter) == (80, 20, 5)

    def test_overrides_win(self):
        cfg = TrainConfig.for_env("basic_nav", "safe-il", env_steps=123, seed=9)
        assert cfg.env_steps == 123
        assert cfg.seed == 9

    def test_unknown_env(self):
        with pytest.raises(ConfigError, match="unknown env"):
            TrainConfig.for_env("pendulum", "safe-il")

    def test_unknown_keys_listed(self):
        # expert_steps and crl_entropy were the knobs of a removed PPO expert;
        # an old config that still sets them must fail, not pass silently
        for key in ("learning_rate", "expert_steps", "crl_entropy"):
            with pytest.raises(ConfigError, match=key):
                TrainConfig.from_dict({"env": "basic_nav", "stage": "eval",
                                       key: 0.1})

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(env="basic_nav", stage="pretrain")
        with pytest.raises(ConfigError):
            TrainConfig(env="basic_nav", stage="safe-il", env_steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(env="basic_nav", stage="eval", lam=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(env="basic_nav", stage="eval", lambda_mode="fixed")
        with pytest.raises(ConfigError):
            TrainConfig(env="basic_nav", stage="eval", cem_samp=10, cem_elite=20)
        with pytest.raises(ConfigError):
            TrainConfig(env="basic_nav", stage="eval", eval_episodes=0)
        for bad in ({"cem_elite": 0}, {"cem_iter": 0}, {"cem_eval_episodes": 0},
                    {"k_neighbors": 0}, {"delta": -0.1}, {"kappa0": -1.0},
                    {"max_particles": 4}, {"hidden_policy": 0},
                    {"hidden_constraint": 0}):
            with pytest.raises(ConfigError):
                TrainConfig(env="basic_nav", stage="eval", **bad)

    def test_numeric_fields_checked_by_type(self):
        for key, bad in (("seed", True), ("seed", np.float64(2.0)),
                         ("n_rollouts", 2.0), ("lam", False), ("lam", "0.5")):
            with pytest.raises(ConfigError, match=key):
                TrainConfig(env="basic_nav", stage="eval", **{key: bad})
        cfg = TrainConfig(env="basic_nav", stage="eval", seed=np.int64(4), lam=1,
                          beta=np.float64(0.5))
        assert cfg.seed == 4 and cfg.lam == 1

    def test_dict_round_trip(self):
        cfg = TrainConfig.for_env("cartpole", "safe-tl", seed=5)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_task_modes(self):
        assert task_mode_for("mountain_car", "safe-il") == "il"
        assert task_mode_for("basic_nav", "safe-il") == "il"
        assert task_mode_for("basic_nav", "safe-tl") == "meta"
        assert task_mode_for("intersection", "eval") == "meta"
        assert task_mode_for("mountain_car", "safe-tl") == "tl"
        assert task_mode_for("cartpole", "eval") == "tl"


class TestMetrics:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Metrics(rr=0.0, cr=[0.0], cv=1.2, se=0.0, goal_rate=0.0)
        with pytest.raises(ValueError):
            Metrics(rr=0.0, cr=[0.0], cv=0.5, se=-0.1, goal_rate=0.0)

    def test_to_dict_keys(self):
        m = Metrics(rr=1.0, cr=[0.5, 0.5], cv=0.0, se=2.0, goal_rate=0.8)
        d = m.to_dict()
        assert set(d) >= {"rr", "cr", "cr_total", "cv", "se", "goal_rate"}
        assert d["cr_total"] == 1.0


class TestPolicyCheckpoints:
    def test_controller_round_trip(self, tmp_path):
        pol = ControllerPolicy([1.0, -2.0, 0.5], std=[0.1, 0.2, 0.3])
        pol.save(tmp_path / "c.ckpt")
        back = load_policy(tmp_path / "c.ckpt")
        assert isinstance(back, ControllerPolicy)
        assert np.array_equal(back.gains, pol.gains)
        assert np.array_equal(back.std, pol.std)

    def test_gaussian_dispatch(self, tmp_path):
        rng = np.random.default_rng(0)
        pol = GaussianPolicy(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 8, rng)
        pol.save(tmp_path / "p.ckpt")
        assert isinstance(load_policy(tmp_path / "p.ckpt"), GaussianPolicy)

    def test_unknown_kind_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "x.ckpt", {"w": np.zeros(2)}, {"kind": "mystery"})
        with pytest.raises(ValueError, match="mystery"):
            load_policy(tmp_path / "x.ckpt")


class TestRollouts:
    def test_episode_shapes(self):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(0)
        pol = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 8, rng)
        tau, goal = run_episode(env, pol, env.sample_task(rng, "il"), rng)
        assert 1 <= len(tau) <= env.horizon
        assert tau.states.shape == (len(tau), env.state_dim)
        assert tau.actions.shape == (len(tau), env.action_dim)
        assert tau.cost_features.shape == (len(tau), env.cost_dim)
        assert isinstance(goal, bool)

    def test_budget_accounting_within_one_rollout(self):
        # recorded steps equal the budget within one episode's length
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(1)
        pol = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 8, rng)
        for budget in (1, 59, 60, 61, 150, 600):
            trajs, _, steps = collect_rollouts(env, pol, 1000, rng, "il",
                                               budget_left=budget)
            assert steps == sum(len(t) for t in trajs)
            assert steps >= budget
            assert steps - len(trajs[-1]) < budget

    def test_episode_cap_respected(self):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(2)
        pol = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 8, rng)
        trajs, goals, _ = collect_rollouts(env, pol, 7, rng, "il")
        assert len(trajs) == 7
        assert len(goals) == 7

    def test_rollout_metrics_hand_values(self):
        env = make_env("basic_nav", NAV_SMALL)
        t = 10
        mk = lambda rew, rate: Trajectory(
            states=np.full((t, 2), 5.0), actions=np.zeros((t, 2)),
            extrinsic_rewards=np.full(t, rew),
            cost_features=np.full((t, 1), rate))
        hot = mk(1.0, 1.0)       # rate 1 > eps, violating
        cold = mk(3.0, 0.0)      # clean
        m = rollout_metrics(env, [hot, cold], [True, False])
        assert m.rr == pytest.approx((10.0 + 30.0) / 2)
        assert m.goal_rate == 0.5
        assert m.cr[0] == pytest.approx((10.0 + 0.0) / 2)
        assert m.cv == pytest.approx(0.5)
        assert m.feasible_reward == pytest.approx(30.0)
        # all states in one cell of a 20x20 grid: zero entropy
        assert m.se == pytest.approx(0.0, abs=1e-12)

    def test_feasible_reward_none_when_all_violate(self):
        env = make_env("basic_nav", NAV_SMALL)
        tau = Trajectory(states=np.zeros((5, 2)), actions=np.zeros((5, 2)),
                         extrinsic_rewards=np.ones(5),
                         cost_features=np.ones((5, 1)))
        m = rollout_metrics(env, [tau], [False])
        assert m.cv == 1.0
        assert m.feasible_reward is None

    def test_entropy_bounded_by_grid_size(self):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(3)
        pol = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 8, rng)
        trajs, goals, _ = collect_rollouts(env, pol, 5, rng, "il")
        m = rollout_metrics(env, trajs, goals)
        assert 0.0 <= m.se <= np.log(20 * 20)


class TestEvaluate:
    def _cfg(self):
        return nav_cfg("eval", eval_episodes=4, seed=11)

    def _policy(self):
        rng = np.random.default_rng(7)
        return GaussianPolicy(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                              8, rng)

    def test_deterministic_across_runs(self):
        cfg, pol = self._cfg(), self._policy()
        m1, d1 = evaluate(cfg, pol)
        m2, d2 = evaluate(cfg, pol)
        assert d1 == d2
        assert m1.to_dict() == m2.to_dict()

    def test_episode_streams(self):
        """Episode ep of seed s draws only from SeedSequence([s, ep]); a
        batched evaluate must keep this contract bit for bit."""
        cfg = nav_cfg("eval", eval_episodes=2, eval_seeds=[1, 2])
        pol = self._policy()
        _, detail = evaluate(cfg, pol)
        env = make_env("basic_nav", NAV_SMALL)
        mode = task_mode_for("basic_nav", "eval")
        expect = []
        for s in (1, 2):
            for ep in range(2):
                rng = np.random.default_rng(np.random.SeedSequence([s, ep]))
                tau, goal = run_episode(env, pol, env.sample_task(rng, mode), rng)
                expect.append({"seed": s, "episode": ep,
                               "rr": float(tau.extrinsic_rewards.sum()),
                               "cr": [float(v) for v in tau.cost_features.sum(axis=0)],
                               "len": len(tau), "goal": goal})
        assert detail == expect

    def test_multi_seed_detail(self):
        cfg = nav_cfg("eval", eval_episodes=2, eval_seeds=[1, 2, 3])
        _, detail = evaluate(cfg, self._policy())
        assert len(detail) == 6
        assert sorted({row["seed"] for row in detail}) == [1, 2, 3]


class TestLockstep:
    """evaluate steps every basic_nav and mountain_car episode together
    through run_episodes; each must stay bit for bit the run_episode of its
    own stream, also when rows reach their goals at different steps."""

    EARLY = {"basic_nav": {"goal_radius": 9.0, "horizon": 600},
             "mountain_car": {"goal_position": -0.35}}

    @staticmethod
    def _policy(env, bias):
        pol = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 64,
                             np.random.default_rng(3))
        pol.net.biases[2][: pol.head.dim] = bias
        return pol

    @pytest.mark.parametrize("env_name", sorted(EARLY))
    @pytest.mark.parametrize("bias", [0.0, 0.8])
    def test_evaluate_is_one_episode_per_stream(self, env_name, bias):
        ec, seeds = self.EARLY[env_name], [0, 7, 123]
        env = make_env(env_name, ec)
        pol = self._policy(env, bias)
        metrics, detail = evaluate(TrainConfig.for_env(
            env_name, "eval", eval_episodes=4, eval_seeds=seeds, env_config=ec), pol)
        mode = task_mode_for(env_name, "eval")
        taus, goals, expect = [], [], []
        for s in seeds:
            for ep in range(4):
                rng = np.random.default_rng(np.random.SeedSequence([s, ep]))
                tau, goal = run_episode(env, pol, env.sample_task(rng, mode), rng)
                taus.append(tau)
                goals.append(goal)
                expect.append({"seed": s, "episode": ep,
                               "rr": float(tau.extrinsic_rewards.sum()),
                               "cr": [float(v) for v in tau.cost_features.sum(axis=0)],
                               "len": len(tau), "goal": goal})
        assert detail == expect
        assert metrics.to_dict() == rollout_metrics(env, taus, goals).to_dict()
        if bias:
            lens = [row["len"] for row in detail]
            assert any(row["goal"] for row in detail) and len(set(lens)) > 1

    def test_run_episodes_rows_chase_their_own_goals(self):
        env = make_env("basic_nav", {"goal_radius": 8.0, "horizon": 200})
        pol = self._policy(env, 0.8)
        rngs = [np.random.default_rng([21, i]) for i in range(12)]
        tasks = [env.sample_task(rng, "il") for rng in rngs]
        starts = [env.reset(task, rng) for task, rng in zip(tasks, rngs)]
        goals = np.array([task.goal for task in tasks])
        *recs, lens, goal = run_episodes(
            env, starts, lambda obs: pol.act_rows(obs, rngs), goals)
        for i in range(12):
            twin = np.random.default_rng([21, i])
            tau, reached = run_episode(env, pol, env.sample_task(twin, "il"), twin)
            assert lens[i] == len(tau) and goal[i] == reached
            for rec, arr in zip(recs, (tau.states, tau.actions,
                                       tau.extrinsic_rewards, tau.cost_features)):
                assert rec[:lens[i], i].tobytes() == arr.tobytes()
        assert len({task.goal for task in tasks}) >= 3
        assert goal.any() and len(set(lens)) > 1

    def test_run_tasks_takes_goalless_tasks(self):
        # mountain_car's "il" tasks are "explore", with no goal to stack
        env = make_env("mountain_car", {"horizon": 80})
        pol = self._policy(env, 0.8)
        rngs = [np.random.default_rng([22, i]) for i in range(5)]
        jobs = ((env.sample_task(rng, "il"), rng, rng) for rng in rngs)
        results = run_tasks(env, jobs, lambda goal: pol)
        for i, (tau, info) in enumerate(results):
            twin = np.random.default_rng([22, i])
            task = env.sample_task(twin, "il")
            assert task.goal is None and tau.task == task
            want, want_info = run_episode(env, pol, task, twin)
            assert info == want_info
            for got, arr in zip((tau.states, tau.actions, tau.extrinsic_rewards,
                                 tau.cost_features),
                                (want.states, want.actions, want.extrinsic_rewards,
                                 want.cost_features)):
                assert got.tobytes() == arr.tobytes()


class TestDetourRows:
    """basic_nav's guidance laws step their demonstrations together:
    DetourPolicy.act_rows must be act row for row, on every branch."""

    @staticmethod
    def _rows():
        env = make_env("basic_nav")
        rng = np.random.default_rng(11)
        goals = np.array(env.cfg["train_goals"] + [env.cfg["meta_goal"]], dtype=float)
        hazard = np.array(env.cfg["hazard_center"])
        n = 600
        obs = rng.uniform(0.0, 10.0, (n, 2))
        # a third of the rows near or inside the disc, some on its rim
        obs[: n // 3] = hazard + rng.uniform(-2.4, 2.4, (n // 3, 2))
        obs[n // 3: n // 3 + 20] = hazard + 2.3 * np.stack(
            [np.cos(np.arange(20.0)), np.sin(np.arange(20.0))], axis=1)
        obs[-1] = hazard
        g = goals[rng.integers(len(goals), size=n)]
        # rows sitting on their goal, exactly and within 1e-9
        g[-6:-3] = obs[-6:-3]
        g[-3:-1] = obs[-3:-1] + 1e-10
        return env, obs, g

    @staticmethod
    def _branch(pol, p):
        to_goal = pol.goal - p
        dg = float(np.linalg.norm(to_goal))
        if dg < 1e-9:
            return "goal"
        vc = pol.hazard - p
        d = float(np.linalg.norm(vc))
        if d <= pol.avoid:
            return "inside" if d > 1e-9 else "center"
        return "blocked" if pol._blocked(to_goal / dg, dg, vc, d) else "straight"

    @pytest.mark.parametrize("jitter", [0.1, 0.0])
    def test_act_rows_is_act_per_row(self, jitter):
        env, obs, goals = self._rows()
        hz, hr = env.cfg["hazard_center"], env.cfg["hazard_radius"]
        rngs = [np.random.default_rng([12, i]) for i in range(len(obs))]
        got = DetourPolicy(goals, hz, hr, jitter=jitter).act_rows(obs, rngs)
        assert got.shape == obs.shape
        branches = set()
        for i, (p, g) in enumerate(zip(obs, goals)):
            pol = DetourPolicy(g, hz, hr, jitter=jitter)
            twin = np.random.default_rng([12, i])
            want = pol.act(p, twin)
            assert got[i].tobytes() == want.tobytes(), i
            assert rngs[i].bit_generator.state == twin.bit_generator.state
            branches.add(self._branch(pol, p))
        assert branches == {"goal", "inside", "center", "blocked", "straight"}
        # one goal for every row broadcasts
        pol = DetourPolicy(goals[0], hz, hr, jitter=0.0)
        assert np.array_equal(pol.act_rows(obs, rngs)[3], pol.act(obs[3], None))


def _serial_demos(cfg: TrainConfig, out: Path) -> tuple:
    """The dataset and manifest bytes of rolling cfg's demonstrations one
    run_episode at a time on the stage stream."""
    env = make_env(cfg.env, cfg.env_config)
    rng = np.random.default_rng(cfg.seed)
    mode = task_mode_for(cfg.env, "expert-gen")
    policy_for = RECIPES[cfg.env].experts(env, cfg, rng, mode)
    trajs, goals = [], []
    for _ in range(cfg.n_experts):
        task = env.sample_task(rng, mode)
        tau, goal = run_episode(env, policy_for(task.goal), task, rng)
        trajs.append(tau)
        goals.append(goal)
    m = rollout_metrics(env, trajs, goals)
    write_dataset(out, trajs)
    cv_limit = env.eps_scalar * cfg.safety_margin
    manifest = {"v": 1, "env": cfg.env, "seed": cfg.seed, "n_trajectories": len(trajs),
                "rr": m.rr, "cr": [float(v) for v in m.cr], "cv": m.cv,
                "goal_rate": m.goal_rate, "budget": env.eps_scalar,
                "cv_limit": cv_limit, "certified": True}
    return out.read_bytes(), json.dumps(manifest, sort_keys=True, indent=1) + "\n"


class TestExpertDemos:
    """Demonstrations run in lockstep where the env and expert allow it; the
    experts that draw nothing per step must write what the serial loop did."""

    MC_BENCH = {"cem_samp": 24, "cem_elite": 4, "cem_iter": 1, "controller_std0": 0.5}

    @pytest.mark.parametrize("env_name,over", [
        ("mountain_car", {"seed": 700, **MC_BENCH}),
        ("mountain_car", {"seed": 701, **MC_BENCH}),
        ("cartpole", {"env_config": ENV_SMALL["cartpole"], **CEM_SMALL}),
        ("intersection", {"n_experts": 12, "env_config": ENV_SMALL["intersection"],
                          **CEM_SMALL}),
    ])
    def test_demos_match_the_serial_loop(self, tmp_path, env_name, over):
        cfg = TrainConfig.for_env(env_name, "expert-gen", **over)
        res = generate_experts(cfg, tmp_path / "exp")
        dataset, manifest = _serial_demos(cfg, tmp_path / "serial.jsonl")
        assert res["dataset"].read_bytes() == dataset
        assert res["manifest"].read_text() == manifest

    def test_nav_demos_are_run_episode_per_child_stream(self, tmp_path):
        cfg = TrainConfig.for_env("basic_nav", "expert-gen", seed=4)
        res = generate_experts(cfg, tmp_path / "exp")
        env = make_env("basic_nav")
        rng = np.random.default_rng(4)
        children = np.random.default_rng(4).spawn(cfg.n_experts)
        trajs, lens = [], []
        for child in children:
            task = env.sample_task(rng, "il")
            pol = DetourPolicy(task.goal, env.cfg["hazard_center"],
                               env.cfg["hazard_radius"])
            tau, goal = run_episode(env, pol, task, child)
            assert goal
            trajs.append(tau)
            lens.append(len(tau))
        write_dataset(tmp_path / "want.jsonl", trajs)
        assert res["dataset"].read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        # rows end at different steps while the others keep going
        assert len(set(lens)) > 1 and max(lens) < env.horizon

    def test_nav_certifies_on_seeds_0_to_19(self, tmp_path):
        for seed in range(20):
            cfg = TrainConfig.for_env("basic_nav", "expert-gen", seed=seed)
            res = generate_experts(cfg, tmp_path / str(seed))
            man = check_expert_manifest(res["dataset"])
            assert man["certified"] is True and man["cv"] <= man["cv_limit"]


class TestExpertCertification:
    def test_missing_manifest_refused(self, tmp_path):
        path = tmp_path / "experts.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match="manifest"):
            check_expert_manifest(path)

    def test_uncertified_refused(self, tmp_path):
        path = tmp_path / "experts.jsonl"
        path.write_text("")
        expert_manifest_path(path).write_text(json.dumps({"certified": False}))
        with pytest.raises(ConfigError, match="not certified"):
            check_expert_manifest(path)

    def test_safe_il_requires_certification(self, tmp_path):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(0)
        data = write_certified_dataset(tmp_path, env, rng)
        expert_manifest_path(data).write_text(json.dumps({"certified": False}))
        cfg = nav_cfg("safe-il", env_steps=100)
        with pytest.raises(ConfigError, match="not certified"):
            safe_il(cfg, data, tmp_path / "out")

    def test_infeasible_expert_writes_nothing(self, tmp_path):
        # hazard parked on the start pad: every episode must violate
        cfg = TrainConfig.for_env(
            "basic_nav", "expert-gen", seed=0, n_experts=3,
            env_config={"horizon": 40, "hazard_center": [0.5, 0.5]})
        out = tmp_path / "exp"
        with pytest.raises(ExpertInfeasibleError, match="refusing"):
            generate_experts(cfg, out)
        assert not (out / "experts.jsonl").exists()
        assert not expert_manifest_path(out / "experts.jsonl").exists()

    def test_feasible_expert_writes_manifest(self, tmp_path):
        cfg = TrainConfig.for_env("basic_nav", "expert-gen", seed=0,
                                  n_experts=3, env_config=NAV_SMALL)
        res = generate_experts(cfg, tmp_path / "exp")
        man = check_expert_manifest(res["dataset"])
        assert man["certified"] is True
        assert man["n_trajectories"] == 3
        assert man["cv"] <= man["cv_limit"]


class TestPumpCem:
    """mountain_car's expert search runs every candidate x seed episode as
    one array loop; it must rank exactly as one run_episode per pair."""

    @pytest.mark.parametrize("tail", [True, False])
    def test_batched_objective_matches_episode_loop(self, tail):
        env = make_env("mountain_car")
        cfg = TrainConfig.for_env("mountain_car", "expert-gen", cem_eval_episodes=4)
        thresholds = np.atleast_1d(env.eps) * cfg.expert_eps_frac
        counter = [0]
        objective = _cem_objective(env, cfg, np.random.default_rng(5), "tl",
                                   thresholds, count_steps=counter,
                                   make_policy=PumpPolicy, episode_tail=tail)
        cand = np.random.default_rng(6).normal(0.0, 0.8, (10, 2))
        rewards, viols = objective(cand)

        seed_rng = np.random.default_rng(5)
        seeds = [int(seed_rng.integers(2 ** 31 - 1)) for _ in range(4)]
        want_r, want_v, lens = [], [], []
        for gains in cand:
            rs, rates = [], []
            for s in seeds:
                erng = np.random.default_rng(s)
                tau, _ = run_episode(env, PumpPolicy(gains),
                                     env.sample_task(erng, "tl"), erng)
                rs.append(float(tau.extrinsic_rewards.sum()))
                rates.append(tau.cost_features.mean(axis=0))
                lens.append(len(tau))
            agg = np.max(rates, axis=0) if tail else np.mean(rates, axis=0)
            want_r.append(float(np.mean(rs)))
            want_v.append(np.maximum(0.0, agg - thresholds))
        assert np.array_equal(rewards, want_r)
        assert np.array_equal(viols, want_v)
        assert counter[0] == sum(lens)
        # the candidates cover goals, timeouts and violations
        assert min(lens) < env.horizon == max(lens)
        assert np.any(viols > 0.0) and np.any(viols == 0.0)

    def test_gains_rows_are_act_per_row(self):
        # the lockstep search steps one PumpPolicy that holds a gains row
        # per observation row; each row must act as its own PumpPolicy
        rng = np.random.default_rng(8)
        n = 400
        gains = rng.normal(0.0, 1.0, (n, 2))
        brake = PumpPolicy.BRAKE_MID + gains[:, 0] * PumpPolicy.BRAKE_SPAN
        cap = PumpPolicy.CAP_MID + gains[:, 1] * PumpPolicy.CAP_SPAN
        obs = np.stack([brake + rng.normal(0.0, 0.1, n),
                        -cap + rng.normal(0.0, 0.01, n)], axis=1)
        # rows exactly on the brake line and on the retreat cap
        obs[:10, 0], obs[10:20, 1] = brake[:10], -cap[10:20]
        pol = PumpPolicy(np.zeros(2))
        pol.gains = gains
        got = pol.act_rows(obs, None)
        sides = set()
        for i, (x, v) in enumerate(obs):
            want = PumpPolicy(gains[i]).act(obs[i], None)
            assert got[i:i + 1].tobytes() == want.tobytes(), i
            sides.add((bool(v >= 0.0), bool(x <= brake[i]), bool(v <= -cap[i])))
        assert {(False, b, c) for b in (True, False) for c in (True, False)} <= sides
        assert (True, False, False) in sides

    def test_expert_gen_repeats_at_benchmark_sizes(self, tmp_path):
        cfg = TrainConfig.for_env("mountain_car", "expert-gen", seed=700,
                                  cem_samp=24, cem_elite=4, cem_iter=1,
                                  controller_std0=0.5)
        runs = [generate_experts(cfg, tmp_path / tag) for tag in "ab"]
        assert check_expert_manifest(runs[0]["dataset"])["certified"] is True
        for key in ("dataset", "manifest"):
            assert runs[0][key].read_bytes() == runs[1][key].read_bytes()


class TestBalanceCem:
    """cartpole's expert is a CEM-searched linear balancing controller."""

    def test_act_is_clipped_linear_feedback(self):
        obs = np.array([0.1, -0.2, 0.05, 0.3])
        a = BalancePolicy(np.zeros(4)).act(obs, None)
        assert a.shape == (1,)
        assert a[0] == pytest.approx(float(BalancePolicy.MID @ obs))
        gains = np.array([1.0, -1.0, 0.5, 2.0])
        k = BalancePolicy.MID + BalancePolicy.SPAN * gains
        assert BalancePolicy(gains).act(obs, None)[0] == pytest.approx(float(k @ obs))
        assert BalancePolicy(np.zeros(4)).act(10.0 * np.ones(4), None)[0] == 1.0
        assert BalancePolicy(np.zeros(4)).act(-10.0 * np.ones(4), None)[0] == -1.0

    def test_expert_gen_certifies_and_repeats(self, tmp_path):
        # every seed of 0-39 certifies at these sizes; at 8 x 2 x 1 x 2 nine
        # of those forty do not
        sizes = {"cem_samp": 16, "cem_elite": 4, "cem_iter": 1, "cem_eval_episodes": 3}
        runs = []
        for seed in range(3):
            cfg = TrainConfig.for_env("cartpole", "expert-gen", seed=seed, **sizes)
            assert make_env("cartpole", cfg.env_config).horizon == 400
            res = generate_experts(cfg, tmp_path / str(seed))
            assert check_expert_manifest(res["dataset"])["certified"] is True
            runs.append(res)
        again = generate_experts(TrainConfig.for_env("cartpole", "expert-gen", seed=0,
                                                     **sizes), tmp_path / "again")
        for key in ("dataset", "manifest"):
            assert again[key].read_bytes() == runs[0][key].read_bytes()


class TestSafeIl:
    def _run(self, tmp_path, seed=0, **over):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(99)
        data = write_certified_dataset(tmp_path, env, rng)
        over.setdefault("env_steps", 200)
        cfg = nav_cfg("safe-il", n_rollouts=2, constraint_steps=2,
                      seed=seed, **over)
        return cfg, safe_il(cfg, data, tmp_path / f"il_{seed}_{len(over)}")

    def test_record_structure_and_budget(self, tmp_path):
        cfg, res = self._run(tmp_path)
        assert res["constraint"].exists()
        assert res["policy"].exists()
        recs = res["records"]
        assert recs, "no iterations ran"
        for rec in recs:
            assert set(rec) >= {"iteration", "env_steps", "rr", "cr", "cv",
                                "se", "kappa", "kappa_tilde", "dkl", "lambda"}
        # budget holds within one episode batch
        assert recs[-1]["env_steps"] >= cfg.env_steps
        assert recs[-1]["env_steps"] <= cfg.env_steps + 2 * 60
        steps = [r["env_steps"] for r in recs]
        assert steps == sorted(steps)

    def test_metrics_file_matches_records(self, tmp_path):
        _, res = self._run(tmp_path)
        assert read_metrics(res["metrics"]) == json.loads(
            json.dumps(res["records"]))

    def test_reproducible_logs(self, tmp_path):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(99)
        data = write_certified_dataset(tmp_path, env, rng)
        cfg = nav_cfg("safe-il", env_steps=150, n_rollouts=2,
                      constraint_steps=2, seed=4)
        r1 = safe_il(cfg, data, tmp_path / "a")
        r2 = safe_il(cfg, data, tmp_path / "b")
        assert hash_file(r1["metrics"]) == hash_file(r2["metrics"])
        assert hash_file(r1["constraint"]) == hash_file(r2["constraint"])
        assert hash_file(r1["policy"]) == hash_file(r2["policy"])

    def test_constraint_aborts_counted_per_iteration(self, tmp_path, monkeypatch):
        _, res = self._run(tmp_path)
        assert all(type(rec["constraint_aborts"]) is int and rec["constraint_aborts"] == 0
                   for rec in res["records"])
        # every one of an iteration's two constraint steps reports an abort
        monkeypatch.setattr("dial.trainer.constraint_update",
                            lambda *args, **kw: {"nan_aborted": True, "floored": 0})
        _, res = self._run(tmp_path, seed=1)
        assert [rec["constraint_aborts"] for rec in res["records"]] == [2] * len(res["records"])
        assert all(rec["constraint_aborts"] == 2 for rec in read_metrics(res["metrics"]))

    def test_constraint_floored_summed_per_iteration(self, tmp_path, monkeypatch):
        _, res = self._run(tmp_path)
        assert all(type(rec["constraint_floored"]) is int for rec in res["records"])
        # each of an iteration's two constraint steps reports 3 floored
        monkeypatch.setattr("dial.trainer.constraint_update",
                            lambda *args, **kw: {"nan_aborted": False, "floored": 3})
        _, res = self._run(tmp_path, seed=1)
        assert all(rec["constraint_floored"] == 6 for rec in read_metrics(res["metrics"]))

    def test_policy_aborts_logged(self, tmp_path, monkeypatch):
        _, res = self._run(tmp_path)
        assert all(type(rec["policy_aborted"]) is int and rec["policy_aborted"] == 0
                   for rec in res["records"])
        monkeypatch.setattr("dial.trainer.safe_il_policy_step",
                            lambda *args, **kw: {"nan_aborted": True,
                                                 "inner_steps": 0, "dkls": []})
        _, res = self._run(tmp_path, seed=1)
        assert [rec["policy_aborted"] for rec in res["records"]] == [1] * len(res["records"])
        assert all(rec["policy_aborted"] == 1 for rec in read_metrics(res["metrics"]))

    def test_pinned_lambda_mode(self, tmp_path):
        _, res = self._run(tmp_path, lambda_mode="pinned", lam_pinned=1.0)
        assert all(rec["lambda"] == 1.0 for rec in res["records"])

    def test_uniform_lambda_varies(self, tmp_path):
        _, res = self._run(tmp_path, seed=1, env_steps=400)
        lams = [rec["lambda"] for rec in res["records"]]
        if len(lams) >= 2:
            assert len(set(lams)) > 1
        assert all(0.0 < l <= 1.0 for l in lams)


class TestSafeTl:
    def _setup(self, tmp_path):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(5)
        data = write_certified_dataset(tmp_path, env, rng)
        il_cfg = nav_cfg("safe-il", env_steps=150, n_rollouts=2,
                         constraint_steps=2)
        il = safe_il(il_cfg, data, tmp_path / "il")
        return il

    def test_constraint_frozen_byte_identical(self, tmp_path):
        il = self._setup(tmp_path)
        before = hash_file(il["constraint"])
        cfg = nav_cfg("safe-tl", env_steps=200, n_rollouts=2)
        res = safe_tl(cfg, il["constraint"], il["policy"], tmp_path / "tl")
        assert hash_file(il["constraint"]) == before
        assert res["records"]
        for rec in res["records"]:
            assert rec["lambda"] == cfg.lam

    def test_dim_mismatch_rejected(self, tmp_path):
        il = self._setup(tmp_path)
        cfg = TrainConfig.for_env("cartpole", "safe-tl", env_steps=100,
                                  n_rollouts=1)
        with pytest.raises(ConfigError, match="do not match"):
            safe_tl(cfg, il["constraint"], None, tmp_path / "tl_bad")

    def test_mode_mismatch_rejected(self, tmp_path):
        # checked before the dims, which a threshold model does not carry
        thr, beta = tmp_path / "thr.ckpt", tmp_path / "beta.ckpt"
        ConstraintModel(2, 2, mode=THRESHOLD).save(thr)
        ConstraintModel(2, 2, hidden=8).save(beta)
        for env_name, path, given in (("basic_nav", thr, THRESHOLD),
                                      ("intersection", beta, PER_STEP_BETA)):
            cfg = TrainConfig.for_env(env_name, "safe-tl", env_steps=100,
                                      n_rollouts=1)
            with pytest.raises(ConfigError, match=given):
                safe_tl(cfg, path, None, tmp_path / "tl_bad")

    def test_fresh_policy_when_no_warm_start(self, tmp_path):
        il = self._setup(tmp_path)
        cfg = nav_cfg("safe-tl", env_steps=120, n_rollouts=2)
        res = safe_tl(cfg, il["constraint"], None, tmp_path / "tl_fresh")
        assert (tmp_path / "tl_fresh" / "policy.ckpt").exists()
        assert res["records"][-1]["env_steps"] >= cfg.env_steps

    def test_policy_aborts_logged(self, tmp_path, monkeypatch):
        il = self._setup(tmp_path)
        cfg = nav_cfg("safe-tl", env_steps=120, n_rollouts=2)
        res = safe_tl(cfg, il["constraint"], il["policy"], tmp_path / "tl_ok")
        assert all(type(rec["policy_aborted"]) is int and rec["policy_aborted"] == 0
                   for rec in res["records"])
        monkeypatch.setattr("dial.trainer.ppo_lagrange_update",
                            lambda *args, **kw: {"nan_aborted": True,
                                                 "kappa_tilde": 0.0})
        res = safe_tl(cfg, il["constraint"], il["policy"], tmp_path / "tl_nan")
        assert [rec["policy_aborted"] for rec in res["records"]] == [1] * len(res["records"])
        assert all(rec["policy_aborted"] == 1 for rec in read_metrics(res["metrics"]))

    def test_reproducible(self, tmp_path):
        il = self._setup(tmp_path)
        cfg = nav_cfg("safe-tl", env_steps=120, n_rollouts=2, seed=8)
        r1 = safe_tl(cfg, il["constraint"], il["policy"], tmp_path / "t1")
        r2 = safe_tl(cfg, il["constraint"], il["policy"], tmp_path / "t2")
        assert hash_file(r1["metrics"]) == hash_file(r2["metrics"])
        assert hash_file(r1["policy"]) == hash_file(r2["policy"])


class TestCostAudit:
    def _tau(self):
        return Trajectory(states=np.zeros((4, 2)), actions=np.zeros((4, 2)),
                          extrinsic_rewards=np.zeros(4),
                          cost_features=np.zeros((4, 1)))

    def test_guarded_trips_on_cost_read(self):
        guarded = _guarded([self._tau()])[0]
        with COST_AUDIT:
            assert COST_AUDIT.touched == 0
            _ = guarded.states
            _ = guarded.actions
            _ = guarded.extrinsic_rewards
            assert COST_AUDIT.touched == 0
            _ = guarded.cost_features
            assert COST_AUDIT.touched == 1
        # disarmed outside the block
        _ = guarded.cost_features
        with COST_AUDIT:
            assert COST_AUDIT.touched == 0

    def test_leaky_update_raises(self, tmp_path):
        # a deliberately cost-reading "update" must be caught the same way
        # the transfer loop catches one
        guarded = _guarded([self._tau()])

        def leaky_update(batch):
            return sum(float(t.cost_features.sum()) for t in batch)

        with COST_AUDIT:
            leaky_update(guarded)
            touched = COST_AUDIT.touched
        assert touched > 0

    def test_guarded_preserves_values(self):
        rng = np.random.default_rng(0)
        tau = Trajectory(states=rng.standard_normal((3, 2)),
                         actions=rng.standard_normal((3, 2)),
                         extrinsic_rewards=rng.standard_normal(3),
                         cost_features=rng.random((3, 1)))
        g = _guarded([tau])[0]
        assert np.array_equal(g.states, tau.states)
        assert np.array_equal(g.cost_features, tau.cost_features)
        assert g.task is tau.task


@pytest.mark.parametrize("env_name", sorted(RECIPES))
class TestRecipes:
    """Every RECIPES row through every stage, at tiny sizes."""

    def test_expert_gen_repeats(self, tmp_path, env_name):
        cfg = TrainConfig.for_env(env_name, "expert-gen", seed=0, n_experts=3,
                                  env_config=ENV_SMALL[env_name], **CEM_SMALL)
        outcomes = []
        for run in ("a", "b"):
            out = tmp_path / run
            try:
                res = generate_experts(cfg, out)
                outcomes.append((res["dataset"].read_bytes(),
                                 res["manifest"].read_bytes()))
            except ExpertInfeasibleError as exc:
                assert not list(out.iterdir())
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_stages(self, tmp_path, env_name):
        ec = ENV_SMALL[env_name]
        data = write_certified_dataset(tmp_path, make_env(env_name, ec),
                                       np.random.default_rng(99))
        mode = THRESHOLD if RECIPES[env_name].driving else PER_STEP_BETA

        def run(tag):
            il_cfg = TrainConfig.for_env(env_name, "safe-il", seed=3, env_steps=300,
                                         n_rollouts=2, constraint_steps=2,
                                         env_config=ec, **CEM_SMALL)
            il = safe_il(il_cfg, data, tmp_path / tag / "il")
            assert ConstraintModel.load(il["constraint"]).mode == mode
            before = hash_file(il["constraint"])
            tl_cfg = TrainConfig.for_env(env_name, "safe-tl", seed=4, env_steps=300,
                                         n_rollouts=2, env_config=ec, **CEM_SMALL)
            tl = safe_tl(tl_cfg, il["constraint"], il["policy"], tmp_path / tag / "tl")
            assert hash_file(il["constraint"]) == before
            for cfg, res in ((il_cfg, il), (tl_cfg, tl)):
                assert res["records"][-1]["env_steps"] >= cfg.env_steps
                assert all(rec["policy_aborted"] == 0 for rec in res["records"])
            ev_cfg = TrainConfig.for_env(env_name, "eval", seed=5, eval_episodes=3,
                                         env_config=ec)
            metrics, detail = evaluate(ev_cfg, load_policy(tl["policy"]))
            assert len(detail) == 3
            return ([hash_file(p) for p in (il["constraint"], il["policy"],
                                            il["metrics"], tl["policy"],
                                            tl["metrics"])]
                    + [metrics.to_dict(), detail])

        first = run("a")
        if env_name == "intersection":
            assert run("b") == first


def test_benchmark_hooks_resolve(monkeypatch, tmp_path):
    """perfbench/ patches dial functions by name, measures their calls from
    their arguments and builds its workloads' configs through
    TrainConfig.for_env; all three must survive refactors."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs
    import spans
    from dial import constraint, entropy, trainer
    from dial.betarisk import RiskLevel
    rng = np.random.default_rng(0)
    model = ConstraintModel(2, 1, hidden=4, rng=rng)
    taus = [Trajectory(rng.normal(size=(n, 2)), rng.normal(size=(n, 1)),
                       np.zeros(n), np.zeros((n, 1))) for n in (3, 5)]
    tracer = spans.Tracer(0)
    try:
        tracer.install()
        constraint.gamma_criterion(model, taus, RiskLevel(0.5))
        prev = constraint.gamma_criterion(model, taus, RiskLevel(1.0))
        constraint.constraint_update(model, taus[:1], taus, RiskLevel(0.5),
                                     kl_weight=1.0, prior=BetaParams(0.1, 0.9),
                                     prev_gamma=prev, opt=Sgd(1e-2))
        entropy.KnnGraph(entropy.ParticleSet(rng.normal(size=(12, 2))), 4)
        env = make_env("basic_nav", NAV_SMALL)
        policy = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 4, rng)
        trajs, _, steps = trainer.collect_rollouts(env, policy, 3, rng)
    finally:
        tracer.uninstall()
    counts = {}
    for i, c in zip(tracer.name, tracer.count):
        counts.setdefault(tracer.names[i], []).append(c)
    # the third criterion call is importance_weights' own, at lam = 1
    assert counts["constraint.gamma_criterion"] == [0, 0, 0]
    assert counts["constraint.constraint_update"] == [11]
    assert counts["constraint.importance_weights"] == [0]
    assert counts["entropy.KnnGraph"] == [12]
    assert counts["trainer.run_episode"] == [len(t) for t in trajs]
    assert len(counts["envs.step"]) == steps == sum(len(t) for t in trajs)
    assert trainer.dial_threads() == 1
    # lockstep evaluation runs no run_episode; the per-episode path still does
    for env_name, episodes in (("basic_nav", 3), ("cartpole", 2)):
        env = make_env(env_name, ENV_SMALL[env_name])
        policy = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 4, rng)
        cfg = TrainConfig.for_env(env_name, "eval", eval_episodes=episodes,
                                  env_config=ENV_SMALL[env_name])
        tracer = spans.Tracer(0)
        try:
            tracer.install()
            trainer.evaluate(cfg, policy)
        finally:
            tracer.uninstall()
        names = [tracer.names[i] for i in tracer.name]
        assert names.count("trainer.evaluate") == 1
        assert names.count("trainer.run_episode") == (
            0 if env_name == "basic_nav" else episodes)
    # nor do lockstep demonstrations
    tracer = spans.Tracer(0)
    try:
        tracer.install()
        trainer.generate_experts(nav_cfg("expert-gen", n_experts=3), tmp_path)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("trainer.generate_experts") == 1
    assert names.count("trainer.run_episode") == names.count("envs.step") == 0
    for spec in inputs.WORKLOADS.values():
        for stage in inputs.STAGES:
            TrainConfig.for_env(spec["env"], inputs.CFG_STAGE[stage], **spec[stage])
