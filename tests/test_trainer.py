"""Orchestration tests: configs, rollout accounting, certification, stages.

Training runs here are deliberately tiny; they check structure, accounting,
and reproducibility rather than task performance.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

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
    safe_il,
    safe_tl,
    task_mode_for,
)

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
            Metrics(rr=0.0, cr=[0.0], cv=1.2, se=0.0)
        with pytest.raises(ValueError):
            Metrics(rr=0.0, cr=[0.0], cv=0.5, se=-0.1)

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
        tau, info = run_episode(env, pol, env.sample_task(rng, "il"), rng)
        assert 1 <= len(tau) <= env.horizon
        assert tau.states.shape == (len(tau), env.state_dim)
        assert tau.actions.shape == (len(tau), env.action_dim)
        assert tau.cost_features.shape == (len(tau), env.cost_dim)
        assert isinstance(info["goal"], bool)

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
        trajs, infos, _ = collect_rollouts(env, pol, 7, rng, "il")
        assert len(trajs) == 7
        assert len(infos) == 7

    def test_rollout_metrics_hand_values(self):
        env = make_env("basic_nav", NAV_SMALL)
        t = 10
        mk = lambda rew, rate: Trajectory(
            states=np.full((t, 2), 5.0), actions=np.zeros((t, 2)),
            extrinsic_rewards=np.full(t, rew),
            cost_features=np.full((t, 1), rate))
        hot = mk(1.0, 1.0)       # rate 1 > eps, violating
        cold = mk(3.0, 0.0)      # clean
        m = rollout_metrics(env, [hot, cold])
        assert m.rr == pytest.approx((10.0 + 30.0) / 2)
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
        m = rollout_metrics(env, [tau])
        assert m.cv == 1.0
        assert m.feasible_reward is None

    def test_entropy_bounded_by_grid_size(self):
        env = make_env("basic_nav", NAV_SMALL)
        rng = np.random.default_rng(3)
        pol = GaussianPolicy(env.state_dim, env.action_low, env.action_high, 8, rng)
        trajs, infos, _ = collect_rollouts(env, pol, 5, rng, "il")
        m = rollout_metrics(env, trajs, infos)
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
                tau, info = run_episode(env, pol, env.sample_task(rng, mode), rng)
                expect.append({"seed": s, "episode": ep,
                               "rr": float(tau.extrinsic_rewards.sum()),
                               "cr": [float(v) for v in tau.cost_features.sum(axis=0)],
                               "len": len(tau), "goal": bool(info.get("goal"))})
        assert detail == expect

    def test_multi_seed_detail(self):
        cfg = nav_cfg("eval", eval_episodes=2, eval_seeds=[1, 2, 3])
        _, detail = evaluate(cfg, self._policy())
        assert len(detail) == 6
        assert sorted({row["seed"] for row in detail}) == [1, 2, 3]


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
        a, a_raw, _ = BalancePolicy(np.zeros(4)).act(obs, None)
        assert a.shape == (1,) and a is a_raw
        assert a[0] == pytest.approx(float(BalancePolicy.MID @ obs))
        gains = np.array([1.0, -1.0, 0.5, 2.0])
        k = BalancePolicy.MID + BalancePolicy.SPAN * gains
        assert BalancePolicy(gains).act(obs, None)[0][0] == pytest.approx(float(k @ obs))
        assert BalancePolicy(np.zeros(4)).act(10.0 * np.ones(4), None)[0][0] == 1.0
        assert BalancePolicy(np.zeros(4)).act(-10.0 * np.ones(4), None)[0][0] == -1.0

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
                            lambda *args, **kw: {"nan_aborted": True})
        _, res = self._run(tmp_path, seed=1)
        assert [rec["constraint_aborts"] for rec in res["records"]] == [2] * len(res["records"])
        assert all(rec["constraint_aborts"] == 2 for rec in read_metrics(res["metrics"]))

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


def test_benchmark_hooks_resolve(monkeypatch):
    """perfbench/ patches dial functions by name and builds its workloads'
    configs through TrainConfig.for_env; both must survive refactors."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs
    import spans
    tracer = spans.Tracer(0)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    from dial import trainer
    assert trainer.dial_threads() == 1
    for spec in inputs.WORKLOADS.values():
        for stage in inputs.STAGES:
            TrainConfig.for_env(spec["env"], inputs.CFG_STAGE[stage], **spec[stage])
