"""End-to-end CLI tests: exit codes, file outputs, run manifests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dial.cli import main
from dial.constraint import ConstraintModel
from dial.dataio import RunManifest, read_grid_csv, read_metrics
from dial.policyopt import GaussianPolicy
from dial.trainer import ControllerPolicy

CFG = {"env": "basic_nav", "seed": 3, "env_steps": 150, "n_experts": 3,
       "n_rollouts": 2, "constraint_steps": 2,
       "eval_episodes": 2, "env_config": {"horizon": 60}}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """gen-experts -> train-il -> train-tl, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("chain")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CFG))
    assert main(["gen-experts", "--config", str(cfg_path),
                 "--out-dir", str(root / "exp")]) == 0
    assert main(["train-il", "--config", str(cfg_path),
                 "--experts", str(root / "exp" / "experts.jsonl"),
                 "--out-dir", str(root / "il")]) == 0
    assert main(["train-tl", "--config", str(cfg_path),
                 "--constraint", str(root / "il" / "constraint.ckpt"),
                 "--policy", str(root / "il" / "policy.ckpt"),
                 "--out-dir", str(root / "tl")]) == 0
    return {"root": root, "cfg": cfg_path,
            "experts": root / "exp" / "experts.jsonl",
            "constraint": root / "il" / "constraint.ckpt",
            "policy": root / "tl" / "policy.ckpt"}


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert main(["optimize-everything"]) == 64
        err = capsys.readouterr().err
        assert "unknown command" in err
        assert "usage:" in err

    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-experts" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert main(["train-il", "--help"]) == 0
        assert "--experts" in capsys.readouterr().out

    def test_missing_required_flag(self, capsys):
        # argparse reports missing --experts; config-style failure
        assert main(["train-il"]) == 2


class TestConfigErrors:
    def test_malformed_json_names_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"env": "basic_nav",')
        code = main(["eval", "--config", str(bad), "--policy", "x.ckpt",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["eval", "--config", str(tmp_path / "none.json"),
                     "--policy", "x.ckpt", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "none.json" in capsys.readouterr().err

    def test_no_env_given(self, tmp_path, capsys):
        code = main(["eval", "--policy", "x.ckpt", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "env" in capsys.readouterr().err

    def test_unknown_env(self, tmp_path):
        assert main(["eval", "--env", "gridworld", "--policy", "x.ckpt",
                     "--out-dir", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"env": "basic_nav", "warmup": 5}))
        assert main(["eval", "--policy", "x.ckpt", "--config", str(bad),
                     "--out-dir", str(tmp_path)]) == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["expert_steps", "crl_entropy"])
    def test_removed_expert_key(self, tmp_path, capsys, key):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"env": "cartpole", key: 300}))
        assert main(["gen-experts", "--config", str(old),
                     "--out-dir", str(tmp_path / "exp")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "exp" / "experts.jsonl").exists()

    @pytest.mark.parametrize("cmd,key,value", [
        ("train-il", "prior_alpha", [0, 1]),
        ("train-il", "prior_alpha", [1]),
        ("train-il", "lr_constraint", 0),
        ("train-il", "env_config", {"bogus": 1}),
        ("gen-experts", "env_config", {"bogus": 1}),
        ("eval", "eval_seeds", ["a"]),
        ("eval", "eval_seeds", 5),
        ("eval", "eval_seeds", [-1]),
        ("gen-experts", "seed", -1),
        ("gen-experts", "seed", "3"),
        ("gen-experts", "seed", 1.5),
        ("train-il", "lr_constraint", "a"),
        ("train-il", "env_steps", "a"),
        ("train-il", "n_rollouts", 2.5),
        ("gen-experts", "env_config", {"grid_bins": [0, 5]}),
        ("gen-experts", "env_config", {"goal_radius": "a"}),
        ("gen-experts", "env_config", {"train_goals": []}),
        ("gen-experts", "env_config", {"train_goals": [[1.0]]}),
        ("gen-experts", "env_config", {"hazard_center": [5.0]}),
        ("gen-experts", "env_config", {"horizon": "5"}),
        ("gen-experts", "env_config", {"horizon": True}),
        ("gen-experts", "env_config", {"horizon": 60.7}),
        ("gen-experts", "env_config", {"grid_bins": [2.5, 3]}),
        ("gen-experts --env intersection", "env_config", {"n_vehicles": 3.5}),
    ])
    def test_malformed_value(self, tmp_path, capsys, cmd, key, value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(CFG, **{key: value})))
        cmd, *flags = cmd.split()
        extra = {"train-il": ["--experts", str(tmp_path / "experts.jsonl")],
                 "eval": ["--policy", str(tmp_path / "x.ckpt")]}.get(cmd, [])
        assert main([cmd, "--config", str(p), "--out-dir", str(tmp_path / "out"),
                     *flags, *extra]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        if key == "env_config":
            assert all(name in err for name in value)

    def test_negative_seed_flag(self, tmp_path, capsys):
        assert main(["gen-experts", "--env", "basic_nav", "--seed", "-1",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_uncertified_experts_rejected(self, tmp_path, chain):
        data = tmp_path / "experts.jsonl"
        data.write_text(chain["experts"].read_text())
        (tmp_path / "experts.manifest.json").write_text(
            json.dumps({"certified": False}))
        assert main(["train-il", "--config", str(chain["cfg"]),
                     "--experts", str(data),
                     "--out-dir", str(tmp_path / "il")]) == 2


class TestRuntimeErrors:
    def test_infeasible_expert_exit_3(self, tmp_path, capsys):
        cfg = dict(CFG, env_config={"horizon": 40,
                                    "hazard_center": [0.5, 0.5]})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["gen-experts", "--config", str(p),
                     "--out-dir", str(tmp_path / "exp")]) == 3
        assert "refusing" in capsys.readouterr().err


class TestCheckpointFit:
    """Every command that takes a checkpoint checks it against the env
    before it runs, and names both shapes when they differ."""

    @staticmethod
    def _gaussian(path, obs_dim, action_dim):
        GaussianPolicy(obs_dim, -np.ones(action_dim), np.ones(action_dim), 8,
                       np.random.default_rng(0)).save(path)
        return path

    @pytest.mark.parametrize("cmd", ["eval", "export-visitation-map",
                                     "train-tl", "sweep-lambda"])
    @pytest.mark.parametrize("env,dims,want", [
        ("basic_nav", (4, 1), "(2, 2)"),       # a cartpole policy
        ("mountain_car", (2, 2), "(2, 1)"),    # a basic_nav policy
    ])
    def test_policy_dims(self, tmp_path, chain, capsys, cmd, env, dims, want):
        policy = self._gaussian(tmp_path / "p.ckpt", *dims)
        constraint = tmp_path / "c.ckpt"
        ConstraintModel(2, dict(basic_nav=2, mountain_car=1)[env], hidden=8).save(
            constraint)
        extra = ["--constraint", str(constraint)] if cmd in ("train-tl",
                                                            "sweep-lambda") else []
        out = tmp_path / "out"
        assert main([cmd, "--config", str(chain["cfg"]), "--env", env,
                     "--policy", str(policy), *extra, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "do not match" in err and str(dims) in err and want in err
        assert "Traceback" not in err
        assert not (out / "run_manifest.json").exists()

    def test_controller_gains(self, tmp_path, capsys):
        policy = tmp_path / "ctrl.ckpt"
        ControllerPolicy(np.zeros(3)).save(policy)
        assert main(["eval", "--env", "intersection", "--policy", str(policy),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "gains 3 do not match" in err and "5" in err

    def test_policy_kind(self, tmp_path, chain, capsys):
        policy = tmp_path / "ctrl.ckpt"
        ControllerPolicy(np.zeros(2)).save(policy)
        assert main(["eval", "--config", str(chain["cfg"]), "--policy", str(policy),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "GaussianPolicy" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,flag", [
        ("eval", "--policy"), ("export-visitation-map", "--policy"),
        ("train-tl", "--policy"), ("sweep-lambda", "--policy"),
        ("export-constraint-map", "--constraint"), ("train-tl", "--constraint"),
        ("sweep-lambda", "--constraint")])
    def test_wrong_kind(self, tmp_path, chain, capsys, cmd, flag):
        # a policy checkpoint where a constraint goes, and the reverse
        wrong = {"--policy": chain["constraint"], "--constraint": chain["policy"]}
        paths = ({"--policy": chain["policy"], "--constraint": chain["constraint"]}
                 if cmd in ("train-tl", "sweep-lambda") else {})
        paths[flag] = wrong[flag]
        args = [a for f, path in paths.items() for a in (f, str(path))]
        out = tmp_path / "out"
        assert main([cmd, "--config", str(chain["cfg"]), *args,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        found = "constraint" if flag == "--policy" else "policy"
        assert str(wrong[flag]) in err and f"a '{found}' checkpoint" in err
        assert "Traceback" not in err
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("bad", ["missing", "not_a_checkpoint"])
    @pytest.mark.parametrize("cmd,flag", [
        ("eval", "--policy"), ("export-visitation-map", "--policy"),
        ("train-tl", "--policy"), ("sweep-lambda", "--policy"),
        ("export-constraint-map", "--constraint"), ("train-tl", "--constraint"),
        ("sweep-lambda", "--constraint")])
    def test_unreadable_checkpoint(self, tmp_path, chain, capsys, cmd, flag, bad):
        path = tmp_path / f"{bad}.ckpt"
        if bad == "not_a_checkpoint":
            path.write_text("{}")
        paths = ({"--policy": chain["policy"], "--constraint": chain["constraint"]}
                 if cmd in ("train-tl", "sweep-lambda") else {})
        paths[flag] = path
        args = [a for f, p in paths.items() for a in (f, str(p))]
        out = tmp_path / "out"
        assert main([cmd, "--config", str(chain["cfg"]), *args,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("cmd", ["export-constraint-map", "train-tl",
                                     "sweep-lambda"])
    def test_constraint_dims(self, tmp_path, chain, capsys, cmd):
        constraint = tmp_path / "mc.ckpt"
        ConstraintModel(2, 1, hidden=8).save(constraint)
        out = tmp_path / "out"
        assert main([cmd, "--config", str(chain["cfg"]), "--constraint",
                     str(constraint), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "do not match" in err and "(2, 1)" in err and "(2, 2)" in err
        assert "Traceback" not in err
        assert not (out / "run_manifest.json").exists()


class TestEvalCommand:
    def test_metrics_schema(self, tmp_path, chain, capsys):
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(chain["cfg"]),
                     "--policy", str(chain["policy"]),
                     "--out-dir", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        payload = json.loads((out / "eval.json").read_text())
        for doc in (printed, payload):
            assert {"rr", "cr", "cv", "se"} <= set(doc)
        assert len(payload["episodes"]) == CFG["eval_episodes"]
        assert 0.0 <= payload["cv"] <= 1.0

    def test_seed_flag_overrides_config(self, tmp_path, chain):
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(chain["cfg"]),
                     "--policy", str(chain["policy"]), "--seed", "77",
                     "--out-dir", str(out)]) == 0
        man = RunManifest.load(out / "run_manifest.json")
        assert man.seeds == [77]

    def test_same_seed_same_output(self, tmp_path, chain):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["eval", "--config", str(chain["cfg"]),
                         "--policy", str(chain["policy"]),
                         "--out-dir", str(out)]) == 0
            payload = json.loads((out / "eval.json").read_text())
            outs.append(payload)
        assert outs[0] == outs[1]


class TestRunManifests:
    def test_every_stage_writes_verifiable_manifest(self, chain):
        for sub in ("exp", "il", "tl"):
            man = RunManifest.load(chain["root"] / sub / "run_manifest.json")
            assert man.artifacts, sub
            assert man.seeds == [CFG["seed"]]
            assert len(man.binary_version) == 16

    def test_train_il_lists_all_outputs(self, chain):
        man = RunManifest.load(chain["root"] / "il" / "run_manifest.json")
        assert set(man.artifacts) == {"constraint", "policy", "metrics"}

    def test_metrics_log_readable(self, chain):
        recs = read_metrics(chain["root"] / "tl" / "metrics.jsonl")
        assert recs
        assert {"iteration", "rr", "cr", "cv", "se"} <= set(recs[0])


class TestExports:
    def test_constraint_map_is_20_by_20(self, tmp_path, chain):
        out = tmp_path / "map"
        assert main(["export-constraint-map", "--config", str(chain["cfg"]),
                     "--constraint", str(chain["constraint"]),
                     "--out-dir", str(out)]) == 0
        grid = read_grid_csv(out / "constraint_map.csv")
        assert grid.shape == (20, 20)
        assert np.all((grid >= 0.0) & (grid <= 1.0))
        header = (out / "constraint_map.csv").read_text().splitlines()[0]
        assert header.startswith("#")
        assert "axis 0" in header and "axis 1" in header

    def test_constraint_map_risk_level_flag(self, tmp_path, chain):
        outs = []
        for lam in ("0.1", "0.9"):
            out = tmp_path / f"map{lam}"
            assert main(["export-constraint-map", "--config", str(chain["cfg"]),
                         "--constraint", str(chain["constraint"]),
                         "--risk-level", lam, "--out-dir", str(out)]) == 0
            outs.append(read_grid_csv(out / "constraint_map.csv"))
        assert not np.array_equal(outs[0], outs[1])

    def test_constraint_map_needs_2d_obs(self, tmp_path, chain, capsys):
        cfg = tmp_path / "cp.json"
        cfg.write_text(json.dumps({"env": "cartpole"}))
        assert main(["export-constraint-map", "--config", str(cfg),
                     "--constraint", str(chain["constraint"]),
                     "--out-dir", str(tmp_path)]) == 2
        assert "2-d" in capsys.readouterr().err

    def test_visitation_map_counts(self, tmp_path, chain):
        out = tmp_path / "vis"
        assert main(["export-visitation-map", "--config", str(chain["cfg"]),
                     "--policy", str(chain["policy"]),
                     "--out-dir", str(out)]) == 0
        grid = read_grid_csv(out / "visitation_map.csv")
        assert grid.shape == (20, 20)
        assert np.array_equal(grid, np.round(grid))
        total = grid.sum()
        assert 0 < total <= CFG["eval_episodes"] * 60
        # the constraint map's layout: both axes' ranges and bin counts
        header = (out / "visitation_map.csv").read_text().splitlines()[0]
        assert header.startswith("# visit counts over 2 episodes;")
        assert ("rows: axis 0 (0.0..10.0, 20 bins), "
                "cols: axis 1 (0.0..10.0, 20 bins)") in header


class TestSweep:
    def test_sweep_rows_cover_lambda_grid(self, tmp_path, chain):
        cfg = dict(CFG, env_steps=60, eval_episodes=1)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "sw"
        assert main(["sweep-lambda", "--config", str(p),
                     "--constraint", str(chain["constraint"]),
                     "--policy", str(chain["root"] / "il" / "policy.ckpt"),
                     "--out-dir", str(out)]) == 0
        rows = read_metrics(out / "sweep.jsonl")
        assert [r["lambda"] for r in rows] == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        for r in rows:
            assert {"rr", "cr", "cr_total", "cv", "se", "feasible"} <= set(r)
            assert r["feasible"] in (True, False)
        for lam in ("0.1", "0.9"):
            assert (out / f"lam_{lam}" / "policy.ckpt").exists()
