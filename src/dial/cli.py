"""Command-line surface: train, evaluate, and export from one entry point.

Every subcommand reads a JSON config, honors --seed and --out-dir, and
finishes by writing a run manifest listing each produced file with its
hash. Exit codes: 0 success, 2 bad config or arguments, 3 runtime failure,
64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .betarisk import RiskLevel
from .constraint import constraint_values
from .dataio import DataFormatError, RunManifest, write_grid_csv, write_metrics
from .envs import make_env
from .trainer import (
    ConfigError,
    ExpertInfeasibleError,
    TrainConfig,
    check_policy,
    collect_rollouts,
    evaluate,
    generate_experts,
    load_constraint,
    load_policy,
    safe_il,
    safe_tl,
    sweep_lambda,
    task_mode_for,
)

COMMANDS = ("gen-experts", "train-il", "train-tl", "eval",
            "export-constraint-map", "export-visitation-map", "sweep-lambda")

USAGE = """usage: dial <command> [options]

commands:
  gen-experts            build certified expert controllers, write demonstrations
  train-il               learn the constraint model and exploration policy
  train-tl               optimize a target task under the frozen constraint
  eval                   run evaluation episodes for a policy checkpoint
  export-constraint-map  inferred risk over the state grid as CSV
  export-visitation-map  visit counts of a policy over the state grid as CSV
  sweep-lambda           short transfer runs across risk levels

common options:
  --config PATH   JSON file of run settings (env, budgets, rates, ...)
  --env NAME      environment, overrides the config file
  --seed N        master seed, overrides the config file
  --out-dir PATH  output directory (default .)

run `dial <command> --help` for the options of one command.
"""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _build_cfg(args, stage: str) -> TrainConfig:
    data = _load_config(args.config)
    data.pop("stage", None)
    env = args.env or data.pop("env", None)
    if env is None:
        raise ConfigError("no environment: pass --env or put 'env' in the config")
    if not isinstance(env, str):
        raise ConfigError(f"'env' must be a string, got {type(env).__name__}")
    data.pop("env", None)
    if args.seed is not None:
        data["seed"] = args.seed
    return TrainConfig.for_env(env, stage, **data)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--env", help="environment name (overrides config)")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--out-dir", default=".", help="output directory")


def _parser(cmd: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=f"dial {cmd}")
    _common_flags(p)
    if cmd == "train-il":
        p.add_argument("--experts", required=True,
                       help="expert dataset (JSON-lines) with its manifest")
    if cmd in ("train-tl", "export-constraint-map", "sweep-lambda"):
        p.add_argument("--constraint", required=True,
                       help="constraint model checkpoint")
    if cmd in ("train-tl", "sweep-lambda"):
        p.add_argument("--policy", help="warm-start policy checkpoint")
    if cmd in ("eval", "export-visitation-map"):
        p.add_argument("--policy", required=True, help="policy checkpoint")
    if cmd == "export-constraint-map":
        p.add_argument("--risk-level", type=float, default=0.5,
                       help="lambda at which to evaluate the risk")
    return p


def _grid_header(what: str, env) -> str:
    """Grid CSV header: what the cells hold, then env's grid axes and bins."""
    (bx, by), lo, hi = env.grid_bins, env.grid_lo, env.grid_hi
    return (f"{what}; rows: axis 0 ({float(lo[0])!r}..{float(hi[0])!r}, {bx} bins), "
            f"cols: axis 1 ({float(lo[1])!r}..{float(hi[1])!r}, {by} bins)")


# ---------------------------------------------------------------------------
# command bodies; each returns {artifact name: path under out_dir}

def _cmd_gen_experts(args, out_dir: Path) -> tuple:
    cfg = _build_cfg(args, "expert-gen")
    res = generate_experts(cfg, out_dir)
    m = res["metrics"]
    print(f"experts: {cfg.n_experts} trajectories, RR {m.rr:.2f}, "
          f"CR {m.cr_total:.2f}, CV {m.cv:.3f}")
    return cfg, {"dataset": res["dataset"], "expert_manifest": res["manifest"]}


def _cmd_train_il(args, out_dir: Path) -> tuple:
    cfg = _build_cfg(args, "safe-il")
    res = safe_il(cfg, args.experts, out_dir)
    last = res["records"][-1] if res["records"] else {}
    print(f"safe-il: {len(res['records'])} iterations, "
          f"final SE {last.get('se', float('nan')):.3f}, "
          f"CV {last.get('cv', float('nan')):.3f}")
    return cfg, {"constraint": res["constraint"], "policy": res["policy"],
                 "metrics": res["metrics"]}


def _cmd_train_tl(args, out_dir: Path) -> tuple:
    cfg = _build_cfg(args, "safe-tl")
    res = safe_tl(cfg, args.constraint, args.policy, out_dir)
    last = res["records"][-1] if res["records"] else {}
    print(f"safe-tl: {len(res['records'])} iterations, "
          f"final RR {last.get('rr', float('nan')):.2f}, "
          f"CV {last.get('cv', float('nan')):.3f}")
    return cfg, {"policy": res["policy"], "metrics": res["metrics"]}


def _cmd_eval(args, out_dir: Path) -> tuple:
    cfg = _build_cfg(args, "eval")
    policy = load_policy(args.policy)
    check_policy(policy, make_env(cfg.env, cfg.env_config), args.policy)
    metrics, detail = evaluate(cfg, policy)
    payload = metrics.to_dict()
    payload["episodes"] = detail
    path = out_dir / "eval.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return cfg, {"eval": path}


def _cmd_export_constraint_map(args, out_dir: Path) -> tuple:
    cfg = _build_cfg(args, "eval")
    env = make_env(cfg.env, cfg.env_config)
    if env.state_dim != 2:
        raise ConfigError(
            f"constraint map needs a 2-d observation; '{cfg.env}' has "
            f"{env.state_dim}")
    model = load_constraint(args.constraint, env)
    bx, by = env.grid_bins
    lo = [float(v) for v in env.grid_lo]
    hi = [float(v) for v in env.grid_hi]
    xs = lo[0] + (np.arange(bx) + 0.5) * (hi[0] - lo[0]) / bx
    ys = lo[1] + (np.arange(by) + 0.5) * (hi[1] - lo[1]) / by
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    obs = np.stack([xx.ravel(), yy.ravel()], axis=1)
    risk = constraint_values(model, obs, np.zeros(env.action_dim),
                             RiskLevel(args.risk_level))
    grid = risk.reshape(bx, by)
    path = out_dir / "constraint_map.csv"
    write_grid_csv(path, grid, _grid_header(
        f"inferred risk at lambda={args.risk_level!r}", env))
    print(f"wrote {bx}x{by} risk map to {path}")
    return cfg, {"constraint_map": path}


def _cmd_export_visitation_map(args, out_dir: Path) -> tuple:
    cfg = _build_cfg(args, "eval")
    env = make_env(cfg.env, cfg.env_config)
    policy = load_policy(args.policy)
    check_policy(policy, env, args.policy)
    rng = np.random.default_rng(cfg.seed)
    mode = task_mode_for(cfg.env, "eval")
    trajs, _, _ = collect_rollouts(env, policy, cfg.eval_episodes, rng, mode)
    grid = env.grid()
    for tau in trajs:
        grid.add(env.project(tau.states))
    path = out_dir / "visitation_map.csv"
    write_grid_csv(path, grid.counts, _grid_header(
        f"visit counts over {cfg.eval_episodes} episodes", env))
    print(f"wrote visit counts ({grid.bins[0]}x{grid.bins[1]}, "
          f"{cfg.eval_episodes} episodes) to {path}")
    return cfg, {"visitation_map": path}


def _cmd_sweep_lambda(args, out_dir: Path) -> tuple:
    cfg = _build_cfg(args, "safe-tl")
    res = sweep_lambda(cfg, args.constraint, args.policy, out_dir)
    for row in res["rows"]:
        print(f"lambda {row['lambda']:.1f}: RR {row['rr']:.2f} "
              f"CR {row['cr_total']:.2f} CV {row['cv']:.3f}")
    return cfg, {"sweep": res["sweep"]}


_HANDLERS = {
    "gen-experts": _cmd_gen_experts,
    "train-il": _cmd_train_il,
    "train-tl": _cmd_train_tl,
    "eval": _cmd_eval,
    "export-constraint-map": _cmd_export_constraint_map,
    "export-visitation-map": _cmd_export_visitation_map,
    "sweep-lambda": _cmd_sweep_lambda,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE)
        return 0
    cmd = argv[0]
    if cmd not in _HANDLERS:
        sys.stderr.write(f"dial: unknown command '{cmd}'\n\n{USAGE}")
        return 64
    try:
        args = _parser(cmd).parse_args(argv[1:])
    except SystemExit as exc:
        # argparse already printed its message; --help lands here with 0
        return int(exc.code or 0)
    out_dir = Path(args.out_dir)
    started = time.monotonic()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg, artifacts = _HANDLERS[cmd](args, out_dir)
    except (ConfigError, DataFormatError) as exc:
        sys.stderr.write(f"dial {cmd}: {exc}\n")
        return 2
    except ExpertInfeasibleError as exc:
        sys.stderr.write(f"dial {cmd}: {exc}\n")
        return 3
    except Exception:
        sys.stderr.write(f"dial {cmd}: unexpected failure\n")
        traceback.print_exc()
        return 3
    manifest = RunManifest.build(
        stage=cmd, config=cfg.to_dict(), seeds=[cfg.seed],
        paths=artifacts, base_dir=out_dir,
        wall_clock_s=time.monotonic() - started)
    manifest.save(out_dir / "run_manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
