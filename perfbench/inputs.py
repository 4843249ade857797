"""Workload definitions and the set-up step that turns a seed into inputs.

Each workload is one closed-loop pipeline, gen-experts -> safe-il ->
safe-tl -> eval, on one environment.  Budgets sit far below the stage
defaults so that one pipeline round fits a few seconds, while safe-il
still runs several outer iterations and the experts still certify.

Run as a script, this module is the set-up probe: a fresh interpreter
imports dial, builds the stage configs, writes them to the run directory
and prints the CLOCK_MONOTONIC instant at which the first stage call would
start.  The caller measures set-up time from the moment it spawned it.

    python3 perfbench/inputs.py <workload> <seed> <run_dir>
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STAGES = ("expert", "il", "tl", "eval")
# TrainConfig stage names, in pipeline order
CFG_STAGE = {"expert": "expert-gen", "il": "safe-il", "tl": "safe-tl",
             "eval": "eval"}

# Why each workload exists is in perfbench/README.md; the sizes below are the
# whole make-up of its inputs apart from the seed.
WORKLOADS = {
    "mc_pipeline": {
        "env": "mountain_car",
        # the pump CEM picks an elite mean it never evaluated, and on some
        # seeds that mean crosses the red line (FOUND in CHANGES.md); a
        # narrower first proposal keeps it there less often
        "expert": {"cem_samp": 24, "cem_elite": 4, "cem_iter": 1,
                   "controller_std0": 0.5},
        "il": {"env_steps": 2400, "n_rollouts": 2, "constraint_steps": 3},
        "tl": {"env_steps": 6400, "n_rollouts": 4},
        "eval": {"eval_episodes": 20},
    },
    "nav_pipeline": {
        "env": "basic_nav",
        "expert": {},
        "il": {"env_steps": 7200, "n_rollouts": 2, "constraint_steps": 1,
               "batch_expert": 4},
        "tl": {"env_steps": 4800, "n_rollouts": 2},
        "eval": {"eval_episodes": 8},
    },
}


def import_dial():
    """Import dial from the checkout's src/; the caller handles ImportError."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from dial import trainer
    return trainer


def prepare(spec: dict, seed: int, run_dir: Path,
            train_seed: int | None = None) -> dict:
    """Build the four stage configs and write them as inputs.

    The expert stage runs at `seed`; safe-il, safe-tl and eval run at
    `train_seed`, which defaults to `seed`.
    """
    trainer = import_dial()
    if train_seed is None:
        train_seed = seed
    cfgs = {stage: trainer.TrainConfig.for_env(
                spec["env"], CFG_STAGE[stage],
                seed=seed if stage == "expert" else train_seed, **spec[stage])
            for stage in STAGES}
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "inputs.json", "w") as fh:
        json.dump({s: c.to_dict() for s, c in cfgs.items()}, fh,
                  sort_keys=True, indent=1)
        fh.write("\n")
    return cfgs


if __name__ == "__main__":
    name, seed, run_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    prepare(WORKLOADS[name], seed, run_dir)
    print(repr(time.monotonic()))
