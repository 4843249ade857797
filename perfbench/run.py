"""Benchmark of the dial pipeline: gen-experts -> safe-il -> safe-tl -> eval.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process runs the workload's four stages in a closed loop,
each stage called only after the previous one returned, and repeats the
whole round until S seconds have passed (at least MIN_ROUNDS rounds).  The
expert stage runs at seed N in every round.  The first two rounds run all
stages at seed N and the second must write the same bytes as the first;
later rounds run safe-il, safe-tl and eval at seeds derived from N
(round_seed).  Stages
are timed around the calls into dial.trainer; set-up is timed in
SETUP_PROBES fresh interpreters.  Every round checks its outputs
(perfbench/checks.py).

--trace 0 prints the end-to-end metrics, each the median over rounds.
--trace 1 runs the first round untraced, traces the rest (perfbench/spans.py), prints the per-layer
metrics as medians over the traced rounds, checks sampled CVaR rows and
k-NN distances against scipy, and writes the spans to
perfbench/out/<workload>/trace.npz.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
An operation is one stage call.  Exit codes: 0 success, 1 a stage raised
or a check failed, 2 bad arguments or dial not importable.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import (
    check_cvar_samples,
    check_eval,
    check_experts,
    check_knn_samples,
    check_same_artifacts,
    check_stage_log,
    check_unchanged,
    env_budget,
    file_digest,
)
from inputs import STAGES, WORKLOADS, import_dial, prepare
from spans import PER_LAYER, Tracer, round_metrics

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_ROUNDS = 3

END_TO_END = [
    ("setup_s", "s"), ("pipeline_s", "s"), ("expert_s", "s"), ("il_s", "s"),
    ("tl_s", "s"), ("eval_s", "s"), ("il_env_steps_per_s", "steps/s"),
    ("tl_env_steps_per_s", "steps/s"), ("peak_rss_mb", "MB"),
]


def round_seed(seed: int, r: int) -> int:
    """Safe-il, safe-tl and eval seed of round r.  Inputs, and with them the
    work of a stage, vary from seed to seed; spreading a run's rounds over
    several seeds makes its medians depend less on which one seed the run
    was given.  The expert stage stays at the run's seed: mountain_car's
    pump CEM fails certification on some seeds (FOUND in CHANGES.md), and a
    run should fail only if the seed it was given is one of them."""
    if r < 2:
        return seed
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def setup_time(name: str, seed: int, run_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first stage call."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), name, str(seed), str(run_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def run_round(trainer, cfgs: dict, eps, rnd_dir: Path) -> dict:
    """One closed-loop pipeline; returns stage times, env steps, artifact
    digests and check errors."""
    if rnd_dir.exists():
        shutil.rmtree(rnd_dir)
    t0 = time.perf_counter()
    gen = trainer.generate_experts(cfgs["expert"], rnd_dir / "experts")
    t1 = time.perf_counter()
    il = trainer.safe_il(cfgs["il"], gen["dataset"], rnd_dir / "il")
    t2 = time.perf_counter()
    ckpt_digest = file_digest(il["constraint"])
    t2b = time.perf_counter()
    tl = trainer.safe_tl(cfgs["tl"], il["constraint"], il["policy"], rnd_dir / "tl")
    t3 = time.perf_counter()
    metrics, detail = trainer.evaluate(cfgs["eval"], trainer.load_policy(tl["policy"]))
    t4 = time.perf_counter()

    eval_json = rnd_dir / "eval.json"
    payload = metrics.to_dict()
    payload["episodes"] = detail
    with open(eval_json, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")

    cg, ci, ct = cfgs["expert"], cfgs["il"], cfgs["tl"]
    errors = check_experts(gen["dataset"], gen["manifest"], eps, cg.n_experts,
                           cg.safety_margin)
    il_err, il_steps = check_stage_log(il["metrics"], ci.env_steps, "safe-il")
    tl_err, tl_steps = check_stage_log(tl["metrics"], ct.env_steps, "safe-tl")
    errors += il_err + tl_err
    errors += check_unchanged(il["constraint"], ckpt_digest,
                              "safe-tl constraint checkpoint")
    n_eval = cfgs["eval"].eval_episodes * len(cfgs["eval"].eval_seeds or [0])
    errors += check_eval(eval_json, eps, n_eval)

    artifacts = [gen["dataset"], gen["manifest"], il["constraint"], il["policy"],
                 il["metrics"], tl["policy"], tl["metrics"], eval_json]
    times = {"expert": t1 - t0, "il": t2 - t1, "tl": t3 - t2b, "eval": t4 - t3}
    return {
        "times": times,
        "pipeline_s": sum(times.values()),
        "il_steps": il_steps,
        "tl_steps": tl_steps,
        "digests": {str(Path(p).relative_to(rnd_dir)): file_digest(p)
                    for p in artifacts},
        "errors": errors,
    }


def end_to_end(rounds: list, setups: list) -> dict:
    def med(key):
        return statistics.median(key(r) for r in rounds)

    vals = {
        "setup_s": statistics.median(setups),
        "pipeline_s": med(lambda r: r["pipeline_s"]),
        **{f"{s}_s": med(lambda r, s=s: r["times"][s]) for s in STAGES},
        # a log the checks could not read counts as no steps
        "il_env_steps_per_s": med(lambda r: (r["il_steps"] or 0) / r["times"]["il"]),
        "tl_env_steps_per_s": med(lambda r: (r["tl_steps"] or 0) / r["times"]["tl"]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": vals[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(layer_rounds: list) -> dict:
    return {name: {"value": statistics.median(r[name] for r in layer_rounds),
                   "unit": unit}
            for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        trainer = import_dial()
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import dial from src/ ({exc})\n")
        return 2
    from dial.envs import make_env

    spec = WORKLOADS[args.workload]
    out_dir = HERE / "out" / args.workload
    setups = [] if args.trace else [
        setup_time(args.workload, args.seed, out_dir / "setup")
        for _ in range(SETUP_PROBES)]
    eps = env_budget(make_env(spec["env"]).cfg)
    sys.stderr.write(f"perfbench: {args.workload} seed {args.seed}, "
                     f"evaluate threads {trainer.dial_threads()}\n")

    tracer = Tracer(args.seed) if args.trace else None
    rounds, layer_rounds, errors = [], [], []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        traced = tracer is not None and len(rounds) > 0
        lo = len(tracer) if traced else 0
        cfgs = prepare(spec, args.seed, out_dir,
                       train_seed=round_seed(args.seed, len(rounds)))
        if traced:
            tracer.install()
        try:
            r = run_round(trainer, cfgs, eps, out_dir / "round")
        except Exception as exc:
            sys.stderr.write(f"perfbench: round {len(rounds)} failed: "
                             f"{type(exc).__name__}: {exc}\n")
            return 1
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rounds.append(round_metrics(tracer, lo, len(tracer), r["pipeline_s"]))
        label = f"round {len(rounds)}" + (" (traced)" if traced else "")
        errors += [f"{label}: {e}" for e in r["errors"]]
        if len(rounds) == 1:
            errors += check_same_artifacts(r["digests"], rounds[0]["digests"], label)
        rounds.append(r)
        sys.stderr.write(f"perfbench: {label}: " + " ".join(
            f"{s} {t:.3f}s" for s, t in r["times"].items()) + "\n")

    if tracer is not None:
        cvar_errors, coarse = check_cvar_samples(tracer.cvar_samples)
        errors += cvar_errors + check_knn_samples(tracer.knn_samples)
        tracer.save(out_dir / "trace.npz")
        sys.stderr.write(f"perfbench: {len(tracer)} spans, "
                         f"{len(tracer.cvar_samples)} cvar ({coarse} with an "
                         f"unresolved quantile) and "
                         f"{len(tracer.knn_samples)} k-NN samples checked\n")
        metrics = per_layer(layer_rounds)
    else:
        metrics = end_to_end(rounds, setups)
    for e in errors:
        sys.stderr.write(f"perfbench: check failed: {e}\n")
    print(json.dumps({"correct": not errors, "attempted": len(STAGES) * len(rounds),
                      "failed": 0, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
