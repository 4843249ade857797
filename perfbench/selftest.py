"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Runs each workload once at a tiny budget with tracing on, then once more
without, and requires every check to pass on those real outputs (the second
round must also write the same bytes as the first).  It then corrupts one
output at a time, in a copy, and requires the check that guards it to
reject the copy.  Exits 1 if a check fails on clean output or accepts a
corrupted one.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from checks import (
    CVAR_ULPS,
    check_cvar_samples,
    check_eval,
    check_experts,
    check_knn_samples,
    check_same_artifacts,
    check_stage_log,
    check_unchanged,
    cvar_reference,
    env_budget,
    file_digest,
    quantile_grid_step,
)
from inputs import WORKLOADS, import_dial, prepare
from run import run_round
from spans import Tracer

HERE = Path(__file__).resolve().parent
SEED = 0
# Beta shapes seen in nav_pipeline's constraint: the first one's
# lam-quantile is 1 - 5e-75 and rounds to 1 in float64, the second one's is
# 1 - 3.6e-15, where one float step moves the cdf by 4e-4; with the
# value cvar_arr returned for it
PINNED_ROW = (5.133616998413747, 0.006517010966763353, 0.667685448760299)
UNRESOLVED_ROW = (7.647094984563743, 0.02255315656932685, 0.5,
                  0.9929577844345617)
TINY = {
    "mc_pipeline": {
        "expert": {"cem_samp": 4, "cem_elite": 2, "n_experts": 10},
        "il": {"env_steps": 800, "constraint_steps": 1},
        "tl": {"env_steps": 800, "n_rollouts": 2},
        "eval": {"eval_episodes": 2},
    },
    "nav_pipeline": {
        "expert": {"n_experts": 6},
        "il": {"env_steps": 2400, "batch_expert": 2},
        "tl": {"env_steps": 1200, "n_rollouts": 1},
        "eval": {"eval_episodes": 2},
    },
}


def _flip_byte(path: Path, at: int) -> None:
    data = bytearray(path.read_bytes())
    at %= len(data)
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def _edit_jsonl(path: Path, edit) -> None:
    recs = [json.loads(line) for line in path.read_text().splitlines() if line]
    recs = edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _set(obj, key, value):
    obj[key] = value
    return obj


def corruption_cases(ref: dict, cfgs: dict, eps, tracer) -> list:
    """(name, corrupt(copy_dir), check(copy_dir) -> errors) for every check."""
    cg, ci, ct, ce = cfgs["expert"], cfgs["il"], cfgs["tl"], cfgs["eval"]

    def digests(d):
        return {k: file_digest(d / k) for k in ref}

    def bad_costs(recs):
        recs[0]["costs"] = [[1.0] * len(c) for c in recs[0]["costs"]]
        return recs

    def nan_record(recs):
        recs[-1]["rr"] = float("nan")
        return recs

    def toggle_violation(p):
        # a breaking episode is made clean and a clean one made to break
        ep = p["episodes"][0]
        full = any(c / ep["len"] > e for c, e in zip(ep["cr"], eps))
        ep["cr"] = [0.0 if full else float(ep["len"])] * len(ep["cr"])

    cases = [
        ("determinism: flipped byte in safe-il metrics.jsonl",
         lambda d: _flip_byte(d / "il/metrics.jsonl", 40),
         lambda d: check_same_artifacts(digests(d), ref, "copy")),
        ("determinism: flipped byte in safe-tl policy.ckpt",
         lambda d: _flip_byte(d / "tl/policy.ckpt", -9),
         lambda d: check_same_artifacts(digests(d), ref, "copy")),
        ("experts: one episode's costs raised in experts.jsonl",
         lambda d: _edit_jsonl(d / "experts/experts.jsonl", bad_costs),
         lambda d: check_experts(d / "experts/experts.jsonl",
                                 d / "experts/experts.manifest.json", eps,
                                 cg.n_experts, cg.safety_margin)),
        ("experts: manifest CV altered",
         lambda d: _edit_json(d / "experts/experts.manifest.json",
                              lambda m: _set(m, "cv", m["cv"] + 0.5)),
         lambda d: check_experts(d / "experts/experts.jsonl",
                                 d / "experts/experts.manifest.json", eps,
                                 cg.n_experts, cg.safety_margin)),
        ("safe-il log: NaN in the last record",
         lambda d: _edit_jsonl(d / "il/metrics.jsonl", nan_record),
         lambda d: check_stage_log(d / "il/metrics.jsonl", ci.env_steps, "il")[0]),
        ("safe-tl log: cut before the budget",
         lambda d: _edit_jsonl(d / "tl/metrics.jsonl",
                               lambda r: [_set(r[-1], "env_steps", ct.env_steps - 1)]),
         lambda d: check_stage_log(d / "tl/metrics.jsonl", ct.env_steps, "tl")[0]),
        ("safe-tl: constraint checkpoint bytes changed",
         lambda d: _flip_byte(d / "il/constraint.ckpt", -5),
         lambda d: check_unchanged(d / "il/constraint.ckpt",
                                   ref["il/constraint.ckpt"], "ckpt")),
        ("eval: one episode's rr perturbed",
         lambda d: _edit_json(d / "eval.json",
                              lambda p: _set(p["episodes"][0], "rr",
                                             p["episodes"][0]["rr"] + 1e-3)),
         lambda d: check_eval(d / "eval.json", eps, ce.eval_episodes)),
        ("eval: one episode's budget verdict flipped",
         lambda d: _edit_json(d / "eval.json", toggle_violation),
         lambda d: check_eval(d / "eval.json", eps, ce.eval_episodes)),
    ]
    if tracer.cvar_samples:
        rows = tracer.cvar_samples
        bad = [(a, b, lam, v * (1.0 + 1e-7) + 1e-11) for a, b, lam, v in rows[:1]]
        cases.append(("cvar_arr: sampled value perturbed by 1e-7",
                      lambda d: None,
                      lambda d: check_cvar_samples(bad + rows[1:])[0]))
    # a row whose 0.668-quantile rounds to 1: cvar_arr returns the mean there,
    # and a value below the true tail mean must still be rejected
    a, b, lam = PINNED_ROW
    low = cvar_reference(a, b, lam) * (1.0 - 1e-6)
    cases.append(("cvar_arr: pinned-quantile row below the tail mean",
                  lambda d: None,
                  lambda d: check_cvar_samples([(a, b, lam, low)])[0]))
    ua, ub, ulam, _ = UNRESOLVED_ROW
    far = (cvar_reference(ua, ub, ulam)
           - 2 * CVAR_ULPS * quantile_grid_step(ua, ub, ulam) / ulam)
    cases.append(("cvar_arr: unresolved-quantile row off by 8 float steps",
                  lambda d: None,
                  lambda d: check_cvar_samples([(ua, ub, ulam, far)])[0]))
    if tracer.knn_samples:
        pts, k, kth = tracer.knn_samples[0]
        kth = kth.copy()
        kth[len(kth) // 2] *= 1.0 + 1e-5
        cases.append(("KnnGraph: one k-th distance perturbed by 1e-5",
                      lambda d: None,
                      lambda d: check_knn_samples([(pts, k, kth)])))
    return cases


def main() -> int:
    trainer = import_dial()
    from dial.envs import make_env

    failures = 0
    for name, spec in WORKLOADS.items():
        spec = {**spec, **{s: {**spec[s], **TINY[name][s]} for s in TINY[name]}}
        out = HERE / "out" / "selftest" / name
        cfgs = prepare(spec, SEED, out)
        eps = env_budget(make_env(spec["env"]).cfg)
        tracer = Tracer(SEED)
        tracer.install()
        try:
            traced = run_round(trainer, cfgs, eps, out / "round")
        finally:
            tracer.uninstall()
        plain = run_round(trainer, cfgs, eps, out / "round")
        clean = (traced["errors"] + plain["errors"]
                 + check_same_artifacts(plain["digests"], traced["digests"], "rerun")
                 + check_cvar_samples(tracer.cvar_samples)[0]
                 + check_cvar_samples([(*PINNED_ROW, PINNED_ROW[0]
                                        / (PINNED_ROW[0] + PINNED_ROW[1])),
                                       UNRESOLVED_ROW])[0]
                 + check_knn_samples(tracer.knn_samples))
        if not (tracer.cvar_samples and tracer.knn_samples):
            clean.append("no cvar_arr or KnnGraph samples were traced")
        print(f"{name}: clean outputs {'pass' if not clean else 'FAIL'} "
              f"({len(tracer)} spans, {len(tracer.cvar_samples)} cvar rows, "
              f"{len(tracer.knn_samples)} k-NN graphs)")
        for e in clean:
            print(f"  {e}")
        failures += bool(clean)
        for case, corrupt, check in corruption_cases(
                plain["digests"], cfgs, eps, tracer):
            copy = out / "corrupt"
            if copy.exists():
                shutil.rmtree(copy)
            shutil.copytree(out / "round", copy)
            corrupt(copy)
            errors = check(copy)
            print(f"  {'rejected' if errors else 'ACCEPTED'}: {case}")
            failures += not errors
    print("selftest " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
