"""Output checks made apart from the program.

Every check recomputes a figure from the files a stage wrote, or from a
property the method must have, with code of its own; none compares against
a stored copy of an earlier output.  Each returns a list of error strings,
empty when the output passes.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# scipy reference for sampled CVaR rows: |program - reference| must stay
# within CVAR_ATOL + CVAR_RTOL * |reference|.  Rows seen in mc_pipeline agree
# to 7e-13 relative; the closed-form reference below agreed with 50-digit
# mpmath to 3e-16 on the rows tried, quantiles within 1e-74 of 1 included.
CVAR_RTOL = 1e-9
CVAR_ATOL = 1e-12
# float steps of the quantile a row may be off by where doubles cannot
# resolve it; rows seen so far were off by up to 1.9 steps
CVAR_ULPS = 4
# k-th neighbour distances against cKDTree: both take a square root of a
# sum of squared coordinate differences, so they agree to rounding, except
# that KnnGraph jitters duplicate points by about 1e-10 of the data range.
KNN_RTOL = 1e-9
KNN_ATOL_OF_RANGE = 1e-8


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def env_budget(env_cfg: dict) -> np.ndarray:
    """Per-step cost budget from the env's own settings: a horizon-T
    discounted cost limit d becomes the rate (1 - gamma) d / (1 - gamma^T).
    """
    g, t, d = env_cfg["gamma"], int(env_cfg["horizon"]), env_cfg["cost_limit"]
    return np.array([(1.0 - g) * d / (1.0 - g ** t)])


def _read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _violates(rates: np.ndarray, eps: np.ndarray) -> bool:
    return bool(np.any(rates > eps))


def check_experts(dataset, manifest, eps: np.ndarray, n_experts: int,
                  safety_margin: float) -> list:
    """The manifest's CV is the share of written episodes whose mean cost
    rate breaks the budget, and it is within the certified limit."""
    try:
        rows = _read_jsonl(dataset)
        with open(manifest) as fh:
            man = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"experts: unreadable output ({exc})"]
    errors = []
    if len(rows) != n_experts:
        errors.append(f"experts: {len(rows)} episodes written, {n_experts} asked")
    if not rows:
        return errors
    try:
        cv = sum(_violates(np.asarray(r["costs"], float).mean(axis=0), eps)
                 for r in rows) / len(rows)
    except (KeyError, TypeError, ValueError) as exc:
        return errors + [f"experts: malformed episode ({exc})"]
    limit = float(eps.sum()) * safety_margin
    if man.get("certified") is not True:
        errors.append("experts: manifest is not certified")
    if abs(man.get("cv", math.nan) - cv) > 1e-12:
        errors.append(f"experts: manifest CV {man.get('cv')} != recomputed {cv}")
    if not abs(man.get("cv_limit", math.nan) - limit) <= 1e-12 * limit:
        errors.append(f"experts: manifest limit {man.get('cv_limit')} != {limit}")
    if cv > limit:
        errors.append(f"experts: recomputed CV {cv} exceeds limit {limit}")
    return errors


def _all_finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return False


def check_stage_log(metrics, budget: int, stage: str) -> tuple:
    """A training stage logged consecutive finite records up to its budget.

    Returns (errors, final env_steps or None).
    """
    try:
        recs = _read_jsonl(metrics)
    except (OSError, ValueError) as exc:
        return [f"{stage}: unreadable metrics log ({exc})"], None
    if not recs:
        return [f"{stage}: empty metrics log"], None
    errors = []
    try:
        steps = [int(r["env_steps"]) for r in recs]
        iters = [r["iteration"] for r in recs]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{stage}: malformed record ({exc})"], None
    if iters != list(range(len(recs))):
        errors.append(f"{stage}: iterations are not 0..{len(recs) - 1}")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        errors.append(f"{stage}: env_steps do not increase")
    if steps[-1] < budget:
        errors.append(f"{stage}: stopped at {steps[-1]} of {budget} env steps")
    if not all(_all_finite(r) for r in recs):
        errors.append(f"{stage}: non-finite value in the metrics log")
    return errors, steps[-1]


def check_eval(eval_json, eps: np.ndarray, n_episodes: int) -> list:
    """Eval rr and cv equal their recomputation from the per-episode detail."""
    try:
        with open(eval_json) as fh:
            payload = json.load(fh)
        eps_rows = payload["episodes"]
        rr = math.fsum(e["rr"] for e in eps_rows) / len(eps_rows)
        cv = sum(_violates(np.asarray(e["cr"], float) / e["len"], eps)
                 for e in eps_rows) / len(eps_rows)
        got_rr, got_cv = float(payload["rr"]), float(payload["cv"])
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"eval: unreadable or malformed eval.json ({exc})"]
    errors = []
    if len(eps_rows) != n_episodes:
        errors.append(f"eval: {len(eps_rows)} episodes, {n_episodes} asked")
    if not abs(got_rr - rr) <= 1e-9 * max(1.0, abs(rr)):
        errors.append(f"eval: rr {got_rr} != recomputed {rr}")
    if abs(got_cv - cv) > 1e-12:
        errors.append(f"eval: cv {got_cv} != recomputed {cv}")
    return errors


def check_unchanged(path, digest_before: str, what: str) -> list:
    after = file_digest(path)
    if after != digest_before:
        return [f"{what}: bytes changed ({digest_before[:12]} -> {after[:12]})"]
    return []


def check_same_artifacts(digests: dict, reference: dict, label: str) -> list:
    """Repeated runs at one seed write byte-identical artifacts."""
    diff = sorted(k for k in set(digests) | set(reference)
                  if digests.get(k) != reference.get(k))
    return [f"{label}: artifacts differ from the first round: {diff}"] if diff else []


def cvar_reference(a: float, b: float, lam: float) -> float:
    """Lower-tail CVaR of Beta(a, b) by scipy.

    x pdf(x; a, b) = a / (a + b) pdf(x; a + 1, b), so the tail integral is
    an incomplete beta at the scipy quantile v.  When v lies in the upper
    half the tail is taken through 1 - X ~ Beta(b, a) and its quantile
    1 - v, which stays representable where v itself rounds to 1.
    """
    from scipy import special, stats

    if lam >= 1.0:
        return a / (a + b)
    v = float(stats.beta.ppf(lam, a, b))
    if v <= 0.5:
        return a / (a + b) * float(special.betainc(a + 1.0, b, v)) / lam
    u = float(stats.beta.isf(lam, b, a))
    return 1.0 - b / (a + b) * float(special.betaincc(b + 1.0, a, u)) / lam


def quantile_grid_step(a: float, b: float, lam: float) -> float:
    """How far Beta(a, b)'s cdf moves between the floats adjacent to its
    lam-quantile v; inf when v rounds to 1."""
    from scipy import special, stats

    v = float(stats.beta.ppf(lam, a, b))
    if v >= 1.0:
        return math.inf
    cdf = [float(special.betainc(a, b, x))
           for x in (np.nextafter(v, 0.0), v, np.nextafter(v, 1.0))]
    return max(cdf[1] - cdf[0], cdf[2] - cdf[1])


def check_cvar_samples(samples: list) -> tuple:
    """Sampled (a, b, lam, cvar) rows that the program computed, vs scipy.

    cvar_arr inverts for the quantile v in x itself and accepts it once
    doubles stop resolving it.  Where Beta(a, b)'s mass sits so close to 1
    that one float step of v moves the cdf by more than the tolerance, a
    row may be off by the CVaR that CVAR_ULPS such steps move; where v
    rounds to 1, cvar_arr falls back to the full mean, so the row must lie
    between the true tail mean and the mean (both FOUND in CHANGES.md).
    Returns (errors, number of rows held to that wider limit).
    """
    errors, coarse = [], 0
    for a, b, lam, got in samples:
        ref = cvar_reference(a, b, lam)
        tol = CVAR_ATOL + CVAR_RTOL * abs(ref)
        step = quantile_grid_step(a, b, lam) if lam < 1.0 else 0.0
        if math.isinf(step):
            coarse += 1
            ok = ref - tol <= got <= a / (a + b) + tol
        else:
            wide = CVAR_ULPS * step / lam
            coarse += wide > tol
            ok = abs(got - ref) <= tol + wide
        if not ok:
            errors.append(f"cvar_arr({a!r}, {b!r}, {lam!r}) = {got!r}, "
                          f"scipy {ref!r}")
    return errors[:5], coarse


def check_knn_samples(samples: list) -> list:
    """Sampled KnnGraph k-th neighbour distances vs scipy's cKDTree."""
    from scipy.spatial import cKDTree

    errors = []
    for points, k, kth in samples:
        ref = cKDTree(points).query(points, k=k + 1)[0][:, k]
        atol = KNN_ATOL_OF_RANGE * float(np.ptp(points, axis=0).max())
        bad = ~(np.abs(kth - ref) <= atol + KNN_RTOL * np.abs(ref))
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"KnnGraph k={k} M={len(points)}: kth[{i}] = "
                          f"{kth[i]!r}, cKDTree {ref[i]!r}")
    return errors
