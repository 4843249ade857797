"""File formats: trajectory datasets, metric logs, run manifests, CSV grids.

Datasets and metric logs are JSON-lines with canonical key order so that a
rerun under the same seed reproduces files byte for byte. Manifests tie a
run's outputs to a config hash and a content hash of the installed package.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraint import Trajectory
from .envs import TaskSpec

DATASET_VERSION = 1
MANIFEST_VERSION = 1


class DataFormatError(ValueError):
    """Malformed dataset, metrics, or manifest content."""


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and not math.isfinite(value):
        raise DataFormatError(f"non-finite value {value} is not serializable")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# trajectory datasets

def write_dataset(path, trajectories: list) -> None:
    """One trajectory per line; see read_dataset for the schema."""
    path = Path(path)
    with open(path, "w") as fh:
        for tau in trajectories:
            rec = {
                "v": DATASET_VERSION,
                "states": tau.states.tolist(),
                "actions": tau.actions.tolist(),
                "rewards": tau.extrinsic_rewards.tolist(),
                "costs": tau.cost_features.tolist(),
                "task": tau.task.to_json() if tau.task is not None else None,
            }
            fh.write(_dumps(rec) + "\n")


def _line_error(path, lineno: int, msg: str) -> DataFormatError:
    return DataFormatError(f"{path}:{lineno}: {msg}")


def read_dataset(path) -> list:
    """Parse a JSON-lines dataset back into Trajectory objects.

    Schema per line: {v, states [[T x ds]], actions [[T x da]],
    rewards [T], costs [[T x dc]], task}. Any malformed line raises with
    its line number; an empty file is an empty dataset.
    """
    path = Path(path)
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _line_error(path, lineno, f"invalid JSON ({exc.msg})")
            if not isinstance(rec, dict):
                raise _line_error(path, lineno, "expected a JSON object")
            if rec.get("v") != DATASET_VERSION:
                raise _line_error(
                    path, lineno,
                    f"schema version {rec.get('v')!r}, expected {DATASET_VERSION}")
            for key in ("states", "actions", "rewards", "costs"):
                if key not in rec:
                    raise _line_error(path, lineno, f"missing key '{key}'")
            try:
                arrays = {key: np.asarray(rec[key], dtype=float)
                          for key in ("states", "actions", "rewards", "costs")}
            except ValueError as exc:
                raise _line_error(path, lineno, f"ragged or non-numeric array ({exc})")
            for key in ("states", "actions", "costs"):
                if arrays[key].ndim != 2:
                    raise _line_error(path, lineno, f"'{key}' must be a 2-d array")
            task = rec.get("task")
            try:
                tau = Trajectory(arrays["states"], arrays["actions"],
                                 arrays["rewards"], arrays["costs"],
                                 task=TaskSpec.from_json(task) if task else None)
            except (ValueError, KeyError) as exc:
                raise _line_error(path, lineno, str(exc))
            out.append(tau)
    return out


# ---------------------------------------------------------------------------
# metric logs

def write_metrics(path, records: list) -> None:
    """JSON-lines, one record per iteration, canonical key order, no clocks."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_dumps(_jsonable(rec)) + "\n")


def read_metrics(path) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise _line_error(path, lineno, f"invalid JSON ({exc.msg})")
    return out


# ---------------------------------------------------------------------------
# CSV grids

def write_grid_csv(path, values: np.ndarray, header: str) -> None:
    """2-d grid as one '# header' line, then one comma-separated line of
    repr(float) cells per row. Both CLI maps (constraint_map.csv and
    visitation_map.csv) are written so, with a header naming what the cells
    hold, then each axis's range and bins; read_grid_csv reads either."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"grid must be 2-d, got shape {values.shape}")
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_grid_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#"))


# ---------------------------------------------------------------------------
# hashing and manifests

def hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_config(config: dict) -> str:
    return hashlib.sha256(_dumps(_jsonable(config)).encode()).hexdigest()


def content_version() -> str:
    """Content hash over the installed package's source files."""
    root = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for src in sorted(root.rglob("*.py")):
        h.update(str(src.relative_to(root)).encode())
        h.update(src.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class RunManifest:
    """What a run produced and under which config, seeds, and code."""

    stage: str
    config_hash: str
    seeds: list
    artifacts: dict = field(default_factory=dict)
    binary_version: str = ""
    wall_clock_s: float = 0.0
    version: int = MANIFEST_VERSION

    @classmethod
    def build(cls, stage: str, config: dict, seeds: list, paths: dict,
              base_dir, wall_clock_s: float = 0.0) -> "RunManifest":
        """paths maps artifact names to files under base_dir."""
        base = Path(base_dir).resolve()
        artifacts = {}
        for name, p in sorted(paths.items()):
            loc = Path(p).resolve()
            rel = loc.relative_to(base)
            artifacts[name] = {"path": str(rel), "sha256": hash_file(loc)}
        return cls(stage=stage, config_hash=hash_config(config),
                   seeds=[int(s) for s in seeds], artifacts=artifacts,
                   binary_version=content_version(),
                   wall_clock_s=float(wall_clock_s))

    def save(self, path) -> None:
        rec = {"v": self.version, "stage": self.stage,
               "config_hash": self.config_hash, "seeds": self.seeds,
               "artifacts": self.artifacts,
               "binary_version": self.binary_version,
               "wall_clock_s": self.wall_clock_s}
        with open(path, "w") as fh:
            fh.write(_dumps(rec) + "\n")

    @classmethod
    def load(cls, path, verify: bool = True) -> "RunManifest":
        """Re-hashes every listed artifact when verify is set."""
        path = Path(path)
        with open(path) as fh:
            rec = json.loads(fh.read())
        if rec.get("v") != MANIFEST_VERSION:
            raise DataFormatError(f"{path}: manifest version {rec.get('v')!r}")
        man = cls(stage=rec["stage"], config_hash=rec["config_hash"],
                  seeds=rec["seeds"], artifacts=rec["artifacts"],
                  binary_version=rec["binary_version"],
                  wall_clock_s=rec["wall_clock_s"])
        if verify:
            base = path.parent
            for name, art in man.artifacts.items():
                target = base / art["path"]
                if not target.exists():
                    raise DataFormatError(f"{path}: artifact '{name}' missing "
                                          f"({art['path']})")
                got = hash_file(target)
                if got != art["sha256"]:
                    raise DataFormatError(
                        f"{path}: artifact '{name}' hash mismatch "
                        f"({art['path']}: {got} != {art['sha256']})")
        return man
