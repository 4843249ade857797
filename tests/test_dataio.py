"""File-format tests: datasets, metric logs, CSV grids, manifests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dial.constraint import Trajectory
from dial.dataio import (
    DATASET_VERSION,
    DataFormatError,
    RunManifest,
    content_version,
    hash_config,
    hash_file,
    read_dataset,
    read_grid_csv,
    read_metrics,
    write_dataset,
    write_grid_csv,
    write_metrics,
)
from dial.envs import TaskSpec


def random_trajectory(rng, with_task=True) -> Trajectory:
    t = int(rng.integers(1, 30))
    ds, da, dc = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    task = None
    if with_task and rng.random() < 0.7:
        task = TaskSpec(kind="goal", goal=(float(rng.random()), float(rng.random())))
    return Trajectory(
        states=rng.standard_normal((t, ds)),
        actions=rng.standard_normal((t, da)),
        extrinsic_rewards=rng.standard_normal(t),
        cost_features=rng.random((t, dc)),
        task=task,
    )


class TestDatasetRoundTrip:
    def test_hundred_random_trajectories_equal(self, tmp_path):
        rng = np.random.default_rng(0)
        taus = [random_trajectory(rng) for _ in range(100)]
        path = tmp_path / "d.jsonl"
        write_dataset(path, taus)
        back = read_dataset(path)
        assert len(back) == 100
        for a, b in zip(taus, back):
            # json floats round-trip exactly through repr
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.extrinsic_rewards, b.extrinsic_rewards)
            assert np.array_equal(a.cost_features, b.cost_features)
            if a.task is None:
                assert b.task is None
            else:
                assert b.task.kind == a.task.kind
                assert b.task.goal == a.task.goal

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        taus = [random_trajectory(rng) for _ in range(5)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(p1, taus)
        write_dataset(p2, taus)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_dataset(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "d.jsonl"
        write_dataset(path, [random_trajectory(rng)])
        path.write_text(path.read_text() + "\n\n")
        assert len(read_dataset(path)) == 1


class TestDatasetErrors:
    def _write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _good_line(self):
        return json.dumps({"v": DATASET_VERSION, "states": [[0.0]],
                           "actions": [[0.0]], "rewards": [0.0],
                           "costs": [[0.0]], "task": None})

    def test_missing_costs_names_line_number(self, tmp_path):
        bad = json.dumps({"v": DATASET_VERSION, "states": [[0.0]],
                          "actions": [[0.0]], "rewards": [0.0]})
        path = self._write_lines(tmp_path, [self._good_line(), bad])
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:2.*costs"):
            read_dataset(path)

    def test_version_mismatch(self, tmp_path):
        bad = json.dumps({"v": 99, "states": [[0.0]], "actions": [[0.0]],
                          "rewards": [0.0], "costs": [[0.0]]})
        path = self._write_lines(tmp_path, [bad])
        with pytest.raises(DataFormatError, match=r":1.*version 99"):
            read_dataset(path)

    def test_ragged_states(self, tmp_path):
        bad = json.dumps({"v": DATASET_VERSION, "states": [[0.0], [0.0, 1.0]],
                          "actions": [[0.0], [0.0]], "rewards": [0.0, 0.0],
                          "costs": [[0.0], [0.0]]})
        path = self._write_lines(tmp_path, [bad])
        with pytest.raises(DataFormatError, match=r":1"):
            read_dataset(path)

    def test_invalid_json_line(self, tmp_path):
        path = self._write_lines(tmp_path, [self._good_line(), "{not json"])
        with pytest.raises(DataFormatError, match=r":2.*invalid JSON"):
            read_dataset(path)

    def test_non_object_line(self, tmp_path):
        path = self._write_lines(tmp_path, ["[1,2,3]"])
        with pytest.raises(DataFormatError, match=r":1.*object"):
            read_dataset(path)

    def test_length_mismatch_reported_with_line(self, tmp_path):
        bad = json.dumps({"v": DATASET_VERSION, "states": [[0.0], [1.0]],
                          "actions": [[0.0]], "rewards": [0.0],
                          "costs": [[0.0]]})
        path = self._write_lines(tmp_path, [bad])
        with pytest.raises(DataFormatError, match=r":1"):
            read_dataset(path)


class TestMetricsLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        recs = [{"iteration": 0, "rr": 1.5, "cr": [0.2, 0.1]},
                {"iteration": 1, "rr": 2.0, "cr": [0.0, 0.0]}]
        write_metrics(path, recs + [{"iteration": 2, "rr": float(np.float64(2.5)),
                                     "cr": np.array([1.0, 2.0])}])
        back = read_metrics(path)
        assert back[:2] == recs
        assert back[2] == {"iteration": 2, "rr": 2.5, "cr": [1.0, 2.0]}

    def test_canonical_key_order(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_metrics(p1, [{"b": 1, "a": 2}])
        write_metrics(p2, [{"a": 2, "b": 1}])
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_metrics(tmp_path / "m.jsonl", [{"rr": float("nan")}])

    def test_read_error_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(DataFormatError, match=r":2"):
            read_metrics(path)


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((7, 5))
        path = tmp_path / "g.csv"
        write_grid_csv(path, grid, header="risk; rows x (7), cols y (5)")
        back = read_grid_csv(path)
        assert np.array_equal(back, grid)

    def test_header_line_present(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(path, np.zeros((2, 2)), header="units and axes")
        first = path.read_text().splitlines()[0]
        assert first == "# units and axes"

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_grid_csv(tmp_path / "g.csv", np.zeros(3), header="h")

    def test_single_row(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(path, np.array([[1.0, 2.0, 3.0]]), header="h")
        assert read_grid_csv(path).shape == (1, 3)


class TestHashing:
    def test_hash_file_matches_content(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"abc")
        import hashlib

        assert hash_file(p) == hashlib.sha256(b"abc").hexdigest()

    def test_hash_config_key_order_independent(self):
        assert hash_config({"a": 1, "b": [1, 2]}) == hash_config({"b": [1, 2], "a": 1})
        assert hash_config({"a": 1}) != hash_config({"a": 2})

    def test_hash_config_handles_numpy(self):
        assert hash_config({"x": np.float64(1.5)}) == hash_config({"x": 1.5})

    def test_content_version_stable(self):
        v = content_version()
        assert v == content_version()
        assert len(v) == 16
        int(v, 16)


class TestRunManifest:
    def _make(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha")
        (tmp_path / "b.txt").write_text("beta")
        man = RunManifest.build(
            stage="train-il", config={"env": "basic_nav", "seed": 1},
            seeds=[1], paths={"a": tmp_path / "a.txt", "b": tmp_path / "b.txt"},
            base_dir=tmp_path, wall_clock_s=1.25)
        man.save(tmp_path / "run_manifest.json")
        return man

    def test_build_save_load_verifies(self, tmp_path):
        man = self._make(tmp_path)
        back = RunManifest.load(tmp_path / "run_manifest.json")
        assert back.stage == "train-il"
        assert back.config_hash == man.config_hash
        assert set(back.artifacts) == {"a", "b"}
        assert back.artifacts["a"]["path"] == "a.txt"

    def test_tampered_artifact_detected(self, tmp_path):
        self._make(tmp_path)
        (tmp_path / "a.txt").write_text("tampered")
        with pytest.raises(DataFormatError, match="hash mismatch"):
            RunManifest.load(tmp_path / "run_manifest.json")

    def test_missing_artifact_detected(self, tmp_path):
        self._make(tmp_path)
        (tmp_path / "b.txt").unlink()
        with pytest.raises(DataFormatError, match="missing"):
            RunManifest.load(tmp_path / "run_manifest.json")

    def test_verify_false_skips_hashing(self, tmp_path):
        self._make(tmp_path)
        (tmp_path / "a.txt").write_text("tampered")
        back = RunManifest.load(tmp_path / "run_manifest.json", verify=False)
        assert back.stage == "train-il"

    def test_relative_paths_accepted(self, tmp_path, monkeypatch):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "f.txt").write_text("x")
        monkeypatch.chdir(tmp_path)
        man = RunManifest.build(stage="eval", config={}, seeds=[0],
                                paths={"f": "out/f.txt"}, base_dir="out")
        assert man.artifacts["f"]["path"] == "f.txt"

    def test_version_gate(self, tmp_path):
        self._make(tmp_path)
        rec = json.loads((tmp_path / "run_manifest.json").read_text())
        rec["v"] = 42
        (tmp_path / "run_manifest.json").write_text(json.dumps(rec))
        with pytest.raises(DataFormatError, match="version"):
            RunManifest.load(tmp_path / "run_manifest.json")
