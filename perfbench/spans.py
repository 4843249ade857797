"""Span tracing around calls into dial's layers, from outside the program.

install() replaces each traced function in every dial module that holds it
(modules import functions by name, so patching the defining module alone
would miss their calls) and each traced method on its class.  A span is
(name, parent, start, end, count, flag): the count comes from the call's
argument shapes or its returned value, never from inside the program, and
the flag marks an update that reported a NaN abort.  Spans stay in compact
arrays in memory until the run writes them out.

Self time is a span's duration minus the union of its child spans'
intervals.  Spans on evaluate's worker threads take the span open on the
main thread (evaluate itself) as their parent.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

CVAR_SAMPLES = 120      # (a, b, lam, cvar) rows kept for the scipy check
KNN_SAMPLES = 4         # KnnGraph builds kept for the cKDTree check


def _bsize(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(x) for x in arrays]).size)


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _aborted(out) -> int:
    return int(bool(out.get("nan_aborted")))


class Tracer:
    def __init__(self, seed: int):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.flag = array("b")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._undo: list = []
        self._rng = np.random.default_rng(seed)
        self._cvar_seen = 0
        self.cvar_samples: list = []
        self.knn_samples: list = []

    def __len__(self) -> int:
        return len(self.name)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            if threading.current_thread() is self._main:
                st = self._main_stack
            else:
                st = self._main_stack[-1:]
            self._local.stack = st
        return st

    def wrap(self, name: str, fn, measure=None):
        """fn traced as span `name`; measure(args, out) -> (count, flag)."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._stack()
            with self._lock:
                i = len(self.name)
                self.name.append(nid)
                self.parent.append(st[-1] if st else -1)
                self.start.append(0.0)
                self.end.append(0.0)
                self.count.append(0)
                self.flag.append(0)
            st.append(i)
            self.start[i] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                st.pop()
            if measure is not None:
                self.count[i], self.flag[i] = measure(args, out)
            return out

        return traced

    # -- samples for the reference checks -------------------------------------

    def _cvar(self, args, out):
        a, b, lam = np.broadcast_arrays(*[np.asarray(x, float) for x in args[:3]])
        n = a.size
        if n:
            # reservoir over calls: every call is equally likely to be kept
            self._cvar_seen += 1
            j = int(self._rng.integers(n))
            row = (float(a.flat[j]), float(b.flat[j]), float(lam.flat[j]),
                   float(np.asarray(out).flat[j]))
            if len(self.cvar_samples) < CVAR_SAMPLES:
                self.cvar_samples.append(row)
            else:
                k = int(self._rng.integers(self._cvar_seen))
                if k < CVAR_SAMPLES:
                    self.cvar_samples[k] = row
        return n, 0

    def _knn(self, args, out):
        graph, ps, k = args[0], args[1], args[2]
        if len(self.knn_samples) < KNN_SAMPLES:
            self.knn_samples.append((np.array(ps.points), int(k),
                                     graph.kth_dist.copy()))
        return ps.m, 0

    # -- patching -------------------------------------------------------------

    def _patch_function(self, name, home, attr, measure=None):
        orig = getattr(home, attr)
        traced = self.wrap(name, orig, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dial" or mod_name.startswith("dial.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, orig))

    def _patch_method(self, name, cls, attr, measure=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, measure))
        self._undo.append((cls, attr, orig))

    def install(self) -> None:
        from dial import betarisk, constraint, dataio, entropy, nets, policyopt, trainer
        from dial.envs import REGISTRY, Environment

        fn = self._patch_function
        fn("betarisk.cvar_arr", betarisk, "cvar_arr", self._cvar)
        fn("betarisk.var_arr", betarisk, "var_arr", lambda a, o: (_bsize(*a[:3]), 0))
        fn("betarisk.betainc_arr", betarisk, "betainc_arr",
           lambda a, o: (_bsize(*a[:3]), 0))
        fn("betarisk.beta_kl_arr", betarisk, "beta_kl_arr",
           lambda a, o: (_bsize(*a[:4]), 0))
        fn("constraint.constraint_update", constraint, "constraint_update",
           lambda a, o: (sum(len(t) for t in list(a[1]) + list(a[2])), _aborted(o)))
        fn("constraint.gamma_criterion", constraint, "gamma_criterion")
        fn("constraint.importance_weights", constraint, "importance_weights")
        self._patch_method("entropy.KnnGraph", entropy.KnnGraph, "__init__", self._knn)
        self._patch_method("entropy.kl_estimate", entropy.KnnGraph, "kl_estimate")
        self._patch_method("nets.Mlp.forward", nets.Mlp, "forward",
                           lambda a, o: (_rows(a[1]), 0))
        self._patch_method("nets.Mlp.backward", nets.Mlp, "backward")
        self._patch_method("nets.AdamState.step", nets.AdamState, "step")
        fn("policyopt.safe_il_policy_step", policyopt, "safe_il_policy_step",
           lambda a, o: (int(o["inner_steps"]), _aborted(o)))
        fn("policyopt.ppo_lagrange_update", policyopt, "ppo_lagrange_update",
           lambda a, o: (0, _aborted(o)))
        for cls in {Environment, *REGISTRY.values()}:
            for attr in ("step", "observe", "reset"):
                if attr in cls.__dict__:
                    self._patch_method(f"envs.{attr}", cls, attr)
        fn("trainer.run_episode", trainer, "run_episode",
           lambda a, o: (len(o[0]), 0))
        fn("trainer.cem_round", trainer, "_cem_round")
        fn("trainer.collect_rollouts", trainer, "collect_rollouts")
        for stage in ("generate_experts", "safe_il", "safe_tl", "evaluate"):
            fn(f"trainer.{stage}", trainer, stage)
        for attr in ("write_dataset", "read_dataset", "write_metrics"):
            fn(f"dataio.{attr}", dataio, attr)
        for attr in ("save_checkpoint", "load_checkpoint"):
            fn(f"dataio.{attr}", nets, attr)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        hi = len(self) if hi is None else hi
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
            "count": np.frombuffer(self.count, dtype=np.int64)[lo:hi].copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8)[lo:hi].copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray,
               offset: int = 0) -> np.ndarray:
    """Duration minus the union of child intervals, per span.

    parent holds global span indices; offset is the global index of row 0.
    """
    dur = end - start
    covered = np.zeros(len(dur))
    local = parent - offset
    kids = np.flatnonzero((parent >= 0) & (local >= 0))
    order = kids[np.lexsort((start[kids], local[kids]))]
    cur, reach = -1, -np.inf
    for p, s, e in zip(local[order].tolist(), start[order].tolist(),
                       end[order].tolist()):
        if p != cur:
            cur, reach = p, -np.inf
        if e > reach:
            covered[p] += e - max(s, reach)
            reach = e
    return dur - covered


# Per-layer metrics of one traced round: (metric, span, field).  field is
# calls, count (the span's measured count), s (inclusive seconds) or
# self_s (self seconds).
SPAN_METRICS = [
    ("betarisk.cvar_arr.calls", "betarisk.cvar_arr", "calls"),
    ("betarisk.cvar_arr.rows", "betarisk.cvar_arr", "count"),
    ("betarisk.cvar_arr.s", "betarisk.cvar_arr", "s"),
    ("betarisk.cvar_arr.self_s", "betarisk.cvar_arr", "self_s"),
    ("betarisk.var_arr.calls", "betarisk.var_arr", "calls"),
    ("betarisk.var_arr.rows", "betarisk.var_arr", "count"),
    ("betarisk.var_arr.s", "betarisk.var_arr", "s"),
    ("betarisk.var_arr.self_s", "betarisk.var_arr", "self_s"),
    ("betarisk.betainc_arr.calls", "betarisk.betainc_arr", "calls"),
    ("betarisk.betainc_arr.elems", "betarisk.betainc_arr", "count"),
    ("betarisk.betainc_arr.s", "betarisk.betainc_arr", "s"),
    ("betarisk.beta_kl_arr.s", "betarisk.beta_kl_arr", "s"),
    ("constraint.constraint_update.calls", "constraint.constraint_update", "calls"),
    ("constraint.constraint_update.rows", "constraint.constraint_update", "count"),
    ("constraint.constraint_update.s", "constraint.constraint_update", "s"),
    ("constraint.constraint_update.self_s", "constraint.constraint_update", "self_s"),
    ("constraint.gamma_criterion.calls", "constraint.gamma_criterion", "calls"),
    ("constraint.gamma_criterion.s", "constraint.gamma_criterion", "s"),
    ("constraint.importance_weights.calls", "constraint.importance_weights", "calls"),
    ("constraint.importance_weights.s", "constraint.importance_weights", "s"),
    ("constraint.update_aborts", "constraint.constraint_update", "flag"),
    ("entropy.KnnGraph.calls", "entropy.KnnGraph", "calls"),
    ("entropy.KnnGraph.particles", "entropy.KnnGraph", "count"),
    ("entropy.KnnGraph.s", "entropy.KnnGraph", "s"),
    ("entropy.kl_estimate.calls", "entropy.kl_estimate", "calls"),
    ("entropy.kl_estimate.s", "entropy.kl_estimate", "s"),
    ("nets.Mlp.forward.calls", "nets.Mlp.forward", "calls"),
    ("nets.Mlp.forward.rows", "nets.Mlp.forward", "count"),
    ("nets.Mlp.forward.s", "nets.Mlp.forward", "s"),
    ("nets.Mlp.backward.calls", "nets.Mlp.backward", "calls"),
    ("nets.Mlp.backward.s", "nets.Mlp.backward", "s"),
    ("nets.AdamState.step.calls", "nets.AdamState.step", "calls"),
    ("nets.AdamState.step.s", "nets.AdamState.step", "s"),
    ("policyopt.safe_il_policy_step.calls", "policyopt.safe_il_policy_step", "calls"),
    ("policyopt.safe_il_policy_step.inner_steps", "policyopt.safe_il_policy_step", "count"),
    ("policyopt.safe_il_policy_step.s", "policyopt.safe_il_policy_step", "s"),
    ("policyopt.safe_il_policy_step.self_s", "policyopt.safe_il_policy_step", "self_s"),
    ("policyopt.ppo_lagrange_update.calls", "policyopt.ppo_lagrange_update", "calls"),
    ("policyopt.ppo_lagrange_update.s", "policyopt.ppo_lagrange_update", "s"),
    ("policyopt.ppo_lagrange_update.self_s", "policyopt.ppo_lagrange_update", "self_s"),
    ("envs.step.calls", "envs.step", "calls"),
    ("envs.step.s", "envs.step", "s"),
    ("envs.observe.s", "envs.observe", "s"),
    ("envs.reset.s", "envs.reset", "s"),
    ("trainer.run_episode.calls", "trainer.run_episode", "calls"),
    ("trainer.run_episode.steps", "trainer.run_episode", "count"),
    ("trainer.run_episode.s", "trainer.run_episode", "s"),
    ("trainer.run_episode.self_s", "trainer.run_episode", "self_s"),
    ("trainer.cem_round.calls", "trainer.cem_round", "calls"),
    ("trainer.cem_round.s", "trainer.cem_round", "s"),
    ("trainer.collect_rollouts.s", "trainer.collect_rollouts", "s"),
    ("trainer.evaluate.s", "trainer.evaluate", "s"),
    ("trainer.generate_experts.s", "trainer.generate_experts", "s"),
    ("trainer.safe_il.s", "trainer.safe_il", "s"),
    ("trainer.safe_il.self_s", "trainer.safe_il", "self_s"),
    ("trainer.safe_tl.s", "trainer.safe_tl", "s"),
    ("trainer.safe_tl.self_s", "trainer.safe_tl", "self_s"),
]
LAYERS = ("betarisk", "constraint", "entropy", "nets", "policyopt", "envs", "trainer")
DATAIO_SPANS = ("dataio.write_dataset", "dataio.read_dataset", "dataio.write_metrics",
                "dataio.save_checkpoint", "dataio.load_checkpoint")

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = (
    [(m, "s" if f in ("s", "self_s") else "count", "lower")
     for m, _, f in SPAN_METRICS]
    + [("policyopt.update_aborts", "count", "lower"),
       ("betarisk.betainc_elems_per_cvar_row", "ratio", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("dataio.io_s", "s", "lower"), ("trace.pipeline_s", "s", "lower")]
)


def round_metrics(tracer: Tracer, lo: int, hi: int, pipeline_s: float) -> dict:
    """Per-layer metrics of the spans [lo, hi) of one traced round."""
    a = tracer.arrays(lo, hi)
    self_s = self_times(a["parent"], a["start"], a["end"], offset=lo)
    dur = a["end"] - a["start"]
    by_name = {}
    for nid, name in enumerate(tracer.names):
        sel = a["name"] == nid
        by_name[name] = {"calls": int(sel.sum()), "count": int(a["count"][sel].sum()),
                         "flag": int(a["flag"][sel].sum()),
                         "s": float(dur[sel].sum()), "self_s": float(self_s[sel].sum())}
    empty = {"calls": 0, "count": 0, "flag": 0, "s": 0.0, "self_s": 0.0}
    out = {m: by_name.get(span, empty)[f] for m, span, f in SPAN_METRICS}
    out["policyopt.update_aborts"] = 0
    for span in ("policyopt.safe_il_policy_step", "policyopt.ppo_lagrange_update"):
        out["policyopt.update_aborts"] += by_name.get(span, empty)["flag"]
    rows = out["betarisk.cvar_arr.rows"]
    out["betarisk.betainc_elems_per_cvar_row"] = (
        out["betarisk.betainc_arr.elems"] / rows if rows else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in by_name.items()
                                     if k.startswith(layer + "."))
    out["dataio.io_s"] = sum(by_name.get(s, empty)["s"] for s in DATAIO_SPANS)
    out["trace.pipeline_s"] = pipeline_s
    return out
