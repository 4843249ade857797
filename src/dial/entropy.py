"""Nonparametric state-space entropy estimation.

k-nearest-neighbor entropy estimates over particle sets drawn from rollout
states, an importance-weighted variant for off-policy evaluation of the
current policy's state distribution, and their difference as a divergence
estimate used to gate trust-region policy steps.  Also the discretized
visitation grid behind the reported state-entropy metric.

Neighbor search is exact brute force in blocks of _BLOCK rows, so it holds
O(_BLOCK * M) distances at a time, never the M x M matrix.  Ties are broken
by particle index; exact duplicate points get a deterministic jitter of
1e-10 times the data range before the search so distances stay positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .betarisk import digamma

_JITTER_SEED = 0x51D3
_JITTER_SCALE = 1e-10
_BLOCK = 32         # rows per distance block: 0.5 MB at M = 2048, cache-sized


@dataclass(frozen=True)
class ParticleSet:
    """M points in R^dim, typically states (or a 2-state projection) from rollouts."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"particles must be a 2-d array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("particles must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ImportanceWeightSet:
    """Per-particle nonnegative weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d array")
        if not np.isfinite(w).all() or (w < 0.0).any():
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)


def knn_volume(radius: float, dim: int) -> float:
    """Volume of the dim-ball of the given radius."""
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius ** dim


def _knn_block(x: np.ndarray, s: int, e: int, k: int, width: int):
    """k nearest neighbors of rows s:e of x among all of x, self excluded."""
    m = x.shape[0]
    d2 = np.zeros((e - s, m))
    for j in range(x.shape[1]):
        diff = x[s:e, j, None] - x[None, :, j]
        d2 += np.square(diff, out=diff)
    d2[np.arange(e - s), np.arange(s, e)] = np.inf
    # at width m - 1 self, the only inf in its row, is the one member dropped
    part = np.argpartition(d2, width - 1, axis=1)[:, :width]
    order = np.lexsort((part, np.take_along_axis(d2, part, axis=1)), axis=1)
    cand = np.take_along_axis(part, order, axis=1)
    kth = np.sqrt(np.take_along_axis(d2, cand[:, k - 1 : k], axis=1)[:, 0])
    return cand[:, :k], kth


def _knn_search(x: np.ndarray, k: int):
    """Indices of the k nearest neighbors of each point (self excluded).

    Returns (neighbor_idx int[M][k], kth_dist float[M]).  The k + 8 nearest
    candidates of a row are ordered by (distance, index); a tie at the k-th
    distance wider than that keeps the members the partition picked.
    Squared distances are summed coordinate by coordinate, _BLOCK rows at a
    time: exactly translation invariant, unlike the matmul expansion of the
    same quantity, and never more than one block of distances in memory.
    """
    m = x.shape[0]
    width = min(k + 8, m - 1)
    nbr = np.empty((m, k), dtype=np.intp)
    kth = np.empty(m)
    for s in range(0, m, _BLOCK):
        e = min(s + _BLOCK, m)
        nbr[s:e], kth[s:e] = _knn_block(x, s, e, k, width)
    return nbr, kth


def _jitter(x: np.ndarray) -> np.ndarray:
    """x plus a deterministic jitter of _JITTER_SCALE times each axis's range."""
    rng = np.random.default_rng(_JITTER_SEED)
    span = x.max(axis=0) - x.min(axis=0)
    span = np.where(span > 0.0, span, 1.0)
    return x + rng.standard_normal(x.shape) * (_JITTER_SCALE * span)


class KnnGraph:
    """Frozen neighborhood structure of a particle set.

    Computed once per outer iteration; the inner policy loop only reweights
    particles, so neighbor sets and ball volumes stay valid.
    """

    def __init__(self, ps: ParticleSet, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if ps.m <= k:
            raise ValueError(f"need more than k={k} particles, got M={ps.m}")
        x = ps.points
        # a point with k exact copies has a zero k-th distance: jitter first
        dup = np.unique(x, axis=0, return_counts=True)[1].max() > k
        nbr, kth = _knn_search(_jitter(x) if dup else x, k)
        if (kth == 0.0).any() and not dup:
            # nearly equal points whose squared distance underflows
            nbr, kth = _knn_search(_jitter(x), k)
        if (kth == 0.0).any():
            raise RuntimeError("zero k-th neighbor distance persists after jitter")
        self.m = ps.m
        self.dim = ps.dim
        self.k = k
        self.neighbors = nbr
        self.kth_dist = kth
        # ln V_i, with V_i the volume of the ball reaching the k-th neighbor
        self.log_vol = math.log(knn_volume(1.0, self.dim)) + self.dim * np.log(kth)
        self._bias = math.log(k) - digamma(float(k))

    def entropy(self) -> float:
        # H_k = -(1/M) sum_i ln(k / (M V_i)) + ln k - psi(k)
        s = math.log(self.k) - math.log(self.m) - self.log_vol
        return float(-np.mean(s) + self._bias)

    def iw_entropy(self, ws: ImportanceWeightSet) -> float:
        # H_k = -sum_i (W_i / k) ln(W_i / V_i) + ln k - psi(k)
        s = self._iw_sum(ws)
        return float(-s + self._bias)

    def kl_estimate(self, ws: ImportanceWeightSet) -> float:
        # entropy() - iw_entropy(ws) as a direct difference of the two sums,
        # so the ln k - psi(k) bias cancels; 0 at uniform weights
        plain = -np.mean(math.log(self.k) - math.log(self.m) - self.log_vol)
        return float(plain + self._iw_sum(ws))

    def _iw_sum(self, ws: ImportanceWeightSet) -> float:
        w = ws.weights
        if w.shape[0] != self.m:
            raise ValueError(f"expected {self.m} weights, got {w.shape[0]}")
        big = w[self.neighbors].sum(axis=1)
        pos = big > 0.0
        terms = np.zeros(self.m)
        terms[pos] = (big[pos] / self.k) * (np.log(big[pos]) - self.log_vol[pos])
        return float(terms.sum())

    def neighbor_weight_sums(self, w: np.ndarray) -> np.ndarray:
        return w[self.neighbors].sum(axis=1)


# ---------------------------------------------------------------------------
# discretized visitation entropy

@dataclass
class VisitationGrid:
    """2-d visit-count histogram over fixed axis ranges.

    Out-of-range states are clipped into the edge bins so every visit counts.
    """

    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray

    @classmethod
    def empty(cls, lo, hi, bins) -> "VisitationGrid":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        bins = np.asarray(bins, dtype=int)
        if lo.shape != (2,) or hi.shape != (2,) or bins.shape != (2,):
            raise ValueError("grid is 2-d: lo, hi, bins must each have length 2")
        if (hi <= lo).any() or (bins < 1).any():
            raise ValueError("need hi > lo and bins >= 1")
        return cls(lo=lo, hi=hi, counts=np.zeros(tuple(bins), dtype=np.int64))

    @property
    def bins(self) -> tuple:
        return self.counts.shape

    def add(self, pts: np.ndarray) -> None:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != 2:
            raise ValueError("visitation grid takes 2-d points")
        nb = np.asarray(self.counts.shape)
        scaled = (pts - self.lo) / (self.hi - self.lo) * nb
        idx = np.clip(np.floor(scaled).astype(int), 0, nb - 1)
        np.add.at(self.counts, (idx[:, 0], idx[:, 1]), 1)

    def entropy(self) -> float:
        return state_entropy_metric(self)


def state_entropy_metric(grid: VisitationGrid) -> float:
    """Shannon entropy (natural log) of the normalized visit histogram."""
    total = grid.counts.sum()
    if total <= 0:
        raise ValueError("visitation grid is empty")
    p = grid.counts[grid.counts > 0] / float(total)
    return float(-(p * np.log(p)).sum())
