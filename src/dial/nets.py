"""Small neural nets with hand-written reverse-mode gradients.

Everything the training loops differentiate goes through one fixed topology:
input -> hidden -> hidden -> output with relu in between.  Heads transform
raw outputs into policy or distribution parameters and expose the matching
backward maps.  No autograd framework involved, which keeps the gradient
path auditable and the finite-difference tests meaningful.
"""

from __future__ import annotations

import json
import struct

import numpy as np

CKPT_MAGIC = b"DIALCKPT"


def softplus(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Mlp:
    """Fully connected net with two relu hidden layers.

    Weights start glorot-uniform, biases at zero.  forward caches
    activations; backward consumes the most recent forward's cache.
    """

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator):
        sizes = [in_dim, hidden, hidden, out_dim]
        self.weights = []
        self.biases = []
        for fi, fo in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (fi + fo))
            self.weights.append(rng.uniform(-bound, bound, size=(fi, fo)))
            self.biases.append(np.zeros(fo))
        self._cache = None

    def params(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        z1 = x @ self.weights[0] + self.biases[0]
        h1 = np.maximum(z1, 0.0)
        z2 = h1 @ self.weights[1] + self.biases[1]
        h2 = np.maximum(z2, 0.0)
        out = h2 @ self.weights[2] + self.biases[2]
        self._cache = (x, z1, h1, z2, h2)
        return out[0] if squeeze else out

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """forward over the rows of x, row i bit for bit forward(x[i]).

        The stacked product x[:, None, :] @ W hands each (1, k) slice to the
        one-row BLAS call that forward makes, where one (n, k) @ W may round
        a row differently depending on n. Leaves backward's cache alone.
        """
        h = np.asarray(x, dtype=float)[:, None, :]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < 2:
                h = np.maximum(h, 0.0)
        return h[:, 0]

    def release(self) -> None:
        """Drop backward's cache: every activation of the last forward."""
        self._cache = None

    def backward(self, dout: np.ndarray) -> list:
        """Gradients of sum(dout * out) w.r.t. params, in params() order."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, z1, h1, z2, h2 = self._cache
        dout = np.asarray(dout, dtype=float)
        if dout.ndim == 1:
            dout = dout[None, :]
        dw2 = h2.T @ dout
        db2 = dout.sum(axis=0)
        dh2 = dout @ self.weights[2].T
        dz2 = dh2 * (z2 > 0.0)
        dw1 = h1.T @ dz2
        db1 = dz2.sum(axis=0)
        dh1 = dz2 @ self.weights[1].T
        dz1 = dh1 * (z1 > 0.0)
        dw0 = x.T @ dz1
        db0 = dz1.sum(axis=0)
        return [dw0, db0, dw1, db1, dw2, db2]


class AdamState:
    """Adam moments for one parameter list; step() applies a descent update."""

    # moment decay rates and the denominator's guard
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list, grads: list) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient list length mismatch")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class GaussianHead:
    """Diagonal Gaussian over a box: tanh-scaled mean, softplus std with a floor.

    The box bounds the mean only.  Samples are not clipped: the environment
    clips an action to its box when it steps, and log densities are those
    of the unclipped Gaussian at the unclipped sample.
    """

    std_floor = 1e-4

    def __init__(self, low, high):
        self.low = np.asarray(low, dtype=float)
        self.high = np.asarray(high, dtype=float)
        if (self.high <= self.low).any():
            raise ValueError("need high > low per action dimension")
        self.center = 0.5 * (self.low + self.high)
        self.half = 0.5 * (self.high - self.low)
        self.dim = self.low.shape[0]

    def split(self, raw: np.ndarray):
        raw = np.asarray(raw, dtype=float)
        rm = raw[..., : self.dim]
        rs = raw[..., self.dim :]
        mu = self.center + self.half * np.tanh(rm)
        sd = softplus(rs) + self.std_floor
        return mu, sd

    def sample(self, raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """mu + sd * z for a standard normal z, unclipped."""
        mu, sd = self.split(raw)
        return mu + sd * rng.standard_normal(mu.shape)

    def log_prob(self, raw: np.ndarray, a_raw: np.ndarray) -> np.ndarray:
        mu, sd = self.split(raw)
        q = (a_raw - mu) / sd
        return (-0.5 * q * q - np.log(sd) - 0.5 * np.log(2.0 * np.pi)).sum(axis=-1)

    def log_prob_backward(self, raw: np.ndarray, a_raw: np.ndarray,
                          coeff: np.ndarray) -> np.ndarray:
        """d(sum coeff_b * logp_b)/d(raw), for fixed sampled actions."""
        raw = np.asarray(raw, dtype=float)
        mu, sd = self.split(raw)
        diff = a_raw - mu
        dmu = diff / (sd * sd)
        dsd = (diff * diff - sd * sd) / (sd ** 3)
        t = np.tanh(raw[..., : self.dim])
        draw_m = dmu * self.half * (1.0 - t * t)
        draw_s = dsd * sigmoid(raw[..., self.dim :])
        c = np.asarray(coeff, dtype=float)[..., None]
        return np.concatenate([draw_m * c, draw_s * c], axis=-1)

    def entropy(self, raw: np.ndarray) -> np.ndarray:
        _, sd = self.split(raw)
        return (0.5 * np.log(2.0 * np.pi * np.e) + np.log(sd)).sum(axis=-1)

    def entropy_backward(self, raw: np.ndarray, coeff) -> np.ndarray:
        """d(sum coeff_b * H_b)/d(raw)."""
        raw = np.asarray(raw, dtype=float)
        _, sd = self.split(raw)
        dsd = 1.0 / sd
        draw_s = dsd * sigmoid(raw[..., self.dim :])
        c = np.asarray(coeff, dtype=float)[..., None]
        out = np.zeros_like(raw)
        out[..., self.dim :] = draw_s * c
        return out


class BetaHead:
    """Maps a pair of raw outputs to Beta shape parameters via softplus + floor."""

    floor = 1e-3

    def alphas(self, raw: np.ndarray) -> np.ndarray:
        return softplus(raw) + self.floor

    def backward(self, raw: np.ndarray, dalpha: np.ndarray) -> np.ndarray:
        return np.asarray(dalpha, dtype=float) * sigmoid(raw)


# ---------------------------------------------------------------------------
# checkpoints: JSON header + packed little-endian arrays

def save_checkpoint(path, tensors: dict, meta: dict | None = None) -> None:
    entries = []
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype not in (np.float64, np.int64):
            arr = arr.astype(np.float64)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)})
        blobs.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    header = json.dumps({"version": 1, "meta": meta or {}, "tensors": entries},
                        sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Returns (tensors dict, meta dict).  Raises ValueError on malformed files."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<I", fh.read(4))
        try:
            header = json.loads(fh.read(hlen).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from exc
        if header.get("version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        tensors = {}
        for ent in header["tensors"]:
            dt = np.dtype(ent["dtype"]).newbyteorder("<")
            count = int(np.prod(ent["shape"])) if ent["shape"] else 1
            raw = fh.read(count * dt.itemsize)
            if len(raw) != count * dt.itemsize:
                raise ValueError(f"{path}: truncated tensor data for {ent['name']}")
            arr = np.frombuffer(raw, dtype=dt).astype(dt.newbyteorder("=")).reshape(ent["shape"])
            tensors[ent["name"]] = arr
    return tensors, header.get("meta", {})


def mlp_tensors(net: Mlp, prefix: str) -> dict:
    out = {}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b
    return out


def load_mlp(net: Mlp, tensors: dict, prefix: str) -> None:
    for i in range(3):
        w = tensors[f"{prefix}.w{i}"]
        b = tensors[f"{prefix}.b{i}"]
        if w.shape != net.weights[i].shape or b.shape != net.biases[i].shape:
            raise ValueError(
                f"checkpoint tensor {prefix}.w{i} has shape {w.shape}, "
                f"net expects {net.weights[i].shape}")
        net.weights[i][:] = w
        net.biases[i][:] = b
