"""Gradient and optimizer tests.

The oracle for every backward path is central finite differences over the
parameters (or raw head inputs) of the corresponding scalar loss.
"""

import math

import numpy as np
import pytest
import scipy.stats

from dial.nets import (
    AdamState,
    BetaHead,
    GaussianHead,
    Mlp,
    load_checkpoint,
    load_mlp,
    mlp_tensors,
    save_checkpoint,
    sigmoid,
    softplus,
)


def fd_param_grad(loss_fn, params, h=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = loss_fn()
            flat[i] = old - h
            dn = loss_fn()
            flat[i] = old
            gf[i] = (up - dn) / (2.0 * h)
        grads.append(g)
    return grads


class TestMlp:
    def test_init_bounds(self):
        rng = np.random.default_rng(0)
        net = Mlp(5, 16, 3, rng)
        sizes = [5, 16, 16, 3]
        for w, fi, fo in zip(net.weights, sizes[:-1], sizes[1:]):
            bound = math.sqrt(6.0 / (fi + fo))
            assert np.abs(w).max() <= bound
            assert w.shape == (fi, fo)
        for b in net.biases:
            assert not b.any()

    def test_forward_shapes(self):
        rng = np.random.default_rng(1)
        net = Mlp(3, 8, 2, rng)
        assert net.forward(np.zeros(3)).shape == (2,)
        assert net.forward(np.zeros((7, 3))).shape == (7, 2)

    def test_backward_matches_fd_linear_loss(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            net = Mlp(3, 6, 2, rng)
            x = rng.normal(size=(4, 3))
            c = rng.normal(size=(4, 2))

            def loss():
                return float((net.forward(x) * c).sum())

            loss()
            got = net.backward(c)
            want = fd_param_grad(loss, net.params())
            for g, w in zip(got, want):
                denom = max(1.0, float(np.abs(w).max()))
                assert np.abs(g - w).max() / denom < 1e-6, f"trial {trial}"

    def test_backward_matches_fd_quadratic_loss(self):
        rng = np.random.default_rng(3)
        net = Mlp(4, 5, 3, rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss():
            d = net.forward(x) - target
            return float((d * d).sum())

        out = net.forward(x)
        got = net.backward(2.0 * (out - target))
        want = fd_param_grad(loss, net.params())
        for g, w in zip(got, want):
            denom = max(1.0, float(np.abs(w).max()))
            assert np.abs(g - w).max() / denom < 1e-6

    @pytest.mark.parametrize("in_dim,hidden,out_dim",
                             [(2, 8, 4), (2, 64, 2), (4, 16, 2), (4, 65, 2)])
    def test_forward_rows_is_one_row_forward_per_row(self, in_dim, hidden, out_dim):
        # the envs' policy shapes (obs 2 or 4, out 2 x action dim); one
        # (n, k) @ W does not round every row as a one-row call does
        rng = np.random.default_rng(hidden)
        net = Mlp(in_dim, hidden, out_dim, rng)
        for b in net.biases:
            b[:] = rng.normal(scale=0.1, size=b.shape)
        x = rng.normal(size=(33, in_dim))
        for rows in (x, x[::3], x[5:6], x[[7, 2, 30, 2]], x[:20]):
            got = net.forward_rows(rows)
            assert got.shape == (len(rows), out_dim)
            for i, r in enumerate(rows):
                assert got[i].tobytes() == net.forward(r).tobytes()

    def test_forward_rows_keeps_the_backward_cache(self):
        rng = np.random.default_rng(4)
        net = Mlp(2, 8, 2, rng)
        x = rng.normal(size=(5, 2))
        net.forward(x)
        want = net.backward(np.ones((5, 2)))
        net.forward_rows(rng.normal(size=(3, 2)))
        for g, w in zip(net.backward(np.ones((5, 2))), want):
            assert np.array_equal(g, w)

    def test_backward_before_forward_raises(self):
        net = Mlp(2, 4, 1, np.random.default_rng(5))
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 1)))


class TestAdam:
    def test_first_step_closed_form(self):
        # with zero moments one step is -lr * g / (|g| + eps)
        p = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.7, 0.01])
        opt = AdamState([p], lr=1e-3)
        before = p.copy()
        opt.step([p], [g])
        want = before - 1e-3 * g / (np.abs(g) + 1e-8)
        assert np.abs(p - want).max() < 1e-12

    def test_two_steps_hand_rolled(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        p = np.array([0.0])
        opt = AdamState([p], lr=lr)
        m = v = 0.0
        ref = 0.0
        for t in (1, 2):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            opt.step([p], [np.array([g])])
        assert abs(p[0] - ref) < 1e-15

    def test_step_magnitude_bounded(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(50,))
        opt = AdamState([p], lr=1e-2)
        for _ in range(20):
            before = p.copy()
            opt.step([p], [rng.normal(size=(50,)) * 100.0])
            assert np.abs(p - before).max() < 1e-2 * 1.1

    def test_length_mismatch(self):
        p = np.zeros(3)
        opt = AdamState([p], lr=1e-3)
        with pytest.raises(ValueError):
            opt.step([p], [np.zeros(3), np.zeros(2)])


class TestGaussianHead:
    def make(self):
        return GaussianHead(low=[-2.0, -1.0], high=[2.0, 3.0])

    def test_mean_stays_in_box(self):
        head = self.make()
        raw = np.array([[50.0, -50.0, 0.0, 0.0], [-50.0, 50.0, -5.0, 9.0]])
        mu, sd = head.split(raw)
        assert (mu >= head.low - 1e-12).all() and (mu <= head.high + 1e-12).all()
        assert (sd >= head.std_floor).all()

    def test_log_prob_matches_scipy(self):
        head = self.make()
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(5, 4))
        a = rng.normal(size=(5, 2))
        mu, sd = head.split(raw)
        got = head.log_prob(raw, a)
        want = scipy.stats.norm.logpdf(a, mu, sd).sum(axis=1)
        assert np.abs(got - want).max() < 1e-10

    def test_sample_is_unclipped_gaussian(self):
        head = self.make()
        raw = np.tile(np.array([0.0, 0.0, 5.0, 5.0]), (2000, 1))  # huge std
        a = head.sample(raw, np.random.default_rng(8))
        mu, sd = head.split(raw)
        z = np.random.default_rng(8).standard_normal(mu.shape)
        assert np.array_equal(a, mu + sd * z)
        # the env clips, not the head
        assert ((a < head.low) | (a > head.high)).any()

    def test_log_prob_backward_fd(self):
        head = self.make()
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(3, 4))
        a = rng.normal(size=(3, 2))
        coeff = rng.normal(size=3)
        got = head.log_prob_backward(raw, a, coeff)
        h = 1e-6
        want = np.zeros_like(raw)
        for i in range(raw.shape[0]):
            for j in range(raw.shape[1]):
                up = raw.copy(); up[i, j] += h
                dn = raw.copy(); dn[i, j] -= h
                want[i, j] = coeff[i] * (head.log_prob(up, a)[i] - head.log_prob(dn, a)[i]) / (2 * h)
        assert np.abs(got - want).max() < 1e-5

    def test_entropy_and_backward(self):
        head = self.make()
        rng = np.random.default_rng(10)
        raw = rng.normal(size=(4, 4))
        _, sd = head.split(raw)
        want = scipy.stats.norm.entropy(scale=sd).sum(axis=1)
        assert np.abs(head.entropy(raw) - want).max() < 1e-10
        coeff = rng.normal(size=4)
        got = head.entropy_backward(raw, coeff)
        h = 1e-6
        for i in range(4):
            for j in range(4):
                up = raw.copy(); up[i, j] += h
                dn = raw.copy(); dn[i, j] -= h
                fd = coeff[i] * (head.entropy(up)[i] - head.entropy(dn)[i]) / (2 * h)
                assert abs(got[i, j] - fd) < 1e-5

    def test_policy_chain_fd_through_net(self):
        # full path: params -> net raw -> head logp; oracle is FD over params
        rng = np.random.default_rng(11)
        head = self.make()
        net = Mlp(3, 5, 4, rng)
        x = rng.normal(size=(4, 3))
        a = rng.normal(size=(4, 2))
        coeff = rng.normal(size=4)

        def loss():
            return float((head.log_prob(net.forward(x), a) * coeff).sum())

        raw = net.forward(x)
        got = net.backward(head.log_prob_backward(raw, a, coeff))
        want = fd_param_grad(loss, net.params())
        for g, w in zip(got, want):
            denom = max(1.0, float(np.abs(w).max()))
            assert np.abs(g - w).max() / denom < 1e-5


class TestBetaHead:
    def test_floor_and_softplus(self):
        head = BetaHead()
        raw = np.array([[-50.0, 0.0], [3.0, -3.0]])
        a = head.alphas(raw)
        assert (a >= 1e-3).all()
        assert abs(a[0, 1] - (math.log(2.0) + 1e-3)) < 1e-12
        assert abs(a[1, 0] - (softplus(3.0) + 1e-3)) < 1e-12

    def test_backward_fd(self):
        head = BetaHead()
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(5, 2))
        c = rng.normal(size=(5, 2))
        got = head.backward(raw, c)
        h = 1e-6
        want = c * (head.alphas(raw + h) - head.alphas(raw - h)) / (2 * h)
        assert np.abs(got - want).max() < 1e-6


class TestHelpers:
    def test_softplus_stable(self):
        assert softplus(1000.0) == 1000.0
        assert softplus(-1000.0) == 0.0
        assert abs(softplus(0.0) - math.log(2.0)) < 1e-15

    def test_sigmoid_matches_expit(self):
        rng = np.random.default_rng(13)
        x = rng.normal(scale=10.0, size=200)
        got = sigmoid(x)
        want = scipy.special.expit(x)
        assert np.abs(got - want).max() < 1e-12


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        net = Mlp(3, 4, 2, rng)
        tensors = mlp_tensors(net, "pi")
        tensors["extra"] = np.arange(6, dtype=np.int64).reshape(2, 3)
        meta = {"step": 17, "env": "basic_nav", "cfg_hash": "abc"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors, meta)
        back, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for name, arr in tensors.items():
            assert np.array_equal(back[name], arr), name
        other = Mlp(3, 4, 2, np.random.default_rng(99))
        load_mlp(other, back, "pi")
        for a, b in zip(other.params(), net.params()):
            assert np.array_equal(a, b)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((8, 8))}, {})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 32])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPTxxxxxxxxxxxxxxxx")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_shape_mismatch_raises(self, tmp_path):
        rng = np.random.default_rng(15)
        net = Mlp(3, 4, 2, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp_tensors(net, "pi"), {})
        tensors, _ = load_checkpoint(path)
        wrong = Mlp(3, 8, 2, rng)
        with pytest.raises(ValueError):
            load_mlp(wrong, tensors, "pi")
