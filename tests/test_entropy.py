"""Entropy estimator tests.

The oracle is a literal transcription of the estimator definitions using
python loops and sorted (distance, index) pairs, written independently of the
vectorized implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from dial import entropy
from dial.entropy import (
    ImportanceWeightSet,
    KnnGraph,
    ParticleSet,
    VisitationGrid,
    knn_volume,
    state_entropy_metric,
)

EULER = 0.5772156649015328606


def uniform_weights(m):
    return ImportanceWeightSet(np.full(m, 1.0 / m))


def oracle_neighbors(x, i, k):
    """k nearest neighbors of x[i] by (distance, index) order."""
    pairs = sorted(
        (math.dist(x[i], x[j]), j) for j in range(len(x)) if j != i)
    return pairs[:k]


def oracle_knn_entropy(x, k):
    m, dim = x.shape
    unit = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    acc = 0.0
    for i in range(m):
        r = oracle_neighbors(x, i, k)[k - 1][0]
        v = unit * r ** dim
        acc += math.log(k / (m * v))
    return -acc / m + math.log(k) - scipy.special.digamma(k)


def oracle_iw_knn_entropy(x, w, k):
    m, dim = x.shape
    unit = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    acc = 0.0
    for i in range(m):
        nb = oracle_neighbors(x, i, k)
        r = nb[k - 1][0]
        v = unit * r ** dim
        big = sum(w[j] for _, j in nb)
        if big > 0.0:
            acc += (big / k) * math.log(big / v)
    return -acc + math.log(k) - scipy.special.digamma(k)


def full_matrix_knn(x, k):
    """The whole M x M squared-distance matrix, self excluded, each row
    sorted stably so that ties keep index order: (neighbor idx, kth dist)."""
    m = len(x)
    d2 = np.zeros((m, m))
    for j in range(x.shape[1]):
        d2 += (x[:, j, None] - x[None, :, j]) ** 2
    np.fill_diagonal(d2, np.inf)
    nbr = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return nbr, np.sqrt(d2[np.arange(m), nbr[:, -1]])


class TestVolume:
    def test_unit_disc(self):
        assert abs(knn_volume(1.0, 2) - math.pi) < 1e-12

    def test_interval(self):
        assert abs(knn_volume(2.0, 1) - 4.0) < 1e-12

    def test_ball(self):
        assert abs(knn_volume(1.5, 3) - 4.0 / 3.0 * math.pi * 1.5 ** 3) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            knn_volume(-1.0, 2)
        with pytest.raises(ValueError):
            knn_volume(1.0, 0)


class TestKnnEntropy:
    def test_five_point_line(self):
        # evenly spaced 1-d points: every 1-nn distance is the spacing h,
        # each ball has length 2h, so the estimate is ln(2Mh) - psi(1)
        h = 0.35
        x = (np.arange(5, dtype=float) * h)[:, None]
        got = KnnGraph(ParticleSet(x), 1).entropy()
        want = math.log(2 * 5 * h) - math.log(1) * 0 + 0.0 + math.log(1) - scipy.special.digamma(1)
        want = -sum(math.log(1 / (5 * 2 * h)) for _ in range(5)) / 5 + math.log(1) - scipy.special.digamma(1)
        assert abs(got - want) < 1e-12
        assert abs(got - (math.log(10 * h) + EULER)) < 1e-12

    def test_matches_oracle_random_sets(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            m = int(rng.integers(12, 60))
            dim = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            x = rng.normal(size=(m, dim))
            got = KnnGraph(ParticleSet(x), k).entropy()
            want = oracle_knn_entropy(x, k)
            assert abs(got - want) < 1e-12

    def test_uniform_square_rough(self):
        # quick statistical sanity at moderate M; the full-size check with
        # the documented tolerance lives in the acceptance suite
        vals = []
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0.0, 1.0, size=(1024, 2))
            vals.append(KnnGraph(ParticleSet(x), 4).entropy())
        assert abs(np.mean(vals)) < 0.15

    def test_scaling_shifts_by_log_volume(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(256, 2))
        h1 = KnnGraph(ParticleSet(x), 4).entropy()
        h2 = KnnGraph(ParticleSet(2.0 * x), 4).entropy()
        assert abs(h2 - h1 - 2.0 * math.log(2.0)) < 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(512, 2))
        h1 = KnnGraph(ParticleSet(x), 4).entropy()
        h2 = KnnGraph(ParticleSet(x + 3.7), 4).entropy()
        assert abs(h2 - h1) < 1e-12

    def test_duplicates_take_jitter_path(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                      [0.5, 0.5], [0.5, 0.5]])
        a = KnnGraph(ParticleSet(x), 1).entropy()
        b = KnnGraph(ParticleSet(x), 1).entropy()
        assert math.isfinite(a)
        assert a == b, "jitter must be deterministic"

    def test_too_few_particles(self):
        with pytest.raises(ValueError):
            KnnGraph(ParticleSet(np.zeros((4, 2))), 4)


class TestBlockSearch:
    """entropy._knn_search works _BLOCK rows at a time; it must agree with the
    whole-matrix reference and the (distance, index) oracle across block
    edges, partial last blocks and ties."""

    def check(self, x, k, bitwise):
        nbr, kth = entropy._knn_search(x, k)
        ref_nbr, ref_kth = full_matrix_knn(x, k)
        assert np.array_equal(nbr, ref_nbr)
        if bitwise:
            assert np.array_equal(kth, ref_kth)
        else:
            np.testing.assert_allclose(kth, ref_kth, rtol=1e-15, atol=0.0)
        edge = entropy._BLOCK
        for i in {0, edge - 1, edge, edge + 1, len(x) - 1}:
            if i < len(x):
                pairs = oracle_neighbors(x, i, k)
                assert [j for _, j in pairs] == nbr[i].tolist()
                assert kth[i] == pytest.approx(pairs[-1][0], rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("m", [257, 600, 2048])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_random_sets(self, m, dim):
        rng = np.random.default_rng(m * 10 + dim)
        self.check(rng.normal(size=(m, dim)), 4, bitwise=dim <= 2)

    @pytest.mark.parametrize("shape", [(600,), (24, 25), (5, 5, 5, 5)])
    def test_lattice_ties_across_block_edges(self, shape):
        # a shuffled lattice: every row's k-th neighbor is one of a ring of
        # equidistant points, whose indices straddle the block edges; each
        # ring is smaller than the k + 8 candidates kept per row
        axes = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
        x = np.stack([a.ravel() for a in axes], axis=1) * 0.25 - 1.0
        x = x[np.random.default_rng(len(shape)).permutation(len(x))]
        self.check(x, 5, bitwise=True)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ties_wider_than_the_candidates(self, dim):
        # 600 points on 9 values per coordinate: a row's tie at the k-th
        # distance often holds more points than the k + 8 candidates kept
        x = np.random.default_rng(70 + dim).integers(0, 9, size=(600, dim)) * 1.0
        self.check(x, 5, bitwise=True)

    def test_sort_branch(self):
        # m - 1 <= k + 8 keeps every other point as a candidate: the
        # partition drops only self, the one inf in its row
        rng = np.random.default_rng(41)
        self.check(rng.normal(size=(12, 2)), 4, bitwise=True)
        self.check(rng.integers(0, 5, size=(260, 2)) * 1.0, 252, bitwise=True)

    def test_jitter_path_matches_reference(self):
        rng = np.random.default_rng(42)
        x = np.repeat(rng.normal(size=(120, 2)), 5, axis=0)
        graph = KnnGraph(ParticleSet(x), 4)
        span = x.max(axis=0) - x.min(axis=0)
        noise = np.random.default_rng(entropy._JITTER_SEED).standard_normal(x.shape)
        nbr, kth = full_matrix_knn(x + noise * (entropy._JITTER_SCALE * span), 4)
        assert np.array_equal(graph.neighbors, nbr)
        assert np.array_equal(graph.kth_dist, kth)

    @staticmethod
    def counted_search(monkeypatch):
        calls = []
        search = entropy._knn_search

        def counted(x, k):
            calls.append(len(x))
            return search(x, k)

        monkeypatch.setattr(entropy, "_knn_search", counted)
        return calls

    def test_forced_jitter_searches_once(self, monkeypatch):
        # one point with k + 1 copies: the reference searches, finds a zero
        # k-th distance, jitters and searches again; the graph jitters first
        rng = np.random.default_rng(44)
        k = 4
        x = np.concatenate([rng.normal(size=(60, 2)), np.repeat([[0.3, -0.2]], k + 1, axis=0)])
        x = x[rng.permutation(len(x))]
        first = entropy._knn_search(x, k)[1]
        assert (first == 0.0).any()
        span = x.max(axis=0) - x.min(axis=0)
        noise = np.random.default_rng(entropy._JITTER_SEED).standard_normal(x.shape)
        ref_nbr, ref_kth = entropy._knn_search(x + noise * (entropy._JITTER_SCALE * span), k)
        ref_log_vol = math.log(knn_volume(1.0, 2)) + 2 * np.log(ref_kth)
        calls = self.counted_search(monkeypatch)
        graph = KnnGraph(ParticleSet(x), k)
        assert calls == [len(x)]
        assert graph.neighbors.tobytes() == ref_nbr.tobytes()
        assert graph.kth_dist.tobytes() == ref_kth.tobytes()
        assert graph.log_vol.tobytes() == ref_log_vol.tobytes()

    def test_k_copies_search_unjittered(self, monkeypatch):
        # k copies of a point leave its k-th neighbor at a positive distance
        rng = np.random.default_rng(45)
        x = np.concatenate([rng.normal(size=(30, 2)), np.repeat([[0.1, 0.1]], 3, axis=0)])
        calls = self.counted_search(monkeypatch)
        graph = KnnGraph(ParticleSet(x), 3)
        assert calls == [len(x)]
        assert np.array_equal(graph.kth_dist, full_matrix_knn(x, 3)[1])

    def test_underflowing_distance_jitters_after_search(self, monkeypatch):
        # distinct points whose squared distance underflows to zero
        rng = np.random.default_rng(46)
        x = np.concatenate([[[0.0, 0.0], [1e-170, 0.0]], rng.normal(size=(20, 2))])
        calls = self.counted_search(monkeypatch)
        graph = KnnGraph(ParticleSet(x), 1)
        assert calls == [len(x), len(x)]
        assert (graph.kth_dist > 0.0).all()

    def test_memory_is_one_block(self):
        x = np.random.default_rng(43).normal(size=(2048, 2))
        tracemalloc.start()
        try:
            KnnGraph(ParticleSet(x), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole matrix alone was 2048^2 doubles, 33.6 MB; one block of
        # distances and its partition indices are about 1 MB
        assert peak < 4e6


class TestIwEntropy:
    def test_uniform_weights_reduce_to_plain(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(10, 40))
            dim = int(rng.integers(1, 4))
            x = rng.normal(size=(m, dim))
            plain = KnnGraph(ParticleSet(x), 4 if m > 4 else 2).entropy()
            k = 4 if m > 4 else 2
            iw = KnnGraph(ParticleSet(x), k).iw_entropy(uniform_weights(m))
            assert abs(plain - iw) < 1e-12

    def test_matches_oracle_random_weights(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(12, 50))
            x = rng.normal(size=(m, 2))
            w = rng.uniform(0.0, 1.0, m)
            w /= w.sum()
            got = KnnGraph(ParticleSet(x), 3).iw_entropy(ImportanceWeightSet(w))
            want = oracle_iw_knn_entropy(x, w, 3)
            assert abs(got - want) < 1e-12

    def test_concentrated_weights_lower_estimate(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(64, 2))
        m = x.shape[0]
        # pile almost all weight on the two most separated particles
        d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        i, j = np.unravel_index(np.argmax(d), d.shape)
        w = np.full(m, 1e-4)
        w[i] = w[j] = (1.0 - (m - 2) * 1e-4) / 2.0
        uni = KnnGraph(ParticleSet(x), 4).iw_entropy(uniform_weights(m))
        conc = KnnGraph(ParticleSet(x), 4).iw_entropy(ImportanceWeightSet(w))
        assert conc < uni

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ImportanceWeightSet(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            ImportanceWeightSet(np.array([-0.1, 1.1]))
        ps = ParticleSet(np.random.default_rng(0).normal(size=(10, 2)))
        with pytest.raises(ValueError):
            KnnGraph(ps, 2).iw_entropy(uniform_weights(9))


class TestKlEstimate:
    def test_uniform_weights_give_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = int(rng.integers(10, 60))
            x = rng.normal(size=(m, 2))
            d = KnnGraph(ParticleSet(x), 4).kl_estimate(uniform_weights(m))
            assert abs(d) < 1e-12

    def test_concentration_is_positive(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(size=(80, 2))
        w = np.full(80, 1e-5)
        w[:4] = (1.0 - 76 * 1e-5) / 4.0
        d = KnnGraph(ParticleSet(x), 4).kl_estimate(ImportanceWeightSet(w))
        assert d > 0.0

    def test_equals_entropy_difference(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 2))
        w = rng.uniform(0.2, 1.0, 50)
        w /= w.sum()
        ps = ParticleSet(x)
        ws = ImportanceWeightSet(w)
        graph = KnnGraph(ps, 3)
        d = graph.kl_estimate(ws)
        diff = graph.entropy() - graph.iw_entropy(ws)
        assert abs(d - diff) < 1e-12


class TestVisitationGrid:
    def test_uniform_counts_entropy(self):
        g = VisitationGrid.empty([0.0, 0.0], [1.0, 1.0], [24, 22])
        g.counts[:] = 3
        assert abs(state_entropy_metric(g) - math.log(24 * 22)) < 1e-12

    def test_single_cell(self):
        g = VisitationGrid.empty([0.0, 0.0], [1.0, 1.0], [8, 8])
        g.add(np.array([[0.05, 0.05]] * 17))
        assert state_entropy_metric(g) == 0.0

    def test_hand_computed_split(self):
        g = VisitationGrid.empty([0.0, 0.0], [1.0, 1.0], [2, 1])
        g.add(np.array([[0.1, 0.5]] * 3 + [[0.9, 0.5]]))
        want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert abs(state_entropy_metric(g) - want) < 1e-12

    def test_out_of_range_clips_to_edge(self):
        g = VisitationGrid.empty([0.0, 0.0], [1.0, 1.0], [4, 4])
        g.add(np.array([[-5.0, 0.5], [7.0, 0.5], [0.5, -2.0], [0.5, 99.0]]))
        assert g.counts.sum() == 4
        assert g.counts[0].sum() >= 1 and g.counts[3].sum() >= 1

    def test_empty_grid_raises(self):
        g = VisitationGrid.empty([0.0, 0.0], [1.0, 1.0], [4, 4])
        with pytest.raises(ValueError):
            state_entropy_metric(g)


class TestGraphReuse:
    def test_inner_loop_reuse_matches_fresh(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(60, 2))
        ps = ParticleSet(x)
        graph = KnnGraph(ps, 4)
        for _ in range(5):
            w = rng.uniform(0.1, 1.0, 60)
            w /= w.sum()
            ws = ImportanceWeightSet(w)
            assert abs(graph.kl_estimate(ws) - KnnGraph(ps, 4).kl_estimate(ws)) < 1e-15
