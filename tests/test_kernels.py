"""Fading-kernel tests.

The kernel must consume the exponential stream in the documented order, so a
one-shot numpy reference written here pins the layout contract.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

import irsplan
from irsplan import _kernels, simulation
from irsplan.channel import (IrsSpec, LinkGeometry, RadioConfig,
                             composite_stats, mean_gains_irs)

GAINS = (8.1651441475e-11, 4.1470057040e-10, 2.4284918203e-11)  # g_i, g_r, g_d


def _philox(seed, stream):
    return np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))


def reference_tail_stats(bit_generator, n, N, g_i, g_r, g_d, z2_min):
    """One-shot restatement of the documented draw layout."""
    rng = np.random.Generator(bit_generator)
    e = rng.standard_exponential((n, 2 * N + 1))
    x = np.sqrt(e[:, 0:2 * N:2] * e[:, 1:2 * N:2]).sum(axis=1)
    z = math.sqrt(g_i * g_r) * x + np.sqrt(g_d * e[:, 2 * N])
    z2 = z * z
    return int((z2 >= z2_min).sum()), float(z2.sum()), float((z2 * z2).sum())


class TestLayoutContract:
    def test_numpy_backend_matches_reference(self):
        g_i, g_r, g_d = GAINS
        thr = 2.5e-11
        got = _kernels.exact_tail_stats(_philox(7, 3), 4000, 50,
                                        g_i, g_r, g_d, thr)
        want = reference_tail_stats(_philox(7, 3), 4000, 50, g_i, g_r, g_d, thr)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        assert got[2] == pytest.approx(want[2], rel=1e-12)

    def test_chunking_invariance(self, monkeypatch):
        g_i, g_r, g_d = GAINS
        one_shot = _kernels.exact_tail_stats(_philox(11, 0), 3000, 20,
                                             g_i, g_r, g_d, 2e-11)
        monkeypatch.setattr(_kernels, "_CHUNK_TARGET", 900)
        chunked = _kernels.exact_tail_stats(_philox(11, 0), 3000, 20,
                                            g_i, g_r, g_d, 2e-11)
        assert chunked[0] == one_shot[0]
        assert chunked[1] == pytest.approx(one_shot[1], rel=1e-12)
        assert chunked[2] == pytest.approx(one_shot[2], rel=1e-12)

    def test_zero_elements_is_direct_only(self):
        _, _, g_d = GAINS
        thr = 1.5 * g_d
        n = 200_000
        count, s2, _ = _kernels.exact_tail_stats(_philox(3, 9), n, 0,
                                                 0.0, 0.0, g_d, thr)
        # Z^2 = g_d * exponential, so the tail is exp(-thr / g_d)
        expect = math.exp(-thr / g_d)
        assert count / n == pytest.approx(expect, abs=4.0 * math.sqrt(expect / n))
        assert s2 / n == pytest.approx(g_d, rel=0.02)

    def test_repeatable(self):
        g_i, g_r, g_d = GAINS
        a = _kernels.exact_tail_stats(_philox(5, 2), 3000, 100, g_i, g_r, g_d, 1e-11)
        b = _kernels.exact_tail_stats(_philox(5, 2), 3000, 100, g_i, g_r, g_d, 1e-11)
        assert a == b

    def test_zero_threshold_counts_everything(self):
        g_i, g_r, g_d = GAINS
        count, _, _ = _kernels.exact_tail_stats(_philox(1, 1), 1234, 30,
                                                g_i, g_r, g_d, 0.0)
        assert count == 1234

    def test_unit_draws_follow_the_layout(self, monkeypatch):
        # the one draw routine returns the reference's unit cascade and direct
        # draw, in stream order, however the stream is chunked
        n, N = 700, 12
        e = np.random.Generator(_philox(9, 4)).standard_exponential((n, 2 * N + 1))
        monkeypatch.setattr(_kernels, "_CHUNK_TARGET", 1000)
        assert n > _kernels._CHUNK_TARGET // (2 * N + 1) > 1  # several chunks of 40 rows
        x, direct = _kernels.exact_unit_draws(_philox(9, 4), n, N)
        assert np.array_equal(x, np.sqrt(e[:, 0:2 * N:2] * e[:, 1:2 * N:2]).sum(axis=1))
        assert np.array_equal(direct, e[:, 2 * N])

    @pytest.mark.parametrize("n_draws, n_elems", [(2000, 2000), (2, 2_500_000)])
    def test_byte_count_covers_the_draw(self, n_draws, n_elems):
        # unit_draw_bytes is what the draw holds besides x and e, also when one
        # realization is wider than a chunk
        _kernels.exact_unit_draws(_philox(2, 1), n_draws, n_elems)  # one-off allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            x, e = _kernels.exact_unit_draws(_philox(2, 1), n_draws, n_elems)
            held = tracemalloc.get_traced_memory()[1] - base - x.nbytes - e.nbytes
        finally:
            tracemalloc.stop()
        assert held <= _kernels.unit_draw_bytes(n_draws, n_elems) <= 1.1 * held

    def test_benchmark_hooks(self):
        # perfbench reads the backend name and wraps these names, reading
        # their positional arguments; the MC bank draws through the kernel
        assert irsplan.KERNEL_BACKEND == "numpy"
        assert list(inspect.signature(_kernels.exact_tail_stats).parameters)[:3] == \
            ["bit_generator", "n_draws", "n_elems"]
        assert list(inspect.signature(simulation.simulate_ue_successes).parameters) == \
            ["cfg", "irs", "topo", "eta0", "mc", "topo_idx"]
        assert simulation.exact_unit_draws is _kernels.exact_unit_draws


class TestMomentSanity:
    def test_small_n_moments_match_analytics(self):
        cfg = RadioConfig()
        irs = IrsSpec(60)
        geom = LinkGeometry(150.0, 100.0, 52.0)
        g = mean_gains_irs(cfg, geom)
        st = composite_stats(cfg, irs, geom)
        n = 400_000
        _, s2, s4 = _kernels.exact_tail_stats(_philox(77, 0), n, irs.N,
                                              g.g_i, g.g_r, g.g_d, np.inf)
        mean = s2 / n
        var = s4 / n - mean * mean
        assert mean == pytest.approx(st.mean_Z2, rel=4.0 / math.sqrt(st.alpha * n))
        assert var == pytest.approx(st.var_Z2, rel=0.03)

    def test_tail_count_matches_gamma_model(self):
        # the Gamma fit is approximate; at moderate thresholds it should sit
        # within a few percent of the empirical tail
        from irsplan.numerics import reg_upper_gamma
        cfg = RadioConfig()
        irs = IrsSpec(500)
        geom = LinkGeometry(180.0, 120.0, 70.0)
        g = mean_gains_irs(cfg, geom)
        st = composite_stats(cfg, irs, geom)
        thr = st.mean_Z2  # threshold at the mean, tail ~ 0.4-0.5
        n = 200_000
        count, _, _ = _kernels.exact_tail_stats(_philox(13, 4), n, irs.N,
                                                g.g_i, g.g_r, g.g_d, thr)
        model = reg_upper_gamma(st.alpha, st.beta * thr)
        assert count / n == pytest.approx(model, abs=0.02)
