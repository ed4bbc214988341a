import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kazvol import RandomStream, Tolerance, kappa, sphere_sample, wallis
from kazvol.numerics import chunks, proportion


class TestKappa:
    def test_small_dimensions(self):
        assert kappa(0) == 1.0
        assert kappa(1) == pytest.approx(2.0, rel=1e-15)
        assert kappa(2) == pytest.approx(math.pi, rel=1e-15)
        assert kappa(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
        assert kappa(4) == pytest.approx(math.pi**2 / 2, rel=1e-15)

    def test_even_dimension_closed_form(self):
        for ell in range(1, 12):
            assert kappa(2 * ell) * math.factorial(ell) == pytest.approx(
                math.pi**ell, rel=1e-13)

    def test_recursion(self):
        # kappa_n / kappa_{n-1} = sqrt(pi) * Gamma((n+1)/2) / Gamma(n/2 + 1).
        for n in range(1, 20):
            assert kappa(n) == pytest.approx(
                kappa(n - 1) * math.sqrt(math.pi)
                * math.gamma((n + 1) / 2) / math.gamma(n / 2 + 1), rel=1e-12)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            kappa(-1)


class TestWallis:
    def test_known_values(self):
        assert wallis(0) == pytest.approx(math.pi, rel=1e-15)
        assert wallis(1) == pytest.approx(2.0, rel=1e-15)
        assert wallis(2) == pytest.approx(math.pi / 2, rel=1e-15)
        assert wallis(3) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert wallis(5) == pytest.approx(16.0 / 15.0, rel=1e-15)

    @given(st.integers(min_value=0, max_value=60))
    def test_product_recursion(self, n):
        assert wallis(n) * wallis(n + 1) == pytest.approx(
            2 * math.pi / (n + 1), rel=1e-12)

    @given(st.integers(min_value=0, max_value=60))
    def test_decreasing(self, n):
        assert wallis(n + 1) < wallis(n)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rank_eps == 1e-9
        assert tol.geom_eps == 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rank_eps=0.0)
        with pytest.raises(ValueError):
            Tolerance(geom_eps=1.0)


class TestRandomStream:
    def test_deterministic(self):
        a = sphere_sample(4, RandomStream(7), 100)
        b = sphere_sample(4, RandomStream(7), 100)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        a = sphere_sample(4, RandomStream(7), 100)
        b = sphere_sample(4, RandomStream(8), 100)
        assert not np.allclose(a, b)

    def test_substreams_distinct(self):
        parent = RandomStream(42)
        ids = {parent.substream(i).stream_id for i in range(100)}
        assert len(ids) == 100
        nested = {parent.substream(i).substream(j).stream_id
                  for i in range(10) for j in range(10)}
        assert len(nested) == 100

    def test_unit_norm(self):
        pts = sphere_sample(6, RandomStream(1), 1000)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)

    def test_dim_one(self):
        pts = sphere_sample(1, RandomStream(1), 500)
        assert set(np.unique(pts)) <= {-1.0, 1.0}

    def test_mean_near_zero(self):
        pts = sphere_sample(4, RandomStream(3), 200_000)
        assert np.abs(pts.mean(axis=0)).max() < 5.0 / math.sqrt(200_000)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sphere_sample(0, RandomStream(1), 10)
        with pytest.raises(ValueError):
            sphere_sample(3, RandomStream(1), 0)


class TestChunks:
    @pytest.mark.parametrize("samples, counts", [
        (7, [7]),                 # fewer samples than one chunk
        (30, [10, 10, 10]),       # an exact multiple
        (25, [10, 10, 5]),
        (0, []),
    ])
    def test_counts(self, samples, counts):
        got = list(chunks(samples, RandomStream(3, 5), 10))
        assert [m for _, m in got] == counts
        assert sum(m for _, m in got) == samples

    def test_chunk_i_uses_substream_i(self):
        parent = RandomStream(3, 5)
        subs = [sub for sub, _ in chunks(35, parent, 10)]
        assert subs == [parent.substream(i) for i in range(4)]


class TestProportion:
    def test_binomial_error(self):
        p, err = proportion(25, 100)
        assert p == 0.25
        assert err == math.sqrt(0.25 * 0.75 / 100)

    def test_no_valid_samples(self):
        assert proportion(0, 0) == (0.0, float("inf"))
