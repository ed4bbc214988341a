import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kazvol import RandomStream, Tolerance, kappa, sphere_sample, wallis
from kazvol.numerics import chunks, read_field, read_json, sampled_mean


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
        assert Tolerance().eps == 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(eps=0.0)
        with pytest.raises(ValueError):
            Tolerance(eps=1.0)


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


class TestSampledMean:
    @staticmethod
    def indicator(hits_per_chunk, kept_per_chunk):
        """values_of returning fixed 0/1 values per chunk, recording what it was asked for."""
        calls = []

        def values_of(sub, m):
            calls.append((sub, m))
            i = len(calls) - 1
            return np.arange(kept_per_chunk[i]) < hits_per_chunk[i]

        return values_of, calls

    def test_indicator_is_binomial_proportion(self):
        # 25 hits among 100 kept draws out of 130, over chunks of 50, 50 and 30.
        values_of, calls = self.indicator([10, 10, 5], [40, 40, 20])
        mean, err, used = sampled_mean(values_of, 130, RandomStream(3, 5), 50)
        assert [m for _, m in calls] == [50, 50, 30]
        assert [sub for sub, _ in calls] == [RandomStream(3, 5).substream(i) for i in range(3)]
        assert used == 100
        assert mean == 25 / 100
        assert err == pytest.approx(math.sqrt(0.25 * 0.75 / 100), rel=1e-15)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_indicator_matches_counts(self, counts):
        kept = [a + b for a, b in counts]
        hits = [a for a, _ in counts]
        values_of, _ = self.indicator(hits, kept)
        mean, err, used = sampled_mean(values_of, 50 * len(counts), RandomStream(1), 50)
        assert used == sum(kept)
        if used:
            p = sum(hits) / used
            assert mean == p
            assert err == pytest.approx(math.sqrt(p * (1 - p) / used), rel=1e-12, abs=1e-15)

    def test_matches_numpy_moments(self):
        stream = RandomStream(8)
        mean, err, used = sampled_mean(lambda sub, m: sub.generator().normal(size=m),
                                       1000, stream, 600)
        values = np.concatenate([sub.generator().normal(size=m)
                                 for sub, m in chunks(1000, stream, 600)])
        assert used == 1000
        assert mean == pytest.approx(values.mean(), rel=1e-12)
        assert err == pytest.approx(values.std() / math.sqrt(1000), rel=1e-9)

    def test_nothing_kept(self):
        assert sampled_mean(lambda sub, m: np.zeros(0), 100, RandomStream(1), 30) == (
            0.0, float("inf"), 0)
        assert sampled_mean(lambda sub, m: np.ones(m), 0, RandomStream(1), 30) == (
            0.0, float("inf"), 0)


class TestReadJson:
    def test_path_inline_and_dict(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 1}')
        assert read_json(path) == read_json(str(path)) == read_json(' {"n": 1}') == {"n": 1}
        data = {"n": 2}
        assert read_json(data) is data

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for source in (path, [1, 2]):
            with pytest.raises(ValueError, match="JSON object, not list"):
                read_json(source)

    def test_missing_file_names_it(self, tmp_path):
        with pytest.raises(OSError, match="missing.json"):
            read_json(str(tmp_path / "missing.json"))


class TestIntegerField:
    def test_integers_numpy_integers_included(self):
        for value in (0, 3, np.int64(2), np.int32(4), np.uint8(1)):
            got = read_field({"n": value}, "n", int)
            assert got == value and type(got) is int

    @pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0), True, False, np.bool_(True),
                                       "2", None])
    def test_floats_bools_and_others_rejected(self, value):
        with pytest.raises(ValueError, match="field 'n': expected an integer"):
            read_field({"n": value}, "n", int)

    def test_loaders_reject_a_non_integer_n(self):
        """``load_polytope`` and ``load_body`` read n as an integer: 1.5 and true are no
        longer taken as 1, and a numpy integer is."""
        from kazvol import load_body, load_polytope
        for n in (1.5, True):
            with pytest.raises(ValueError, match="field 'n'"):
                load_polytope({"n": n, "vertices": [[0.0, 0.0], [1.0, 0.0]]})
            with pytest.raises(ValueError, match="field 'n'"):
                load_body({"kind": "ball", "n": n})
        assert load_polytope({"n": np.int64(1), "vertices": [[0.0, 0.0], [1.0, 0.0]]}).dim_real == 1
        assert load_body({"kind": "ball", "n": np.int64(2)}).ambient_n == 2
