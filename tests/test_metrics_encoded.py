"""Property tests for the batched string-metric kernels.

The contract of :mod:`repro.metrics.encoding` is entry-for-entry equality
with the scalar DP: every batched Levenshtein/prefix matrix must
equal the scalar double loop on arbitrary unicode strings (empty strings,
equal strings, heavy ties, NUL characters that collide with the pad
value), and :class:`~repro.metrics.base.CountingMetric` accounting must be
identical through the encoded path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    CountingMetric,
    LevenshteinDistance,
    PrefixDistance,
    levenshtein,
)
from repro.metrics import encoding
from repro.metrics.base import Metric
from repro.metrics.encoding import (
    EncodedStrings,
    _wf_matrix_into,
    clear_encoding_cache,
    encode_strings,
    levenshtein_matrix,
)

# Broad alphabet: ASCII, NUL (collides with the pad value), a combining
# mark, and astral-plane code points; tiny alphabet for heavy ties.
unicode_text = st.text(
    alphabet=st.sampled_from("ab\x00é́\U0001F600� z"), max_size=10
)
tie_text = st.text(alphabet="ab", max_size=5)
collections = st.lists(unicode_text, min_size=0, max_size=12)
tie_collections = st.lists(tie_text, min_size=1, max_size=15)


def scalar_matrix(metric, xs, ys):
    """The base-class double loop: the oracle the kernels must match."""
    return Metric.matrix(metric, xs, ys)


class TestEncodedStrings:
    @given(collections)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, strings):
        encoded = EncodedStrings.from_strings(strings)
        assert len(encoded) == len(strings)
        for i, s in enumerate(strings):
            assert [chr(c) for c in encoded.row(i)] == list(s)

    def test_surrogate_fallback(self):
        strings = ["a\ud800b", "cd"]
        encoded = EncodedStrings.from_strings(strings)
        assert [chr(c) for c in encoded.row(0)] == list(strings[0])

    def test_rejects_non_strings(self):
        with pytest.raises(TypeError):
            EncodedStrings.from_strings(["a", 3])

    def test_cache_returns_same_object(self):
        clear_encoding_cache()
        words = ["alpha", "beta", "gamma"]
        first = encode_strings(words)
        assert encode_strings(words) is first
        assert encode_strings(list(words)) is first  # same contents
        assert encode_strings(tuple(words)) is first  # any sequence
        assert encode_strings(words[:2]) is not first  # shorter: a miss

    def test_cache_misses_a_list_mutated_in_place(self):
        clear_encoding_cache()
        words = ["alpha", "beta", "gamma"]
        first = encode_strings(words)
        words[1] = "bets"  # same length, same identity, new contents
        second = encode_strings(words)
        assert second is not first
        assert [chr(c) for c in second.row(1)] == list("bets")
        assert encode_strings(["alpha", "beta", "gamma"]) is first

    def test_cache_hit_refreshes_the_lru_slot(self):
        clear_encoding_cache()
        oldest = encode_strings(["w0"])
        second = encode_strings(["w1"])
        for i in range(2, encoding._CACHE_SIZE):
            encode_strings([f"w{i}"])
        assert encode_strings(["w0"]) is oldest  # hit: now most recent
        encode_strings(["overflow"])  # evicts the least recent, "w1"
        assert encode_strings(["w0"]) is oldest
        assert encode_strings(["w1"]) is not second

    def test_metric_encode_falls_back_to_none(self):
        encode_strings(["abc", "de", "f"])  # three strings, as rows below
        metric = LevenshteinDistance()
        assert metric.encode([("not", "strings")]) is None
        assert metric.encode(np.ones((3, 2))) is None
        encoded = metric.encode(["ab", "cd"])
        assert isinstance(encoded, EncodedStrings)
        assert metric.encode(encoded) is encoded


@pytest.mark.parametrize(
    "metric_cls", [LevenshteinDistance, PrefixDistance], ids=["lev", "prefix"]
)
class TestMatrixEqualsScalar:
    @given(xs=collections, ys=collections)
    @settings(max_examples=100, deadline=None)
    def test_random_unicode(self, metric_cls, xs, ys):
        metric = metric_cls()
        assert np.array_equal(
            metric.matrix(xs, ys), scalar_matrix(metric, xs, ys)
        )

    @given(xs=tie_collections)
    @settings(max_examples=50, deadline=None)
    def test_heavy_ties_pairwise(self, metric_cls, xs):
        metric = metric_cls()
        assert np.array_equal(
            metric.pairwise(xs), scalar_matrix(metric, xs, xs)
        )

    def test_empty_and_equal_strings(self, metric_cls):
        metric = metric_cls()
        xs = ["", "", "same", "same", "other"]
        assert np.array_equal(
            metric.matrix(xs, xs), scalar_matrix(metric, xs, xs)
        )

    def test_empty_collections(self, metric_cls):
        metric = metric_cls()
        assert metric.matrix([], ["a", "b"]).shape == (0, 2)
        assert metric.matrix(["a", "b"], []).shape == (2, 0)

    def test_non_string_inputs_fall_back(self, metric_cls):
        # Tuples of chars support the scalar DP but not the encoder.
        metric = metric_cls()
        xs = ["ab", "ba"]
        result = metric.matrix([tuple("ab"), tuple("ba")], [tuple("ab")])
        assert np.array_equal(result, scalar_matrix(metric, xs, xs[:1]))


class TestLevenshteinBanded:
    @given(
        xs=st.lists(unicode_text, min_size=1, max_size=6),
        ys=st.lists(unicode_text, min_size=1, max_size=12),
        radius=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_within_radius_exact_beyond_lower_bounded(self, xs, ys, radius):
        metric = LevenshteinDistance()
        true = scalar_matrix(metric, xs, ys)
        banded = metric.batch_distances_within(xs, ys, float(radius))
        inside = true <= radius
        assert np.array_equal(banded <= radius, inside)
        assert np.array_equal(banded[inside], true[inside])
        # Pruned entries are genuine lower bounds, never overestimates.
        assert (banded <= true).all()

    def test_long_strings_hit_pruning_passes(self):
        # > _PRUNE_EVERY characters so the mid-DP early exit runs.
        xs = ["a" * 40, "a" * 20 + "b" * 20]
        ys = ["a" * 40, "b" * 40, "a" * 39 + "c", "c" * 25]
        metric = LevenshteinDistance()
        true = scalar_matrix(metric, xs, ys)
        for radius in (0.0, 1.0, 5.0, 39.0):
            banded = metric.batch_distances_within(xs, ys, radius)
            inside = true <= radius
            assert np.array_equal(banded <= radius, inside)
            assert np.array_equal(banded[inside], true[inside])

    def test_infinite_radius_is_exact(self):
        xs, ys = ["abc"], ["abd", "zzz"]
        metric = LevenshteinDistance()
        assert np.array_equal(
            metric.batch_distances_within(xs, ys, float("inf")),
            scalar_matrix(metric, xs, ys),
        )

    @given(xs=collections, ys=collections)
    @settings(max_examples=50, deadline=None)
    def test_kernel_orientation_transpose(self, xs, ys):
        # Both orientations of the raw kernel agree with the scalar DP.
        ex, ey = encode_strings(xs), encode_strings(ys)
        expected = scalar_matrix(LevenshteinDistance(), xs, ys)
        assert np.array_equal(levenshtein_matrix(ex, ey), expected)
        assert np.array_equal(levenshtein_matrix(ey, ex), expected.T)

    def test_bimodal_lengths_wagner_fischer_fallback(self):
        # Many short targets plus a few giants: the fallback's
        # length-sorted chunks trim each chunk to its own width, and
        # either loop side must answer exactly.  Called directly — these
        # small alphabets plan Myers — in both orientations.
        rng = np.random.default_rng(13)
        letters = "abc"
        shorts = [
            "".join(letters[i] for i in rng.integers(0, 3, size=3))
            for _ in range(40)
        ]
        giants = [
            "".join(letters[i] for i in rng.integers(0, 3, size=400))
            for _ in range(3)
        ]
        xs = shorts[:12]
        ys = shorts[12:] + giants
        expected = scalar_matrix(LevenshteinDistance(), xs, ys)
        ex, ey = encode_strings(xs), encode_strings(ys)
        got = np.empty((len(xs), len(ys)), dtype=np.int64)
        _wf_matrix_into(ex, ey, got)
        assert np.array_equal(got, expected)
        got_t = np.empty((len(ys), len(xs)), dtype=np.int64)
        _wf_matrix_into(ey, ex, got_t)
        assert np.array_equal(got_t, expected.T)
        assert np.array_equal(levenshtein_matrix(ex, ey), expected)


class TestCountingThroughEncodedPath:
    """The cost model is one evaluation per matrix entry, encoded or not."""

    @pytest.mark.parametrize("metric_cls", [LevenshteinDistance, PrefixDistance])
    def test_counts_match_scalar_loop(self, metric_cls):
        words = ["", "a", "abc", "abc", "xyzzy"]
        queries = words[:2]
        encoded_metric = CountingMetric(metric_cls())
        matrix = encoded_metric.matrix(queries, words)
        encoded_counts = encoded_metric.count

        scalar_metric = CountingMetric(metric_cls())
        expected = scalar_matrix(scalar_metric.inner, queries, words)
        for _ in range(len(queries) * len(words)):
            scalar_metric.distance(words[0], words[0])
        assert encoded_counts == scalar_metric.count
        assert np.array_equal(matrix, expected)

    def test_to_sites_and_batch_and_within_counts(self):
        words = ["ab", "ba", "abc", ""]
        metric = CountingMetric(LevenshteinDistance())
        metric.to_sites(words, words[:2])
        assert metric.count == 8
        metric.batch_distances(words[:3], words)
        assert metric.count == 8 + 12
        metric.batch_distances_within(words[:1], words, 1.0)
        assert metric.count == 8 + 12 + 4

    def test_matrix_encoded_counts_entries(self):
        words = ["ab", "ba", "abc"]
        metric = CountingMetric(LevenshteinDistance())
        encoded = metric.encode(words)
        assert metric.count == 0  # encoding is not an evaluation
        metric.matrix_encoded(encoded, encoded)
        assert metric.count == 9


class TestScalarLevenshteinShortCircuit:
    @given(unicode_text, unicode_text)
    @settings(max_examples=100, deadline=None)
    def test_max_distance_exact_within_bound(self, a, b):
        true = levenshtein(a, b)
        for bound in (0, 1, 3, 50):
            reported = levenshtein(a, b, max_distance=bound)
            assert reported <= true
            assert (reported <= bound) == (true <= bound)
            if true <= bound:
                assert reported == true

    def test_length_gap_short_circuit(self):
        # The gap alone answers: no DP run, the gap itself is returned.
        assert levenshtein("ab", "abcdefgh", max_distance=3) == 6

    @given(unicode_text, unicode_text)
    @settings(max_examples=100, deadline=None)
    def test_affix_stripping_preserves_distance(self, a, b):
        # Shared prefixes/suffixes around a core difference change nothing.
        assert levenshtein("xx" + a + "yy", "xx" + b + "yy") == levenshtein(
            a, b
        )
