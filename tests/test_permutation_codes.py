"""Property tests for the packed permutation-code engine.

Covers the codec round-trip across the uint64 window and the object
fallback, code-census equivalence with a tuple-of-rows reference across
metrics, prefix-code consistency with per-prefix recomputation,
shard-merge exactness over workers x shards grids, and serialization of
code-backed indexes down to the Corollary-8 payload size.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lehmer_rank

from repro.core.estimate import StreamingCensus
from repro.core.permutation import (
    MAX_CODE_SITES,
    _merge_network,
    decode_permutations,
    decode_positions,
    distance_permutations,
    encode_permutations,
    permutation_code_dtype,
    permutation_positions,
    permutations_from_distances,
    prefix_permutation_codes,
)
from repro.core.storage import bits_full_permutation
from repro.datasets.dictionaries import synthetic_dictionary
from repro.index import DistPermIndex
from repro.index.serialize import load_distperm, save_distperm
from repro.metrics import (
    EuclideanDistance,
    LevenshteinDistance,
    PrefixDistance,
)
from repro.parallel.census import shard_ranges, sharded_census
from repro.parallel.executor import get_executor


def _random_perms(rng, n, k):
    return rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)


class TestCodecRoundTrip:
    @pytest.mark.parametrize("k", list(range(1, 21)))
    def test_uint64_window(self, rng, k):
        perms = _random_perms(rng, 64, k)
        codes = encode_permutations(perms)
        assert codes.dtype == np.uint64
        np.testing.assert_array_equal(decode_permutations(codes, k), perms)

    @pytest.mark.parametrize("k", [21, 25, 40])
    def test_object_fallback(self, rng, k):
        perms = _random_perms(rng, 16, k)
        codes = encode_permutations(perms)
        assert codes.dtype == object
        assert all(isinstance(code, int) for code in codes)
        np.testing.assert_array_equal(decode_permutations(codes, k), perms)

    def test_code_dtype_window(self):
        assert permutation_code_dtype(MAX_CODE_SITES) == np.dtype(np.uint64)
        assert permutation_code_dtype(MAX_CODE_SITES + 1) == np.dtype(object)

    def test_matches_scalar_rank(self, rng):
        for k in (1, 4, 9, 15):
            perms = _random_perms(rng, 8, k)
            codes = encode_permutations(perms)
            for row, code in zip(perms, codes):
                assert lehmer_rank(row.tolist()) == int(code)

    def test_lexicographic_order_preserved(self):
        import itertools

        perms = np.array(list(itertools.permutations(range(5))))
        codes = encode_permutations(perms)
        assert list(codes) == list(range(math.factorial(5)))

    def test_empty_and_zero_width(self):
        assert encode_permutations(np.empty((0, 4), dtype=int)).shape == (0,)
        zero = encode_permutations(np.empty((3, 0), dtype=int))
        assert list(zero) == [0, 0, 0]
        assert decode_permutations(zero, 0).shape == (3, 0)

    def test_uint64_path_rejects_wide_k(self, rng):
        perms = _random_perms(rng, 4, MAX_CODE_SITES + 1)
        with pytest.raises(ValueError):
            encode_permutations(perms, dtype=np.uint64)
        with pytest.raises(ValueError):
            decode_permutations(
                np.arange(4, dtype=np.uint64), MAX_CODE_SITES + 1
            )

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode_permutations(np.array([24], dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            decode_permutations(np.array([-1], dtype=np.int64), 4)
        with pytest.raises(ValueError):
            decode_permutations(
                np.array([math.factorial(25)], dtype=object), 25
            )

    def test_encode_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            encode_permutations(np.array([[0, 4]]))
        with pytest.raises(ValueError):
            encode_permutations(np.array([[-1, 0]]))

    @pytest.mark.parametrize("k", [20, 22])
    def test_duplicate_values_encode_deterministically(self, k):
        # Duplicates go undetected, but the code is still a function of
        # the row: digit i is perm[i] minus the distinct smaller values
        # before it, on the uint64 and the object path alike.
        row = list(range(k))
        row[3] = row[7]
        want = 0
        for i, value in enumerate(row):
            smaller = {v for v in row[:i] if v < value}
            want = want * (k - i) + value - len(smaller)
        perms = np.array([row] * 3)
        for _ in range(3):
            codes = encode_permutations(perms, dtype=object)
            assert codes.tolist() == [want] * 3
        if k <= 20:
            assert encode_permutations(perms).tolist() == [want] * 3

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda k: st.lists(
                st.permutations(list(range(k))), min_size=1, max_size=20
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, perm_rows):
        perms = np.array(perm_rows)
        codes = encode_permutations(perms)
        np.testing.assert_array_equal(
            decode_permutations(codes, perms.shape[1]), perms
        )

    def test_scalar_big_k_arbitrary_precision(self):
        k = 30
        reverse = np.arange(k)[::-1]
        (rank,) = encode_permutations(reverse).tolist()
        assert rank == math.factorial(k) - 1
        codes = np.array([rank], dtype=object)
        np.testing.assert_array_equal(decode_permutations(codes, k)[0], reverse)


def _fixed_code_positions(k):
    """Codes ``{0, 1, k! - 1}`` with their rank positions, as constants:
    rank 0 is the identity, rank 1 swaps the last two sites, rank
    ``k! - 1`` is the reversal — and each is its own inverse."""
    identity = list(range(k))
    cases = {0: identity, math.factorial(k) - 1: identity[::-1]}
    if k >= 2:
        cases[1] = identity[:-2] + [k - 1, k - 2]
    return cases


#: ``12! < 2**32 <= 13!``: the digit kernel switches from uint32 to
#: uint64 words between these two widths.
_WORD_BOUNDARY = (12, 13)


class TestDecodePositions:
    """``decode_positions`` == ``permutation_positions(decode_permutations(.))``
    at every fixed-width ``k``, with the same errors, in the column-major
    layout the footrule kernel reads in place."""

    @pytest.mark.parametrize(
        "k",
        [
            pytest.param(
                k, id=f"k{k}-word-boundary" if k in _WORD_BOUNDARY else f"k{k}"
            )
            for k in range(1, MAX_CODE_SITES + 1)
        ],
    )
    def test_equals_decode_then_invert(self, rng, k):
        top = math.factorial(k)
        codes = np.concatenate([
            np.array(sorted({0, min(1, top - 1), top - 1}), dtype=np.uint64),
            rng.integers(0, top, size=300, dtype=np.uint64),
        ])
        got = decode_positions(codes, k)
        want = permutation_positions(decode_permutations(codes, k))
        assert got.shape == (codes.shape[0], k)
        assert got.dtype == np.uint8
        assert got.T.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", range(1, MAX_CODE_SITES + 1))
    def test_fixed_codes_decode_to_constants(self, k):
        cases = _fixed_code_positions(k)
        codes = np.array(list(cases), dtype=np.uint64)
        np.testing.assert_array_equal(
            decode_positions(codes, k), np.array(list(cases.values()))
        )
        np.testing.assert_array_equal(
            decode_permutations(codes, k), np.array(list(cases.values()))
        )

    @pytest.mark.parametrize("k", [1, 4, *_WORD_BOUNDARY, MAX_CODE_SITES])
    def test_out_of_range_codes_raise(self, k):
        too_big = np.array([0, math.factorial(k)], dtype=np.uint64)
        negative = np.array([0, -1], dtype=np.int64)
        for decode in (decode_positions, decode_permutations):
            with pytest.raises(ValueError, match="out of range"):
                decode(too_big, k)
            with pytest.raises(ValueError, match="nonnegative"):
                decode(negative, k)

    def test_rejects_fixed_width_codes_past_the_window(self):
        with pytest.raises(ValueError, match="fixed-width"):
            decode_positions(
                np.arange(4, dtype=np.uint64), MAX_CODE_SITES + 1
            )
        with pytest.raises(ValueError, match="1-d"):
            decode_positions(np.zeros((2, 2), dtype=np.uint64), 3)

    def test_object_codes_fall_back_to_the_row_path(self, rng):
        k = MAX_CODE_SITES + 1
        codes = encode_permutations(_random_perms(rng, 8, k))
        got = decode_positions(codes, k)
        assert got.T.flags.c_contiguous
        np.testing.assert_array_equal(
            got, permutation_positions(decode_permutations(codes, k))
        )

    @pytest.mark.parametrize("k", [0, 1, 5, 13])
    def test_empty_input(self, k):
        got = decode_positions(np.empty(0, dtype=np.uint64), k)
        assert got.shape == (0, k)
        assert decode_permutations(np.empty(0, dtype=np.uint64), k).shape == (
            0, k,
        )

    def test_out_is_filled_in_place(self, rng):
        k = 12
        codes = rng.integers(0, math.factorial(k), size=50, dtype=np.uint64)
        want = permutation_positions(decode_permutations(codes, k))
        # A prefix of a larger flat scratch, as the index workspace hands out.
        scratch = np.full(k * 64, 255, dtype=np.uint8)
        columns = scratch[: k * 50].reshape(k, 50)
        got = decode_positions(codes, k, out=columns.T)
        assert np.shares_memory(got, scratch)
        np.testing.assert_array_equal(columns.T, want)
        assert (scratch[k * 50 :] == 255).all()
        # A wider integer dtype is fine as long as the layout is right.
        wide = np.empty((k, 50), dtype=np.int32).T
        np.testing.assert_array_equal(
            decode_positions(codes, k, out=wide), want
        )

    @pytest.mark.parametrize("k", range(1, MAX_CODE_SITES + 1))
    def test_network_sorts_every_zero_one_input(self, k):
        """0-1 principle: a comparator network sorts every input iff it
        sorts every 0/1 input — all ``2**k`` of them, one per column."""
        network = _merge_network(k)
        assert len(network) == {8: 19, 12: 42}.get(k, len(network))
        assert all(0 <= a < b < k for a, b in network)
        columns = np.arange(1 << k, dtype=np.uint32)
        lanes = [
            ((columns >> lane) & 1).astype(np.uint8) for lane in range(k)
        ]
        for a, b in network:
            lanes[a], lanes[b] = (
                np.minimum(lanes[a], lanes[b]),
                np.maximum(lanes[a], lanes[b]),
            )
        for lower, upper in zip(lanes, lanes[1:]):
            assert (lower <= upper).all()

    @pytest.mark.parametrize("n", [0, 1, 7, 8191, 8192, 8193, 81_923])
    def test_equals_decode_then_invert_at_block_widths(self, rng, n):
        """Around one and ten 8192-code blocks, every fixed width: both
        key widths (``uint8`` through ``k = 16``, ``uint16`` beyond), the
        identity and the reversal included."""
        for k in range(1, MAX_CODE_SITES + 1):
            top = math.factorial(k)
            codes = rng.integers(0, top, size=n, dtype=np.uint64)
            codes[: min(n, 2)] = [top - 1, 0][: min(n, 2)]
            got = decode_positions(codes, k)
            assert got.shape == (n, k) and got.T.flags.c_contiguous
            np.testing.assert_array_equal(
                got, permutation_positions(decode_permutations(codes, k))
            )

    @pytest.mark.parametrize("k", [1, 8, 12, 16, 17, MAX_CODE_SITES])
    def test_row_strided_out_is_filled_in_place(self, rng, k):
        """``out.T`` as a column range of a wider ``(k, width)`` workspace,
        the mmap tile layout: filled where it lies, nothing else written."""
        n = 300
        codes = rng.integers(0, math.factorial(k), size=n, dtype=np.uint64)
        workspace = np.full((k, n + 50), 255, dtype=np.uint8)
        tile = workspace[:, 20 : 20 + n]
        got = decode_positions(codes, k, out=tile.T)
        assert np.shares_memory(got, tile)
        np.testing.assert_array_equal(
            tile.T, permutation_positions(decode_permutations(codes, k))
        )
        assert (workspace[:, :20] == 255).all()
        assert (workspace[:, 20 + n :] == 255).all()

    def test_out_of_the_wrong_shape_dtype_or_order_is_rejected(self, rng):
        k = 6
        codes = rng.integers(0, math.factorial(k), size=10, dtype=np.uint64)
        with pytest.raises(ValueError, match="shape"):
            decode_positions(codes, k, out=np.empty((k, 9), np.uint8).T)
        with pytest.raises(ValueError, match="shape"):
            decode_positions(codes, k, out=np.empty((k, 10), np.uint8))
        with pytest.raises(ValueError, match="dtype"):
            decode_positions(codes, k, out=np.empty((k, 10), np.float32).T)
        with pytest.raises(ValueError, match="dtype"):
            decode_positions(codes, k, out=np.empty((k, 10), np.bool_).T)
        with pytest.raises(ValueError, match="column-major"):
            decode_positions(codes, k, out=np.empty((10, k), np.uint8))
        with pytest.raises(ValueError, match="column-major"):
            decode_positions(
                codes, k, out=np.empty((k, 20), np.uint8)[:, ::2].T
            )
        # Contiguous rows that overlap: each starts 5 bytes after the last.
        overlapping = np.lib.stride_tricks.as_strided(
            np.empty(5 * k + 10, np.uint8), shape=(k, 10), strides=(5, 1)
        )
        with pytest.raises(ValueError, match="column-major"):
            decode_positions(codes, k, out=overlapping.T)


class TestCodeCensusEquivalence:
    """Code-keyed censuses must be byte-identical (distinct, total,
    frequency-of-frequencies, chao1) to a tuple-of-rows reference."""

    def _reference(self, perms):
        counts = {}
        for row in perms:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
        fof = {}
        for count in counts.values():
            fof[count] = fof.get(count, 0) + 1
        return len(counts), fof

    def _check(self, points, sites, metric):
        perms = distance_permutations(points, sites, metric)
        census = StreamingCensus()
        for start in range(0, len(perms), 257):  # uneven batches
            census.update(perms[start : start + 257])
        distinct, fof = self._reference(perms)
        assert census.distinct == distinct
        assert census.total == len(perms)
        assert census.frequency_of_frequencies() == fof
        from repro.core.estimate import chao1_estimate

        assert census.chao1() == chao1_estimate(fof, distinct)

    def test_euclidean(self, rng):
        points = rng.random((600, 3))
        self._check(points, points[:7], EuclideanDistance())

    def test_levenshtein(self, rng):
        words = synthetic_dictionary("English", 400, rng=rng)
        self._check(words, words[:6], LevenshteinDistance())

    def test_prefix_binary_strings(self, rng):
        strings = [
            "".join(rng.choice(list("ab"), size=6)) for _ in range(300)
        ]
        self._check(strings, strings[:5], PrefixDistance())


class TestPrefixCodes:
    def test_matches_per_prefix_recompute(self, rng):
        """One-sort prefix codes count exactly like re-argsorting each
        prefix of the distance matrix (heavy ties included)."""
        distances = rng.random((400, 9))
        distances[rng.random((400, 9)) < 0.5] = 0.25  # pervasive ties
        full = permutations_from_distances(distances)
        by_width = prefix_permutation_codes(full, range(0, 10))
        for j in range(0, 10):
            reference = StreamingCensus()
            reference.update(permutations_from_distances(distances[:, :j]))
            census = StreamingCensus()
            census.update_codes(by_width[j], j, coding="prefix")
            assert census.distinct == reference.distinct
            assert (
                census.frequency_of_frequencies()
                == reference.frequency_of_frequencies()
            )

    def test_codes_injective_per_width(self, rng):
        distances = rng.random((300, 6))
        distances[rng.random((300, 6)) < 0.4] = 0.5
        full = permutations_from_distances(distances)
        codes = prefix_permutation_codes(full, [4])[4]
        restricted = permutations_from_distances(distances[:, :4])
        mapping = {}
        for row, code in zip(restricted, codes):
            key = tuple(int(v) for v in row)
            assert mapping.setdefault(key, int(code)) == int(code)
        assert len(set(mapping.values())) == len(mapping)

    def test_wide_prefix_object_path(self, rng):
        perms = _random_perms(rng, 40, 22)
        codes = prefix_permutation_codes(perms, [22])[22]
        assert codes.dtype == object
        assert len({int(c) for c in codes}) == len(
            {tuple(int(v) for v in row) for row in perms}
        )


class TestShardMergeGrid:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_equals_whole_database_census(self, rng, workers, shards):
        # ``shards`` row ranges, each counted on the engine ``workers``
        # selects, merge to the census of the whole database.
        points = rng.random((240, 3))
        sites = [points[i] for i in range(6)]
        metric = EuclideanDistance()
        reference, _ = sharded_census(points, sites, metric, ks=[3, 6])
        with get_executor(workers) as executor:
            parts = [
                sharded_census(
                    points[start:stop], sites, metric, ks=[3, 6],
                    executor=executor,
                )[0]
                for start, stop in shard_ranges(len(points), shards)
            ]
        censuses = {
            k: StreamingCensus.merged(part[k] for part in parts)
            for k in (3, 6)
        }
        for k in (3, 6):
            assert censuses[k].distinct == reference[k].distinct
            assert censuses[k].total == reference[k].total
            assert (
                censuses[k].frequency_of_frequencies()
                == reference[k].frequency_of_frequencies()
            )
            assert censuses[k].chao1() == reference[k].chao1()


class TestCodeBackedSerialization:
    def test_roundtrip_code_state(self, tmp_path, rng):
        points = rng.random((300, 3))
        index = DistPermIndex(
            points, EuclideanDistance(), n_sites=6,
            rng=np.random.default_rng(3),
        )
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        np.testing.assert_array_equal(loaded.codes, index.codes)
        assert loaded._perm_positions.tobytes(order="A") == (
            index._perm_positions.tobytes(order="A")
        )
        assert loaded._perm_positions.flags.f_contiguous
        loaded_census, built_census = loaded.census(), index.census()
        np.testing.assert_array_equal(loaded_census.codes, built_census.codes)
        np.testing.assert_array_equal(
            loaded_census.counts, built_census.counts
        )
        np.testing.assert_array_equal(loaded.permutations, index.permutations)

    def test_payload_hits_corollary8_bits(self, tmp_path, rng):
        """The k=12 on-disk per-element payload is the packed code array:
        n * ceil(lg 12!) bits, within one alignment word."""
        n, k = 500, 12
        points = rng.random((n, 4))
        index = DistPermIndex(
            points, EuclideanDistance(), n_sites=k,
            rng=np.random.default_rng(5),
        )
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        bits = bits_full_permutation(k)
        assert bits == 29  # ceil(lg 12!)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len].decode("ascii"))
        payload_bytes = header["shards"][0]["codes"]["nbytes"]
        assert math.ceil(n * bits / 8) <= payload_bytes
        assert payload_bytes <= math.ceil(n * bits / 8) + 8
