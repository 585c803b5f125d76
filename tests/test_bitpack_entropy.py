"""Tests for bit-packed permutation storage and entropy accounting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import empirical_entropy_bits

from repro.core.bitpack import bits_for_count, pack_ids, unpack_ids
from repro.core.entropy import entropy_report
from repro.core.estimate import StreamingCensus
from repro.core.permutation import decode_permutations, encode_permutations


class TestPackUnpack:
    def test_roundtrip_simple(self):
        ids = [0, 1, 2, 3, 7, 5]
        assert list(unpack_ids(pack_ids(ids, 3), 3, 6)) == ids

    def test_zero_width(self):
        assert pack_ids([0, 0, 0], 0) == b""
        assert list(unpack_ids(b"", 0, 3)) == [0, 0, 0]

    def test_zero_width_rejects_nonzero(self):
        with pytest.raises(ValueError):
            pack_ids([0, 1], 0)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_ids([8], 3)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            pack_ids([1], -1)
        with pytest.raises(ValueError):
            pack_ids([1], 65)
        with pytest.raises(ValueError):
            unpack_ids(b"", 65, 0)

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            unpack_ids(b"\x00", 8, 2)

    def test_packed_size_is_ceil(self):
        data = pack_ids(list(range(10)), 4)  # 40 bits -> 5 bytes
        assert len(data) == 5

    @given(
        st.integers(1, 20).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.integers(0, 2**width - 1), min_size=0, max_size=200
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, width_and_ids):
        width, ids = width_and_ids
        recovered = unpack_ids(pack_ids(ids, width), width, len(ids))
        assert list(recovered) == ids

    def test_wide_values(self):
        ids = [2**40 + 1, 2**41 - 1, 0]
        assert list(unpack_ids(pack_ids(ids, 41), 41, 3)) == ids


def _bitspread_pack(ids, bit_width):
    """The packer this module shipped before the word-window kernel:
    spread every id into a bit matrix, ``packbits`` it.  Kept here only
    as the oracle — payloads already on disk were written by it."""
    ids = np.asarray(ids, dtype=np.uint64)
    positions = np.arange(bit_width, dtype=np.uint64)
    bits = ((ids[:, None] >> positions[None, :]) & 1).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def _bitspread_unpack(data, bit_width, count):
    """The matching ``unpackbits`` + shift-sum reader (oracle only)."""
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), bitorder="little"
    )[: count * bit_width]
    bits = bits.reshape(count, bit_width).astype(np.uint64)
    positions = np.arange(bit_width, dtype=np.uint64)
    return (bits << positions[None, :]).sum(axis=1, dtype=np.uint64)


#: Counts on both sides of a group of 8 and of a default 8192-code block.
_COUNTS = (0, 1, 7, 8, 9, 8191, 8192, 8193)


class TestWordWindowKernels:
    """``pack_ids`` / ``unpack_ids`` against the bit-spread routines they
    replaced, for every width and on both sides of every boundary."""

    @staticmethod
    def _ids(rng, bit_width, count):
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        top = (1 << bit_width) - 1
        ids = rng.integers(0, top, size=count, dtype=np.uint64, endpoint=True)
        ids[0] = top  # every bit of a field set at least once
        ids[-1] = top
        return ids

    @pytest.mark.parametrize("bit_width", range(65))
    def test_pack_is_byte_identical_to_bitspread(self, rng, bit_width):
        for count in _COUNTS:
            ids = self._ids(rng, bit_width, count)
            assert pack_ids(ids, bit_width) == _bitspread_pack(
                ids, bit_width
            ), (bit_width, count)

    @pytest.mark.parametrize("bit_width", range(65))
    def test_unpack_matches_bitspread(self, rng, bit_width):
        for count in _COUNTS:
            ids = self._ids(rng, bit_width, count)
            data = _bitspread_pack(ids, bit_width)
            got = unpack_ids(data, bit_width, count)
            assert got.dtype == np.uint64 and got.shape == (count,)
            np.testing.assert_array_equal(got, ids)
            np.testing.assert_array_equal(
                got, _bitspread_unpack(data, bit_width, count)
            )

    @pytest.mark.parametrize("bit_width", [1, 7, 8, 13, 29, 57, 58, 63, 64])
    def test_unpack_reads_any_buffer_in_place(self, rng, tmp_path, bit_width):
        """bytes, memoryview, and an unaligned slice of an ``np.memmap``
        with foreign bytes on both sides of the section."""
        for count in (9, 8193):
            ids = self._ids(rng, bit_width, count)
            data = pack_ids(ids, bit_width)
            path = tmp_path / f"packed_{bit_width}_{count}.bin"
            path.write_bytes(b"\xff" * 3 + data + b"\xff" * 5)
            mapped = np.memmap(path, dtype=np.uint8, mode="r")
            for buffer in (
                data,
                memoryview(data),
                bytearray(data),
                np.frombuffer(data, dtype=np.uint8),
                mapped[3 : 3 + len(data)],
                mapped[3:],  # trailing garbage past the last field
            ):
                np.testing.assert_array_equal(
                    unpack_ids(buffer, bit_width, count), ids
                )
            del mapped

    def test_unpack_result_is_writable_and_detached(self):
        data = bytearray(pack_ids([5, 6, 7], 3))
        got = unpack_ids(data, 3, 3)
        data[0] = 0
        assert list(got) == [5, 6, 7]
        got[0] = 1  # callers own the result

    def test_short_buffer_names_the_shortfall(self):
        with pytest.raises(ValueError, match="need 29"):
            unpack_ids(b"\x00\x00\x00", 29, 1)


class TestPackedStore:
    """Corollary 8's table encoding from its parts: a census's sorted
    distinct codes are the table, and per-element ids into it pack at
    ``bits_for_count(N) = ceil(lg N)`` bits."""

    @pytest.fixture
    def perms(self, rng):
        return np.array([rng.permutation(6) for _ in range(300)])

    @staticmethod
    def _table_and_ids(perms):
        census = StreamingCensus()
        census.update(perms)
        ids = np.searchsorted(census.codes, encode_permutations(perms))
        return census, ids

    def test_roundtrip(self, perms):
        census, ids = self._table_and_ids(perms)
        width = bits_for_count(census.distinct)
        unpacked = unpack_ids(pack_ids(ids, width), width, len(perms))
        table = decode_permutations(census.codes, perms.shape[1])
        np.testing.assert_array_equal(table[unpacked.astype(np.int64)], perms)

    def test_bit_width_is_log_of_table(self, perms):
        census, _ = self._table_and_ids(perms)
        n_unique = np.unique(perms, axis=0).shape[0]
        assert census.distinct == n_unique
        assert bits_for_count(census.distinct) == math.ceil(math.log2(n_unique))

    def test_single_permutation_database(self):
        perms = np.tile(np.arange(5), (50, 1))
        census, ids = self._table_and_ids(perms)
        width = bits_for_count(census.distinct)
        assert width == 0
        assert pack_ids(ids, width) == b""
        np.testing.assert_array_equal(unpack_ids(b"", 0, 50), np.zeros(50))
        assert census.counts.tolist() == [50]

    def test_payload_smaller_than_naive(self, perms):
        """The packed ids beat byte-per-entry storage."""
        census, ids = self._table_and_ids(perms)
        packed = pack_ids(ids, bits_for_count(census.distinct))
        naive_bytes = perms.size  # one byte per permutation entry
        assert len(packed) < naive_bytes


class TestEntropy:
    def test_uniform_distribution_maximal(self):
        ids = np.repeat(np.arange(8), 10)
        assert empirical_entropy_bits(ids) == pytest.approx(3.0)

    def test_constant_distribution_zero(self):
        assert empirical_entropy_bits([4] * 100) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_entropy_bits([])

    def test_bounded_by_log_distinct(self, rng):
        ids = rng.integers(0, 50, size=1000)
        entropy = empirical_entropy_bits(ids)
        distinct = len(np.unique(ids))
        assert 0.0 <= entropy <= math.log2(distinct) + 1e-9

    def test_skew_reduces_entropy(self):
        balanced = [0, 1] * 50
        skewed = [0] * 95 + [1] * 5
        assert empirical_entropy_bits(skewed) < empirical_entropy_bits(balanced)

    def test_report_fields(self, rng):
        ids = rng.integers(0, 10, size=500)
        _, counts = np.unique(ids, return_counts=True)
        report = entropy_report(counts)
        assert report.n == 500
        assert report.distinct == len(np.unique(ids))
        assert report.entropy_bits == empirical_entropy_bits(ids)
        assert 0.0 <= report.savings_fraction < 1.0
        assert "savings" in report.as_row()

    def test_report_rejects_empty_or_zero_counts(self):
        with pytest.raises(ValueError):
            entropy_report([])
        with pytest.raises(ValueError):
            entropy_report([3, 0])

    def test_report_single_value(self):
        report = entropy_report([10])
        assert report.fixed_bits == 0
        assert report.entropy_bits == 0.0
        assert report.savings_fraction == 0.0

    def test_distperm_integration(self, rng):
        """Real databases have skewed permutation frequencies: entropy
        strictly below the fixed width."""
        from repro.datasets import load_database
        from repro.index import DistPermIndex

        database = load_database("colors", n=800)
        index = DistPermIndex(
            database.points, database.metric, n_sites=8,
            rng=np.random.default_rng(1),
        )
        report = index.entropy()
        assert report.entropy_bits < report.fixed_bits
        assert report.savings_fraction > 0.05
