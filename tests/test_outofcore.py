"""The out-of-core engine: mapped code stores and streaming censuses.

Covers the :class:`MappedCodeStore` decode / position-cache machinery in
isolation, the tile loop of the mmap-backed index on top of it,
the chunked dataset readers, :func:`streaming_census` exactness against
the in-memory sharded census, mmap-backed sharded loads (including
resident workers reading their shard sections via :class:`FileShardSource`),
and the reply-byte accounting satellite on :class:`ServerStats`.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from repro.core.bitpack import pack_ids
from repro.core.permutation import (
    decode_permutations,
    decode_positions,
    permutation_positions,
)
from repro.core.storage import MappedCodeStore, bits_full_permutation
from repro.datasets.io import (
    count_rows,
    iter_string_chunks,
    iter_vector_chunks,
    load_strings,
    load_vectors,
    read_string_rows,
    read_vector_rows,
    save_strings,
    save_vectors,
)
from repro.index import DistPermIndex, ShardedIndex, batching, distperm
from repro.index.serialize import (
    PayloadCorruptError,
    load_distperm,
    load_shard,
    load_sharded,
    save_distperm,
    save_sharded,
)
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.parallel.census import sharded_census, streaming_census
from repro.serve.stats import ServerStats


def _write_code_section(path, codes, k, *, offset=0):
    """Pack ``codes`` at the Corollary-8 width and write them at ``offset``."""
    bit_width = bits_full_permutation(k)
    packed = pack_ids(codes, bit_width)
    with open(path, "wb") as handle:
        handle.write(b"\x00" * offset)
        handle.write(packed)
    return bit_width, len(packed)


class TestMappedCodeStore:
    K = 6  # 6! = 720 -> 10-bit codes

    def _store(self, tmp_path, rng, count=400, *, offset=64, **kwargs):
        codes = rng.integers(0, math.factorial(self.K), size=count,
                             dtype=np.uint64)
        path = tmp_path / "codes.bin"
        bit_width, nbytes = _write_code_section(
            path, codes, self.K, offset=offset
        )
        store = MappedCodeStore(
            path, offset=offset, nbytes=nbytes, bit_width=bit_width,
            count=count, k=self.K, **kwargs,
        )
        return store, codes

    def test_blocks_decode_identically_to_unpack_ids(self, tmp_path, rng):
        store, codes = self._store(
            tmp_path, rng, block_elements=64, cache_bytes=4096
        )
        try:
            got = np.empty(len(store), dtype=np.uint64)
            for start, stop, block in store.iter_blocks():
                got[start:stop] = block
            np.testing.assert_array_equal(got, codes)
            # The code path is the uncached first decode stage.
            assert store.current_cache_bytes == 0
            assert (store.cache_hits, store.cache_misses) == (0, 0)
        finally:
            store.close()

    def test_zero_width_section_is_all_zero_codes(self, tmp_path):
        """One site: ceil(lg 1!) = 0 bits per code, an empty section."""
        path = tmp_path / "codes.bin"
        path.write_bytes(b"\x00" * 64)
        store = MappedCodeStore(
            path, offset=64, nbytes=0, bit_width=0, count=20, k=1,
            block_elements=8,
        )
        try:
            assert [stop for _, stop, _ in store.iter_blocks()] == [8, 16, 20]
            assert store.element(19) == 0
            np.testing.assert_array_equal(
                store.positions_block(0, 3), np.zeros((1, 20))
            )
        finally:
            store.close()

    def _resident(self, codes):
        """The RAM matrix: ``(k, n)`` rank positions by the row path."""
        return permutation_positions(decode_permutations(codes, self.K)).T

    def test_positions_block_is_the_unranked_block(self, tmp_path, rng):
        store, codes = self._store(
            tmp_path, rng, block_elements=64, cache_bytes=1 << 16
        )
        try:
            assert store.n_blocks == 7  # six full blocks and one of 16
            resident = self._resident(codes)
            for block in range(store.n_blocks):
                start, stop = store.block_range(block)
                positions = store.positions_block(block)
                assert positions.shape == (self.K, stop - start)
                assert positions.dtype == np.uint8
                assert positions.flags.c_contiguous
                np.testing.assert_array_equal(
                    positions, resident[:, start:stop]
                )
            # Every block range, served from the cache, equals the same
            # columns; a fresh matrix is the caller's to write.
            for first in range(store.n_blocks):
                for stop in range(first + 1, store.n_blocks + 1):
                    positions = store.positions_block(first, stop)
                    lo, hi = first * 64, min(stop * 64, 400)
                    np.testing.assert_array_equal(
                        positions, resident[:, lo:hi]
                    )
            positions[:] = 0
            np.testing.assert_array_equal(
                store.positions_block(0, 7), resident
            )
            with pytest.raises(IndexError):
                store.positions_block(3, 8)
            with pytest.raises(IndexError):
                store.positions_block(3, 3)
            narrow = np.empty((self.K, 64), np.uint8)
            with pytest.raises(ValueError, match="shape"):
                store.positions_block(0, 2, out=narrow)
        finally:
            store.close()

    @pytest.mark.parametrize(
        "count, cache_blocks, touched, first, stop, hits, misses",
        [
            # Blocks 1 and 4 retained: the range starts and ends on a
            # hit, with one run of two misses between.
            (400, (1, 4), (1, 4), 1, 5, 2, 2),
            # Runs before, between and after the two retained blocks.
            (400, (1, 4), (1, 4), 0, 7, 2, 5),
            # A budget of two blocks plus the 16-element tail retains the
            # ragged tail, whose run started on an uncached block.
            (400, (0, 1, 6), (), 0, 7, 0, 7),
            # A tile narrower than one block: the ragged tail alone.
            (400, (), (), 6, 7, 0, 1),
            # n below one block: the only block is ragged.
            (40, (0,), (), 0, 1, 0, 1),
        ],
    )
    def test_runs_decode_into_the_tile(
        self, tmp_path, rng, count, cache_blocks, touched, first, stop,
        hits, misses,
    ):
        widths = [min(64, count - 64 * block) for block in cache_blocks]
        store, codes = self._store(
            tmp_path, rng, count=count, block_elements=64,
            cache_bytes=self.K * sum(widths),
        )
        try:
            for block in touched:
                store.positions_block(block)
            before = (store.cache_hits, store.cache_misses)
            lo, hi = first * 64, min(stop * 64, count)
            want = self._resident(codes)[:, lo:hi]
            # A tile cut out of a wider workspace: rows further apart than
            # they are long, nothing outside the tile written.
            workspace = np.full((self.K, 7 * 64 + 5), 77, dtype=np.uint8)
            tile = workspace[:, : hi - lo]
            assert store.positions_block(first, stop, out=tile) is tile
            np.testing.assert_array_equal(tile, want)
            assert (workspace[:, hi - lo :] == 77).all()
            assert (store.cache_hits, store.cache_misses) == (
                before[0] + hits, before[1] + misses,
            )
            assert sorted(store._blocks) == sorted(cache_blocks)
            assert store.current_cache_bytes == self.K * sum(widths)
            assert store.peak_cache_bytes <= store.cache_bytes
            # Every later pass over the range hits exactly the retained
            # blocks and decodes the rest again.
            again = (store.cache_hits, store.cache_misses)
            store.positions_block(first, stop, out=tile)
            kept = sum(first <= b < stop for b in cache_blocks)
            assert (store.cache_hits, store.cache_misses) == (
                again[0] + kept, again[1] + (stop - first) - kept,
            )
            np.testing.assert_array_equal(tile, want)
        finally:
            store.close()

    def test_lru_peak_stays_under_budget(self, tmp_path, rng):
        # 64-element blocks decode to 64 * 6 = 384 position bytes; of the
        # 2400 the whole store would need, a 1024-byte budget retains the
        # first two blocks and then the 16-element tail, the only other
        # one that still fits.  Nothing is evicted: the retained blocks
        # hit on every later pass and the other four decode again.
        store, codes = self._store(
            tmp_path, rng, block_elements=64, cache_bytes=1024
        )
        try:
            assert store.decoded_bytes_total() == 400 * self.K
            retained = 2 * 384 + 16 * self.K
            for passes in (1, 2, 3):
                for block in range(store.n_blocks):
                    store.positions_block(block)
                assert store.current_cache_bytes == retained
                assert store.peak_cache_bytes == retained <= store.cache_bytes
                assert store.cache_hits == 3 * (passes - 1)
                assert store.cache_misses == 7 + 4 * (passes - 1)
            store.clear_cache()
            assert store.current_cache_bytes == 0
            store.positions_block(6)  # whichever comes first is retained
            assert store.current_cache_bytes == 16 * self.K
        finally:
            store.close()

    def test_cache_hits_on_repeat_touch(self, tmp_path, rng):
        store, _ = self._store(
            tmp_path, rng, block_elements=64, cache_bytes=1 << 16
        )
        try:
            first = store.positions_block(0)
            first[:] = 0  # the caller's copy, not the cached block
            second = store.positions_block(0)
            assert second is not first
            assert second.any()
            assert store.cache_hits == 1
            assert store.cache_misses == 1
            store.codes_block(0)  # codes neither count nor cache
            assert (store.cache_hits, store.cache_misses) == (1, 1)
            assert store.current_cache_bytes == first.nbytes
        finally:
            store.close()

    def test_element_random_access(self, tmp_path, rng):
        store, codes = self._store(
            tmp_path, rng, block_elements=64, cache_bytes=4096
        )
        try:
            for index in (0, 63, 64, 257, 399):
                assert store.element(index) == int(codes[index])
            assert store.current_cache_bytes == 0
        finally:
            store.close()

    def test_truncated_section_raises_at_init(self, tmp_path, rng):
        codes = rng.integers(0, math.factorial(self.K), size=100,
                             dtype=np.uint64)
        path = tmp_path / "codes.bin"
        bit_width, nbytes = _write_code_section(path, codes, self.K)
        with open(path, "r+b") as handle:
            handle.truncate(nbytes - 10)
        with pytest.raises(PayloadCorruptError) as excinfo:
            MappedCodeStore(
                path, offset=0, nbytes=nbytes, bit_width=bit_width,
                count=100, k=self.K,
            )
        assert "truncated" in str(excinfo.value)
        assert excinfo.value.byte_offset == nbytes - 10

    def test_out_of_range_code_raises_on_touch(self, tmp_path, rng):
        store, _ = self._store(
            tmp_path, rng, count=256, block_elements=64, cache_bytes=4096
        )
        store.close()
        # Smash bytes covering elements of block 2 (elements 128..191,
        # 10-bit codes -> byte 160 onward): all-ones decodes to 1023 > 720.
        path = tmp_path / "codes.bin"
        blob = bytearray(path.read_bytes())
        blob[64 + 160:64 + 170] = b"\xff" * 10
        path.write_bytes(bytes(blob))
        bit_width = bits_full_permutation(self.K)
        nbytes = (256 * bit_width + 7) // 8
        store = MappedCodeStore(
            path, offset=64, nbytes=nbytes, bit_width=bit_width,
            count=256, k=self.K, block_elements=64, cache_bytes=4096,
            shard="s3",
        )
        try:
            store.codes_block(0)  # clean block decodes fine
            store.positions_block(0)
            # Same error through either decode stage, and on every touch:
            # nothing of a corrupt block is ever cached.
            for touch in (store.codes_block, store.positions_block) * 2:
                with pytest.raises(PayloadCorruptError) as excinfo:
                    touch(2)
                error = excinfo.value
                assert error.shard == "s3"
                assert 160 <= error.byte_offset <= 170
                assert "decodes outside" in str(error)
            assert store.current_cache_bytes == 64 * self.K  # block 0 only
        finally:
            store.close()

    def test_corrupt_block_inside_a_run(self, tmp_path, rng):
        store, codes = self._store(
            tmp_path, rng, count=256, block_elements=64, cache_bytes=4096
        )
        store.close()
        path = tmp_path / "codes.bin"
        _smash(path, 64 + 160)  # elements 128.. of block 2 become 1023
        bit_width = bits_full_permutation(self.K)
        store = MappedCodeStore(
            path, offset=64, nbytes=(256 * bit_width + 7) // 8,
            bit_width=bit_width, count=256, k=self.K, block_elements=64,
            cache_bytes=4096, shard="s3",
        )
        try:
            tile = np.zeros((self.K, 256), dtype=np.uint8)
            for hits, misses in ((0, 3), (2, 4)):
                with pytest.raises(PayloadCorruptError) as excinfo:
                    store.positions_block(0, 4, out=tile)
                assert (excinfo.value.shard, excinfo.value.byte_offset) == (
                    "s3", 160,
                )
                assert "element 128 decodes outside" in str(excinfo.value)
                # The clean blocks in front of the bad element were
                # decoded, counted and retained; the corrupt block and the
                # one behind it were not.
                assert (store.cache_hits, store.cache_misses) == (hits, misses)
                assert sorted(store._blocks) == [0, 1]
                np.testing.assert_array_equal(
                    tile[:, :128],
                    permutation_positions(
                        decode_permutations(codes[:128], self.K)
                    ).T,
                )
            np.testing.assert_array_equal(
                store.positions_block(3).T,
                decode_positions(codes[192:], self.K),
            )
        finally:
            store.close()

    def test_block_elements_validation(self, tmp_path, rng):
        codes = rng.integers(0, math.factorial(self.K), size=16,
                             dtype=np.uint64)
        path = tmp_path / "codes.bin"
        bit_width, nbytes = _write_code_section(path, codes, self.K)
        with pytest.raises(ValueError, match="multiple of 8"):
            MappedCodeStore(
                path, offset=0, nbytes=nbytes, bit_width=bit_width,
                count=16, k=self.K, block_elements=12,
            )
        with pytest.raises(ValueError, match="cache_bytes"):
            MappedCodeStore(
                path, offset=0, nbytes=nbytes, bit_width=bit_width,
                count=16, k=self.K, block_elements=64, cache_bytes=-1,
            )
        # A budget smaller than one block (16 * 6 = 96 position bytes) is
        # not an error: the block is decoded and served, never retained.
        store = MappedCodeStore(
            path, offset=0, nbytes=nbytes, bit_width=bit_width,
            count=16, k=self.K, block_elements=64, cache_bytes=95,
        )
        try:
            for _ in range(2):
                np.testing.assert_array_equal(
                    store.positions_block(0).T, decode_positions(codes, self.K)
                )
            assert (store.cache_hits, store.cache_misses) == (0, 2)
            assert store.peak_cache_bytes == 0
        finally:
            store.close()

    def test_advise_and_close_are_safe(self, tmp_path, rng):
        store, _ = self._store(tmp_path, rng)
        store.advise("sequential")
        store.advise("random")
        store.advise("normal")
        with pytest.raises(ValueError):
            store.advise("psychic")
        store.close()
        store.close()  # idempotent


class TestChunkedReaders:
    def test_vector_chunks_concatenate_to_whole_file(self, tmp_path, rng):
        vectors = rng.random((137, 4))
        path = tmp_path / "vectors.txt"
        save_vectors(path, vectors)
        assert count_rows(path) == 137
        chunks = list(iter_vector_chunks(path, 32))
        assert [c.shape[0] for c in chunks] == [32, 32, 32, 32, 9]
        np.testing.assert_array_equal(
            np.concatenate(chunks), load_vectors(path)
        )

    def test_string_chunks_concatenate_to_whole_file(self, tmp_path):
        words = [f"word{i:03d}" for i in range(75)]
        path = tmp_path / "words.txt"
        save_strings(path, words)
        assert count_rows(path) == 75
        chunks = list(iter_string_chunks(path, 20))
        assert [len(c) for c in chunks] == [20, 20, 20, 15]
        assert [w for chunk in chunks for w in chunk] == load_strings(path)

    def test_row_gather_matches_full_load(self, tmp_path, rng):
        vectors = rng.random((60, 3))
        path = tmp_path / "vectors.txt"
        save_vectors(path, vectors)
        picked = read_vector_rows(path, [3, 0, 59, 17])
        np.testing.assert_array_equal(picked, vectors[[3, 0, 59, 17]])
        words = ["alpha", "beta", "gamma", "delta"]
        spath = tmp_path / "words.txt"
        save_strings(spath, words)
        assert read_string_rows(spath, [2, 0]) == ["gamma", "alpha"]

    def test_row_gather_rejects_out_of_range(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((10, 2)))
        with pytest.raises(IndexError):
            read_vector_rows(path, [10])
        with pytest.raises(IndexError):
            read_vector_rows(path, [-1])


def _census_equal(a, b):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k].codes, b[k].codes)
        np.testing.assert_array_equal(a[k]._counts, b[k]._counts)
        assert a[k].distinct == b[k].distinct
        assert a[k].total == b[k].total


class TestStreamingCensus:
    def test_vector_chunks_match_in_memory(self, tmp_path, rng):
        points = rng.random((150, 3))
        sites = points[:5]
        metric = EuclideanDistance()
        whole, _ = sharded_census(points, sites, metric, ks=[3, 5])
        path = tmp_path / "vectors.txt"
        save_vectors(path, points)
        streamed = streaming_census(
            iter_vector_chunks(path, 32), sites, metric, ks=[3, 5]
        )
        _census_equal(streamed, whole)

    def test_string_chunks_match_in_memory(self, tmp_path, small_words):
        words = small_words * 6
        sites = words[:4]
        metric = LevenshteinDistance()
        whole, _ = sharded_census(words, sites, metric, ks=[2, 4])
        path = tmp_path / "words.txt"
        save_strings(path, words)
        streamed = streaming_census(
            iter_string_chunks(path, 25), sites, metric, ks=[2, 4]
        )
        _census_equal(streamed, whole)

    def test_parallel_chunks_match_serial(self, rng):
        points = rng.random((200, 3))
        sites = points[:4]
        metric = EuclideanDistance()
        chunks = [points[i:i + 48] for i in range(0, 200, 48)]
        serial = streaming_census(iter(chunks), sites, metric, ks=[4])
        parallel = streaming_census(
            iter(chunks), sites, metric, ks=[4], workers=2
        )
        _census_equal(parallel, serial)

    def test_empty_input_yields_empty_census(self):
        result = streaming_census(
            iter(()), [], EuclideanDistance(), ks=[3]
        )
        assert set(result) == {3}
        assert result[3].total == 0


class TestResidentMmapWorkers:
    def test_resident_workers_answer_from_mapped_sections(
        self, tmp_path, rng
    ):
        points = rng.random((300, 3))
        metric = EuclideanDistance()
        factory = partial(DistPermIndex, n_sites=5, site_strategy="first")
        queries = rng.random((4, 3))
        path = tmp_path / "sharded.rpc"
        with ShardedIndex(points, metric, factory, n_shards=2) as index:
            expected = [
                [(n.index, round(n.distance, 9)) for n in batch]
                for batch in index.knn_approx_batch(queries, 4, budget=40)
            ]
            save_sharded(path, index)
        loaded = load_sharded(
            path, points, metric, resident=True, backing="mmap",
            cache_bytes=8192,
        )
        try:
            got = [
                [(n.index, round(n.distance, 9)) for n in batch]
                for batch in loaded.knn_approx_batch(queries, 4, budget=40)
            ]
            assert got == expected
        finally:
            loaded.close()


def _smash(path, offset, length=10):
    """Overwrite ``length`` bytes at ``offset`` with ones (bit rot)."""
    blob = bytearray(path.read_bytes())
    blob[offset : offset + length] = b"\xff" * length
    path.write_bytes(bytes(blob))


def _columns(rows):
    return (rows.distances.tobytes(), rows.indices.tobytes(),
            rows.offsets.tobytes())


class TestDecodeOnceScan:
    """The mmap query loop: tiles of several store blocks, each block
    decoded at most once per chunk of queries and a retained block once
    per index lifetime; same answers as RAM, same corruption contract."""

    K = 6  # 6! = 720 -> 10-bit codes: element e starts at byte e * 10 / 8
    BLOCK = 64
    BLOCK_BYTES = BLOCK * K  # one block of uint8 rank positions

    def _saved(self, tmp_path, rng, n=1000):
        points = rng.random((n, 4))
        index = DistPermIndex(
            points, EuclideanDistance(), n_sites=self.K,
            site_strategy="first",
        )
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        return points, path

    def _mapped(self, path, points):
        # A budget of one block's positions derives blocks of BLOCK codes.
        mapped = load_distperm(
            path, points, EuclideanDistance(), backing="mmap",
            cache_bytes=self.BLOCK_BYTES,
        )
        assert mapped.code_store.block_elements == self.BLOCK
        return mapped

    def test_flipped_page_raises_on_first_touch_by_a_batch(
        self, tmp_path, rng
    ):
        points, path = self._saved(tmp_path, rng, n=600)
        clean = self._mapped(path, points)
        section = clean.code_store.offset
        clean.close()
        # Elements 320..327 (block 5) become 1023 >= 6!: byte 400 onward.
        _smash(path, section + 400)
        with pytest.raises(PayloadCorruptError) as at_load:
            load_distperm(path, points, EuclideanDistance(), backing="ram")
        assert (at_load.value.shard, at_load.value.byte_offset) == (None, 400)
        # The probe's block is intact, so the mapped load succeeds; the
        # damage surfaces when a batch first decodes its block.
        mapped = self._mapped(path, points)
        try:
            with pytest.raises(PayloadCorruptError) as on_touch:
                mapped.knn_approx_batch_arrays(points[:3], 2, 50)
            error = on_touch.value
            assert (error.shard, error.byte_offset) == (None, 400)
            assert "element 320 decodes outside [0, 6!)" in str(error)
            assert str(error).startswith(
                "corrupt payload [unsharded payload, byte offset 400]"
            )
            # Reached through the positions path, inside a tile: the first
            # clean block before it was retained, the corrupt one never
            # is, so the next batch trips over it again.
            store = mapped.code_store
            assert store.current_cache_bytes == self.BLOCK_BYTES
            with pytest.raises(PayloadCorruptError, match="element 320"):
                mapped.knn_approx_batch_arrays(points[:3], 2, 50)
            with pytest.raises(PayloadCorruptError, match="element 320"):
                store.positions_block(5)
        finally:
            mapped.close()

    def test_flipped_page_in_a_resident_worker_names_its_shard(
        self, tmp_path, rng
    ):
        points = rng.random((600, 4))
        metric = EuclideanDistance()
        factory = partial(
            DistPermIndex, n_sites=self.K, site_strategy="first"
        )
        path = tmp_path / "sharded.rpc"
        with ShardedIndex(points, metric, factory, n_shards=2) as index:
            save_sharded(path, index)
        shard = load_shard(path, 1, points[300:], metric, backing="mmap")
        section = shard.code_store.offset
        shard.close()
        _smash(path, section + 200)  # element 160, block 2
        loaded = load_sharded(
            path, points, metric, resident=True, backing="mmap",
            cache_bytes=self.BLOCK_BYTES,
        )
        try:
            with pytest.raises(RuntimeError) as excinfo:
                loaded.knn_approx_batch_arrays(points[:3], 2, 50)
            text = str(excinfo.value)
            assert "PayloadCorruptError" in text
            assert "corrupt payload [s1, byte offset 200]" in text
            assert "element 160 decodes outside [0, 6!)" in text
        finally:
            loaded.close()

    @pytest.mark.parametrize("batch, chunks", [(4, 1), (8, 2), (5, 2), (20, 5)])
    def test_answers_equal_ram_on_both_sides_of_the_row_limit(
        self, tmp_path, rng, monkeypatch, batch, chunks
    ):
        n = 1000  # 15 full blocks + one of 40 elements
        points, path = self._saved(tmp_path, rng, n=n)
        queries = rng.random((batch, 4))
        # 4 one-byte footrule rows of n entries per chunk.
        monkeypatch.setattr(batching, "_TARGET_CHUNK_BYTES", 4 * n)
        ram = load_distperm(path, points, EuclideanDistance(), backing="ram")
        mapped = self._mapped(path, points)
        # The mmap scan decodes, so it chunks queries; RAM tiles them.
        assert len(list(mapped._query_chunks(batch))) == chunks
        store = mapped.code_store
        try:
            assert store.n_blocks == 16
            assert store.block_range(15) == (960, 1000)
            # The load-time probe read its block's codes and cached nothing.
            assert store.current_cache_bytes == 0
            assert (store.cache_hits, store.cache_misses) == (0, 0)
            for batches in (1, 2):
                got = mapped.knn_approx_batch_arrays(queries, 3, 40)
                # Sixteen blocks are scanned once per chunk, never once
                # per query.  The first fits the cache and is decoded
                # once in the index's lifetime; the other fifteen are
                # decoded once per chunk.
                scans = chunks * batches
                assert store.cache_misses == 1 + 15 * scans
                assert store.cache_hits == scans - 1
                assert _columns(got) == _columns(
                    ram.knn_approx_batch_arrays(queries, 3, 40)
                )
            np.testing.assert_array_equal(
                mapped.query_footrules(queries, 25),
                ram.query_footrules(queries, 25),
            )
            assert store.peak_cache_bytes == self.BLOCK_BYTES
            assert store.peak_cache_bytes <= store.cache_bytes
        finally:
            mapped.close()

    @pytest.mark.parametrize(
        "n, tile_blocks, tiles",
        [
            (1000, 3, [(0, 192), (192, 384), (384, 576), (576, 768),
                       (768, 960), (960, 1000)]),  # ragged block alone
            (1000, 5, [(0, 320), (320, 640), (640, 960), (960, 1000)]),
            (1000, 4, [(0, 256), (256, 512), (512, 768), (768, 1000)]),
            (1000, 16, [(0, 1000)]),  # the whole store is one tile
            (1000, 99, [(0, 1000)]),  # never wider than n
            (1000, 0, [(s, min(s + 64, 1000)) for s in range(0, 1000, 64)]),
            (640, 3, [(0, 192), (192, 384), (384, 576), (576, 640)]),
            (40, 3, [(0, 40)]),  # n below one block
        ],
    )
    def test_tiles_span_blocks_and_answers_equal_ram(
        self, tmp_path, rng, monkeypatch, n, tile_blocks, tiles
    ):
        points, path = self._saved(tmp_path, rng, n=n)
        queries = np.concatenate([rng.random((5, 4)), points[:2]])
        # One byte short of the next block: a tile holds whole blocks
        # only, and one block at least.
        monkeypatch.setattr(
            distperm, "_TILE_BYTES", (tile_blocks + 1) * self.BLOCK_BYTES - 1
        )
        ram = load_distperm(path, points, EuclideanDistance(), backing="ram")
        mapped = self._mapped(path, points)
        try:
            resident = ram._perm_positions.T
            seen = []
            for start, stop, columns in mapped._position_tiles():
                seen.append((start, stop))
                assert columns.shape == (self.K, stop - start)
                assert columns.strides[1] == columns.itemsize
                np.testing.assert_array_equal(columns, resident[:, start:stop])
            assert seen == tiles
            [(start, stop, columns)] = ram._position_tiles()
            assert (start, stop) == (0, n)
            assert np.shares_memory(columns, ram._perm_positions)
            np.testing.assert_array_equal(
                mapped._footrules_matrix(ram.query_permutations(queries)),
                ram._footrules_matrix(ram.query_permutations(queries)),
            )
            for budget in (1, 30, n - 1, n):
                assert _columns(
                    mapped.knn_approx_batch_arrays(queries, 3, budget)
                ) == _columns(ram.knn_approx_batch_arrays(queries, 3, budget))
        finally:
            mapped.close()


#: Rows per chunk at n = 200k by footrule / distance entry width: the
#: 32 MiB budget counted in bytes (8 is the float64 default).
_ROWS_AT_200K = {1: 167, 2: 83, 8: 20}


class TestQueryChunkBudget:
    @pytest.mark.parametrize("itemsize, rows", sorted(_ROWS_AT_200K.items()))
    def test_rows_per_chunk_at_200k(self, itemsize, rows):
        chunks = list(batching.query_chunks(1000, 200_000, itemsize))
        assert chunks[0] == (0, rows)
        assert chunks[-1][1] == 1000
        assert len(chunks) == -(-1000 // rows)

    def test_default_is_a_float64_matrix(self):
        assert list(batching.query_chunks(80, 200_000)) == [
            (0, 20), (20, 40), (40, 60), (60, 80),
        ]
        assert list(batching.query_chunks(80, 200_000, 1)) == [(0, 80)]

    def test_one_row_at_least(self):
        assert list(batching.query_chunks(2, 10**9)) == [(0, 1), (1, 2)]
        assert list(batching.query_chunks(0, 10)) == []


class TestReplyByteStats:
    def test_unsharded_batcher_counts_columnar_reply_bytes(self, rng):
        """An unsharded engine does no worker IPC, so the batcher must
        fall back to the columnar result size — STATS on a plain served
        index would otherwise report 0 forever."""
        import asyncio

        from repro.index import LinearScan
        from repro.serve.batcher import BatchConfig, MicroBatcher

        index = LinearScan(rng.random((200, 4)), EuclideanDistance())
        queries = rng.random((6, 4))

        async def _main():
            batcher = MicroBatcher(
                index, config=BatchConfig(max_batch=6, max_wait_ms=50.0)
            )
            batcher.start()
            try:
                await batcher.submit("knn", queries, k=3)
                return batcher.stats.reply_bytes
            finally:
                await batcher.drain()

        reply_bytes = asyncio.run(_main())
        # 6 queries x 3 neighbors: 18 float64 + 18 int64 + 7 offsets.
        assert reply_bytes == 18 * 8 + 18 * 8 + 7 * 8

    def test_note_reply_bytes_accumulates(self):
        stats = ServerStats()
        assert stats.reply_bytes == 0
        assert stats.shard_reply_bytes is None
        stats.note_reply_bytes(100)
        stats.note_reply_bytes(50, (30, None, 20))
        assert stats.reply_bytes == 150
        assert stats.shard_reply_bytes == (30, None, 20)
        snapshot = stats.snapshot()
        assert snapshot["reply_bytes"] == 150
        assert snapshot["shard_reply_bytes"] == [30, None, 20]

    def test_json_snapshot_parses(self):
        import json

        stats = ServerStats()
        stats.note_reply_bytes(64, (64,))
        decoded = json.loads(stats.json())
        assert decoded["reply_bytes"] == 64
        assert decoded["shard_reply_bytes"] == [64]
