"""Tests for DistPermIndex serialization."""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest

from repro.core.bitpack import pack_ids
from repro.core.permutation import MAX_CODE_SITES
from repro.core.storage import bits_full_permutation
from repro.datasets import load_database
from repro.index import DistPermIndex, ShardedIndex
from repro.index.serialize import (
    PayloadCorruptError,
    convert_v2_payload,
    load_distperm,
    load_shard,
    load_sharded,
    save_distperm,
    save_sharded,
)
from repro.metrics import EuclideanDistance


@pytest.fixture
def built(rng):
    points = rng.random((400, 3))
    index = DistPermIndex(
        points, EuclideanDistance(), n_sites=7, rng=np.random.default_rng(1)
    )
    return points, index


class TestRoundTrip:
    def test_payload_roundtrip(self, tmp_path, built):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        assert loaded.site_indices == index.site_indices
        np.testing.assert_array_equal(loaded.permutations, index.permutations)
        assert loaded.unique_permutations() == index.unique_permutations()

    def test_loaded_index_answers_queries(self, tmp_path, built, rng):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        query = rng.random(3)
        original = [(n.index, round(n.distance, 9))
                    for n in index.knn_query(query, 5)]
        reloaded = [(n.index, round(n.distance, 9))
                    for n in loaded.knn_query(query, 5)]
        assert original == reloaded

    def test_loaded_candidate_order_matches(self, tmp_path, built, rng):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        query = rng.random(3)
        np.testing.assert_array_equal(
            index.candidate_order(query), loaded.candidate_order(query)
        )

    def test_string_database(self, tmp_path):
        database = load_database("English", n=300)
        index = DistPermIndex(
            database.points, database.metric, n_sites=5,
            rng=np.random.default_rng(2),
        )
        path = tmp_path / "dict.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, database.points, database.metric)
        assert loaded.unique_permutations() == index.unique_permutations()


class TestBatchedRoundTrip:
    """A loaded index must answer the *batched* API identically to the
    index it was saved from — the loader has to rebuild every derived
    cache ``_build`` creates, not just the payload arrays."""

    def _signatures(self, batches):
        return [
            [(n.index, round(n.distance, 9)) for n in batch]
            for batch in batches
        ]

    def test_knn_approx_batch_after_load(self, tmp_path, built, rng):
        """Regression: load_distperm used to skip ``_perm_positions``, so
        ``knn_approx_batch`` on any deserialized index crashed with
        AttributeError inside the footrule path."""
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        queries = rng.random((6, 3))
        fresh = index.knn_approx_batch(queries, 5, budget=60)
        reloaded = loaded.knn_approx_batch(queries, 5, budget=60)
        assert self._signatures(reloaded) == self._signatures(fresh)

    def test_full_batched_api_roundtrip(self, tmp_path, built, rng):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        queries = rng.random((5, 3))
        assert self._signatures(
            loaded.range_batch(queries, 0.4)
        ) == self._signatures(index.range_batch(queries, 0.4))
        assert self._signatures(
            loaded.knn_batch(queries, 7)
        ) == self._signatures(index.knn_batch(queries, 7))
        assert self._signatures(
            loaded.knn_approx_batch(queries, 7, budget=100)
        ) == self._signatures(index.knn_approx_batch(queries, 7, budget=100))

    def test_string_database_batched_roundtrip(self, tmp_path):
        database = load_database("English", n=250)
        index = DistPermIndex(
            database.points, database.metric, n_sites=5,
            rng=np.random.default_rng(3),
        )
        path = tmp_path / "dict.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, database.points, database.metric)
        queries = [database.points[10], "hello", "zz"]
        assert self._signatures(
            loaded.knn_approx_batch(queries, 6, budget=40)
        ) == self._signatures(index.knn_approx_batch(queries, 6, budget=40))
        assert self._signatures(
            loaded.range_batch(queries, 2)
        ) == self._signatures(index.range_batch(queries, 2))

    def test_loaded_index_carries_build_attributes(self, tmp_path, built):
        """Every attribute ``__init__``/``_build`` sets must exist on a
        loaded index, so serialization can never again lag behind
        attributes added at build time."""
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        np.testing.assert_array_equal(
            loaded._perm_positions, index._perm_positions
        )
        assert loaded._perm_positions.dtype == index._perm_positions.dtype
        # Built and restored positions are both column-major: the
        # footrule kernel reads each site's column without a transpose.
        assert index._perm_positions.flags.f_contiguous
        assert loaded._perm_positions.flags.f_contiguous
        assert loaded._requested_sites == index.n_sites
        assert hasattr(loaded, "_site_strategy")
        assert hasattr(loaded, "_rng")


class TestValidation:
    def test_wrong_database_size_rejected(self, tmp_path, built):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        with pytest.raises(ValueError):
            load_distperm(path, points[:100], EuclideanDistance())

    def test_mismatched_database_rejected(self, tmp_path, built, rng):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        other = rng.random((400, 3))
        with pytest.raises(ValueError):
            load_distperm(path, other, EuclideanDistance())

    def test_build_cost_not_paid_on_load(self, tmp_path, built):
        """Loading must not recompute the n x k distance matrix."""
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        # Only the single probe permutation was computed (k distances),
        # and the counter was reset afterwards.
        assert loaded.metric.count == 0


def _legacy_arrays(index):
    """One index's members of a version-2 ``.npz`` payload, by hand."""
    k = index.n_sites
    arrays = {
        "site_indices": np.asarray(index.site_indices, dtype=np.int64),
        "count": np.int64(len(index.points)),
        "k": np.int64(k),
    }
    if k <= MAX_CODE_SITES:
        bit_width = bits_full_permutation(k)
        arrays["bit_width"] = np.int64(bit_width)
        arrays["codes_packed"] = np.frombuffer(
            pack_ids(index.codes, bit_width), dtype=np.uint8
        )
    else:
        arrays["perm_matrix"] = index.permutations.astype(np.uint16)
    return arrays


def _save_legacy(path, index, mutate=None):
    """Write ``index`` as a version-2 ``.npz``, after ``mutate(arrays)``."""
    arrays = {"version": np.int64(2)}
    if isinstance(index, ShardedIndex):
        arrays["offsets"] = np.asarray(index.shard_offsets, dtype=np.int64)
        for j, shard in enumerate(index.shards):
            for key, value in _legacy_arrays(shard).items():
                arrays[f"s{j}_{key}"] = value
    else:
        arrays.update(_legacy_arrays(index))
    if mutate is not None:
        mutate(arrays)
    np.savez_compressed(path, **arrays)


def _converted(tmp_path, index, mutate=None):
    """Convert a hand-built legacy payload of ``index``; the new path."""
    legacy = tmp_path / "legacy.npz"
    _save_legacy(legacy, index, mutate)
    path = tmp_path / "converted.rpc"
    convert_v2_payload(legacy, path)
    return path


def _load_errors(path, load):
    """The :class:`PayloadCorruptError` of ``load(path, backing)`` under
    each backing."""
    errors = []
    for backing in ("ram", "mmap"):
        with pytest.raises(PayloadCorruptError) as excinfo:
            load(path, backing)
        errors.append(excinfo.value)
    return errors


class TestCorruptPayloads:
    """Damaged legacy v2 payloads convert (the bytes are copied, not
    decoded) and then fail to load as :class:`PayloadCorruptError`
    naming the shard key and byte offset — under either backing, exactly
    as the v2 loader failed, not as a bare numpy shape error."""

    def _load(self, points):
        return lambda path, backing: load_distperm(
            path, points, EuclideanDistance(), backing=backing
        )

    def test_truncated_stream(self, tmp_path, built):
        points, index = built

        def truncate(arrays):
            arrays["codes_packed"] = arrays["codes_packed"][:-3]

        path = _converted(tmp_path, index, truncate)
        for error in _load_errors(path, self._load(points)):
            assert error.shard is None
            assert error.byte_offset > 0  # the short buffer's length
            assert "truncated" in str(error)
            assert "byte offset" in str(error)

    def test_bit_flipped_stream(self, tmp_path, built):
        points, index = built
        # k=7: 13-bit codes against 7! = 5040, so an all-ones element
        # (8191) decodes out of range.  Smash a mid-stream byte run —
        # every element fully inside it becomes all-ones.
        def flip(arrays):
            packed = arrays["codes_packed"].copy()
            packed[160:166] = 0xFF
            arrays["codes_packed"] = packed

        path = _converted(tmp_path, index, flip)
        for error in _load_errors(path, self._load(points)):
            assert error.shard is None
            # The offset points into the smashed run (first bad element).
            assert 150 <= error.byte_offset <= 170
            assert "decodes outside" in str(error)

    def test_wrong_width_stream(self, tmp_path, built):
        points, index = built

        def widen(arrays):
            arrays["bit_width"] = np.int64(int(arrays["bit_width"]) + 3)

        path = _converted(tmp_path, index, widen)
        for error in _load_errors(path, self._load(points)):
            assert error.byte_offset == 0  # header-level damage
            assert "width" in str(error)

    def test_sharded_error_names_the_shard(self, tmp_path, built):
        points, _ = built
        factory = partial(DistPermIndex, n_sites=5, site_strategy="first")
        with ShardedIndex(
            points, EuclideanDistance(), factory, n_shards=3
        ) as index:

            def truncate_s1(arrays):
                arrays["s1_codes_packed"] = arrays["s1_codes_packed"][:-2]

            path = _converted(tmp_path, index, truncate_s1)
        for error in _load_errors(
            path,
            lambda path, backing: load_sharded(
                path, points, EuclideanDistance(), backing=backing
            ),
        ):
            assert error.shard == "s1"
            assert "[s1," in str(error)
            assert "truncated" in str(error)

    def test_read_shard_payload_roundtrip(self, tmp_path, built):
        """One shard of a converted legacy payload loads on its own."""
        points, _ = built
        factory = partial(DistPermIndex, n_sites=5, site_strategy="first")
        with ShardedIndex(
            points, EuclideanDistance(), factory, n_shards=2
        ) as index:
            path = _converted(tmp_path, index)
            want = index.shards[1]
            start = index.shard_offsets[1]
        shard = load_shard(path, 1, points[start:], EuclideanDistance())
        try:
            assert len(shard.points) == len(want.points)
            np.testing.assert_array_equal(
                shard.permutations, want.permutations
            )
        finally:
            shard.close()
        with pytest.raises(ValueError, match="no shard s7"):
            load_shard(path, 7, points, EuclideanDistance())


class TestV2Conversion:
    """``convert_v2_payload`` turns a hand-built legacy ``.npz`` into a
    container whose loads match the source index."""

    def test_sharded_converts(self, tmp_path, built):
        points, _ = built
        factory = partial(DistPermIndex, n_sites=5, site_strategy="first")
        with ShardedIndex(
            points, EuclideanDistance(), factory, n_shards=3
        ) as index:
            path = _converted(tmp_path, index)
            for backing in ("ram", "mmap"):
                with load_sharded(
                    path, points, EuclideanDistance(), backing=backing
                ) as loaded:
                    assert loaded.shard_offsets == index.shard_offsets
                    for got, want in zip(loaded.shards, index.shards):
                        assert got.backing == backing
                        np.testing.assert_array_equal(
                            got.permutations, want.permutations
                        )

    def test_perm_matrix_converts(self, tmp_path, rng):
        """k = 21 is past the code window: the row-matrix section, which
        loads RAM-backed only."""
        points = rng.random((80, 3))
        index = DistPermIndex(
            points, EuclideanDistance(), n_sites=MAX_CODE_SITES + 1,
            rng=np.random.default_rng(4),
        )
        path = _converted(tmp_path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        np.testing.assert_array_equal(loaded.permutations, index.permutations)
        # Positions come from inverting the matrix just read.
        assert loaded._perm_positions.flags.f_contiguous
        np.testing.assert_array_equal(
            loaded._perm_positions, index._perm_positions
        )
        with pytest.raises(ValueError, match="RAM-backed only"):
            load_distperm(path, points, EuclideanDistance(), backing="mmap")

    def test_non_v2_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, version=np.int64(1))
        with pytest.raises(ValueError, match="not a version-2 payload"):
            convert_v2_payload(path, tmp_path / "out.rpc")


class TestV3Payloads:
    """The v3 page-aligned container: round trips under both backings,
    legacy conversion, and corruption surfaced as PayloadCorruptError."""

    def _signatures(self, batches):
        return [
            [(n.index, round(n.distance, 9)) for n in batch]
            for batch in batches
        ]

    def test_v3_is_the_default_format(self, tmp_path, built):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        with open(path, "rb") as handle:
            assert handle.read(8) == b"RPRMCOD3"

    def test_mmap_backing_answers_identically(self, tmp_path, built, rng):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        ram = load_distperm(path, points, EuclideanDistance())
        mapped = load_distperm(
            path, points, EuclideanDistance(), backing="mmap",
            cache_bytes=448,  # 448 B / (7 bytes per element) = 64
        )
        try:
            assert mapped.code_store.block_elements == 64
            assert mapped.backing == "mmap"
            assert ram.backing == "ram"
            queries = rng.random((6, 3))
            assert self._signatures(
                mapped.knn_approx_batch(queries, 5, budget=60)
            ) == self._signatures(ram.knn_approx_batch(queries, 5, budget=60))
            query = rng.random(3)
            np.testing.assert_array_equal(
                mapped.candidate_order(query), ram.candidate_order(query)
            )
            np.testing.assert_array_equal(
                mapped.query_footrules([query], 10),
                ram.query_footrules([query], 10),
            )
            np.testing.assert_array_equal(
                mapped.permutations, ram.permutations
            )
            assert mapped.unique_permutations() == ram.unique_permutations()
            assert mapped._materialized_codes().tobytes() == (
                ram.codes.tobytes()
            )
        finally:
            mapped.close()

    def test_mmap_residency_stays_under_budget(self, tmp_path, built, rng):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        mapped = load_distperm(
            path, points, EuclideanDistance(), backing="mmap",
            cache_bytes=2048,
        )
        try:
            store = mapped.code_store
            # Decoded total (400 elements x 7 position bytes) exceeds the
            # budget, and loading left nothing behind in the cache.
            assert store.decoded_bytes_total() == 400 * 7 > 2048
            assert store.current_cache_bytes == 0
            mapped.knn_approx_batch(rng.random((4, 3)), 5, budget=60)
            assert 0 < store.peak_cache_bytes <= 2048
            assert store.cache_misses > 0
        finally:
            mapped.close()

    def test_add_points_rejected_on_mmap(self, tmp_path, built, rng):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        mapped = load_distperm(
            path, points, EuclideanDistance(), backing="mmap"
        )
        try:
            with pytest.raises(RuntimeError, match="backing='ram'"):
                mapped.add_points(rng.random((3, 3)))
        finally:
            mapped.close()

    def test_v2_still_loads_ram_backed(self, tmp_path, built):
        """A legacy k = 7 payload loads once converted, under either
        backing."""
        points, index = built
        path = _converted(tmp_path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        assert loaded.backing == "ram"
        np.testing.assert_array_equal(loaded.codes, index.codes)
        np.testing.assert_array_equal(loaded.permutations, index.permutations)
        mapped = load_distperm(
            path, points, EuclideanDistance(), backing="mmap"
        )
        try:
            np.testing.assert_array_equal(
                mapped.permutations, index.permutations
            )
        finally:
            mapped.close()

    def test_v2_mmap_rejected(self, tmp_path, built):
        """Every loader, under either backing, names the converter when
        handed an ``.npz``."""
        points, index = built
        path = tmp_path / "legacy.npz"
        _save_legacy(path, index)
        for backing in ("ram", "mmap"):
            with pytest.raises(ValueError, match="convert_v2_payload"):
                load_distperm(
                    path, points, EuclideanDistance(), backing=backing
                )
        with pytest.raises(ValueError, match="convert_v2_payload"):
            load_sharded(path, points, EuclideanDistance())
        with pytest.raises(ValueError, match="convert_v2_payload"):
            load_shard(path, 0, points, EuclideanDistance())

    @pytest.mark.parametrize("backing", ["ram", "mmap"])
    def test_truncated_v3_code_section(self, tmp_path, built, backing):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        blob = path.read_bytes()
        # The code section occupies the final page (with zero padding);
        # cut deep enough to remove real code bytes, not just padding.
        path.write_bytes(blob[:-4000])
        with pytest.raises(PayloadCorruptError) as excinfo:
            load_distperm(
                path, points, EuclideanDistance(), backing=backing
            )
        error = excinfo.value
        assert error.shard is None
        assert error.byte_offset >= 0
        assert "truncated" in str(error)
        assert "byte offset" in str(error)

    @pytest.mark.parametrize("backing", ["ram", "mmap"])
    def test_bit_flipped_v3_code_section(self, tmp_path, built, backing):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        # Smash a byte run in the middle of the code section; k=7 gives
        # 13-bit codes, so an all-ones element decodes outside 7!.
        blob = bytearray(path.read_bytes())
        section_start = len(blob) - 4096  # last page holds the codes
        blob[section_start + 160:section_start + 166] = b"\xff" * 6
        path.write_bytes(bytes(blob))
        with pytest.raises(PayloadCorruptError) as excinfo:
            load_distperm(
                path, points, EuclideanDistance(), backing=backing
            )
        error = excinfo.value
        assert error.shard is None
        assert error.byte_offset > 0
        assert "decodes outside" in str(error)

    @pytest.mark.parametrize("backing", ["ram", "mmap"])
    def test_wrong_width_v3_header(self, tmp_path, built, backing):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len].decode("ascii"))
        shard_meta = header["shards"][0]
        shard_meta["codes"]["bit_width"] = shard_meta["codes"]["bit_width"] + 3
        raw = json.dumps(header).encode("ascii")
        # Rewriting in place needs the same header length: pad with
        # spaces (valid JSON whitespace) up to the original size.
        assert len(raw) <= header_len
        raw = raw + b" " * (header_len - len(raw))
        path.write_bytes(blob[:16] + raw + blob[16 + header_len:])
        with pytest.raises(PayloadCorruptError) as excinfo:
            load_distperm(
                path, points, EuclideanDistance(), backing=backing
            )
        error = excinfo.value
        assert error.byte_offset == 0  # header-level damage
        assert "width" in str(error)

    def test_bad_magic_is_unrecognized(self, tmp_path, built):
        points, index = built
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not a recognized"):
            load_distperm(path, points, EuclideanDistance())


class TestV3Sharded:
    def _build(self, points, n_shards=3):
        factory = partial(DistPermIndex, n_sites=5, site_strategy="first")
        return ShardedIndex(
            points, EuclideanDistance(), factory, n_shards=n_shards
        )

    def _signatures(self, batches):
        return [
            [(n.index, round(n.distance, 9)) for n in batch]
            for batch in batches
        ]

    def test_sharded_v3_roundtrip_both_backings(self, tmp_path, built, rng):
        points, _ = built
        path = tmp_path / "sharded.rpc"
        with self._build(points) as index:
            save_sharded(path, index)
            queries = rng.random((5, 3))
            fresh = self._signatures(
                index.knn_approx_batch(queries, 5, budget=60)
            )
        with load_sharded(path, points, EuclideanDistance()) as ram:
            assert all(
                s._perm_positions.flags.f_contiguous for s in ram.shards
            )
            assert self._signatures(
                ram.knn_approx_batch(queries, 5, budget=60)
            ) == fresh
        with load_sharded(
            path, points, EuclideanDistance(), backing="mmap",
            cache_bytes=4096,
        ) as mapped:
            assert all(s.backing == "mmap" for s in mapped.shards)
            assert self._signatures(
                mapped.knn_approx_batch(queries, 5, budget=60)
            ) == fresh

    def test_sharded_v3_error_names_the_shard(self, tmp_path, built):
        points, _ = built
        path = tmp_path / "sharded.rpc"
        with self._build(points) as index:
            save_sharded(path, index)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len].decode("ascii"))
        shard_meta = header["shards"][1]
        # +2 keeps the value single-digit (7 -> 9) so the rewritten
        # header still fits in the original byte span.
        shard_meta["codes"]["bit_width"] = shard_meta["codes"]["bit_width"] + 2
        raw = json.dumps(header).encode("ascii")
        assert len(raw) <= header_len
        raw = raw + b" " * (header_len - len(raw))
        path.write_bytes(blob[:16] + raw + blob[16 + header_len:])
        with pytest.raises(PayloadCorruptError) as excinfo:
            load_sharded(path, points, EuclideanDistance())
        assert excinfo.value.shard == "s1"
        assert "[s1," in str(excinfo.value)

    def test_sharded_v3_truncated_middle_shard_names_s1(
        self, tmp_path, built
    ):
        points, _ = built
        path = tmp_path / "sharded.rpc"
        with self._build(points) as index:
            save_sharded(path, index)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + header_len].decode("ascii"))
        section = header["shards"][1]["codes"]
        short = section["nbytes"] - 20
        section["nbytes"] = short
        raw = json.dumps(header).encode("ascii")
        assert len(raw) <= header_len
        raw = raw + b" " * (header_len - len(raw))
        path.write_bytes(blob[:16] + raw + blob[16 + header_len:])
        for backing in ("ram", "mmap"):
            with pytest.raises(PayloadCorruptError) as excinfo:
                load_sharded(
                    path, points, EuclideanDistance(), backing=backing
                )
            error = excinfo.value
            assert (error.shard, error.byte_offset) == ("s1", short)
            assert "[s1," in str(error)
            assert "truncated" in str(error)

    def test_read_shard_payload_v3(self, tmp_path, built):
        """``load_shard`` reads one shard of a v3 file under both
        backings, and names a shard the file does not hold."""
        points, _ = built
        path = tmp_path / "sharded.rpc"
        with self._build(points, n_shards=2) as index:
            save_sharded(path, index)
            want = index.shards[1]
            start = index.shard_offsets[1]
        for backing in ("ram", "mmap"):
            shard = load_shard(
                path, 1, points[start:], EuclideanDistance(), backing=backing
            )
            try:
                assert shard.backing == backing
                assert shard.site_indices == want.site_indices
                np.testing.assert_array_equal(
                    shard.permutations, want.permutations
                )
            finally:
                shard.close()
        with pytest.raises(ValueError, match="no shard s7"):
            load_shard(path, 7, points, EuclideanDistance())

    def test_load_shard_rereads_a_rewritten_file(self, tmp_path, built):
        """Nothing about a payload file outlives a load: a rewrite with
        other shard boundaries is read afresh (a stale header would
        describe the wrong element count and fail the load)."""
        points, _ = built
        path = tmp_path / "sharded.rpc"
        with self._build(points, n_shards=2) as index:
            save_sharded(path, index)
            first = len(index.shards[0].points)
        with self._build(points, n_shards=3) as index:
            save_sharded(path, index)
            offsets = index.shard_offsets
        last = load_shard(path, 2, points[offsets[2]:], EuclideanDistance())
        assert len(last.points) > 0
        again = load_shard(path, 0, points[: offsets[1]], EuclideanDistance())
        assert len(again.points) < first


class TestLoadedEqualsFresh:
    """Every payload shape loads into an index whose ``knn_approx``
    columns equal the fresh index's — including k = 1, whose
    ``ceil(lg 1!) = 0``-bit code section holds no bytes at all.  The
    resident cell of the unsharded layout serves a one-shard payload, the
    only way to put a single index behind a pinned worker."""

    @pytest.mark.parametrize("engine", ["in-process", "resident"])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("backing", ["ram", "mmap"])
    @pytest.mark.parametrize("k", [1, 2, 12])
    def test_knn_approx_columns(
        self, tmp_path, rng, k, backing, shards, engine
    ):
        points = rng.random((120, 3))
        queries = rng.random((5, 3))
        metric = EuclideanDistance()
        path = tmp_path / "payload.rpc"
        factory = partial(DistPermIndex, n_sites=k, site_strategy="first")
        if shards == 1 and engine == "in-process":
            fresh = factory(points, metric)
            want = fresh.knn_approx_batch_arrays(queries, 3, 30)
            save_distperm(path, fresh)
            loaded = load_distperm(path, points, metric, backing=backing)
        else:
            with ShardedIndex(points, metric, factory, n_shards=shards) as fresh:
                want = fresh.knn_approx_batch_arrays(queries, 3, 30)
                save_sharded(path, fresh)
            loaded = load_sharded(
                path, points, metric, backing=backing,
                resident=engine == "resident",
            )
        try:
            got = loaded.knn_approx_batch_arrays(queries, 3, 30)
        finally:
            loaded.close()
        for name in ("distances", "indices", "offsets"):
            np.testing.assert_array_equal(
                getattr(got, name), getattr(want, name)
            )
