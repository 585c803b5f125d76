"""The Lehmer-prefix footrule bound and the bounded mmap candidate scan.

``footrule_prefix_bounds`` reads a lower bound on the footrule off a
code's leading sites; ``DistPermIndex._bounded_candidates`` uses it to
decode only the codes that can reach a query's budget boundary.  The
contract checked here: the bound never exceeds the footrule and is the
least footrule of any completion of the prefix; the bounded candidate
list is the very array ``_budget_candidates`` picks from the full row;
answers, corruption errors and cache counters are those of the shared
decode.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.permutation import (
    _prefix_sites,
    decode_permutations,
    footrule_prefix_bounds,
    permutation_positions,
)
from repro.core.storage import MappedCodeStore
from repro.index import DistPermIndex, distperm
from repro.index.distperm import _budget_candidates
from repro.index.serialize import (
    PayloadCorruptError,
    load_distperm,
    save_distperm,
)
from repro.metrics import EuclideanDistance
from repro.metrics.base import take_points

_SLOW = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _footrules(perms, query):
    """Exact footrules of permutation rows against one query permutation."""
    positions = permutation_positions(np.asarray(perms))
    return np.abs(positions - permutation_positions(query[None])[0]).sum(
        axis=1
    )


@st.composite
def _codes_and_query(draw, ks=st.integers(3, 12)):
    k = draw(ks)
    codes = draw(
        st.lists(st.integers(0, math.factorial(k) - 1), min_size=1,
                 max_size=40)
    )
    query = np.array(draw(st.permutations(range(k))))
    return k, np.array(codes, dtype=np.uint64), query


class TestPrefixBound:
    @_SLOW
    @given(_codes_and_query())
    def test_bound_never_exceeds_the_footrule(self, drawn):
        k, codes, query = drawn
        tables, divisor = footrule_prefix_bounds(query[None], k)
        bounds = tables[0][codes // np.uint64(divisor)]
        exact = _footrules(decode_permutations(codes, k), query)
        assert (bounds <= exact).all()
        assert (bounds % 2 == 0).all()
        if divisor == 1:  # the prefix is the whole permutation
            np.testing.assert_array_equal(bounds, exact)

    @_SLOW
    @given(_codes_and_query())
    def test_closed_form_is_prefix_terms_plus_least_displacement(
        self, drawn
    ):
        """``2 * sum_{i<j} max(d_i, 0)`` equals the prefix's own
        displacement plus the least displacement of the other ``k - j``
        sites over the free ranks ``j..k-1`` (sorted matching, checked by
        brute force where that is small)."""
        k, codes, query = drawn
        tables, divisor = footrule_prefix_bounds(query[None], k)
        sites, _ = _prefix_sites(k)
        j = sites.shape[0]
        assert divisor == math.factorial(k - j)
        assert sites.shape[1] == math.perm(k, j) == tables.shape[1]
        rank_of = permutation_positions(query[None])[0]
        for prefix in codes // np.uint64(divisor):
            head = sites[:, prefix]
            np.testing.assert_array_equal(
                head, decode_permutations(
                    np.array([prefix * divisor], dtype=np.uint64), k
                )[0, :j],
            )
            exact_head = int(np.abs(rank_of[head] - np.arange(j)).sum())
            rest = np.setdiff1d(np.arange(k), head)
            least = int(np.abs(np.sort(rank_of[rest]) - np.arange(j, k)).sum())
            if k - j <= 5:
                brute = min(
                    int(np.abs(rank_of[list(order)] - np.arange(j, k)).sum())
                    for order in itertools.permutations(rest)
                )
                assert least == brute
            assert tables[0, prefix] == exact_head + least

    def test_prefix_width_and_table_size(self):
        # The longest prefix with at most 2**14 entries.
        for k, j in ((3, 3), (7, 7), (8, 5), (9, 5), (10, 4), (12, 4),
                     (20, 3)):
            sites, divisor = _prefix_sites(k)
            assert sites.shape == (j, math.perm(k, j))
            assert divisor == math.factorial(k - j)
            assert not sites.flags.writeable
        tables, _ = footrule_prefix_bounds(np.arange(12)[None], 12)
        assert tables.shape == (1, 11_880) and tables.dtype == np.uint8


#: Payload sizes: several blocks of BLOCK codes plus a ragged last one.
N = 700
BLOCK = 64


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """A saved index per site count: points, path, and the RAM index."""
    rng = np.random.default_rng(41)
    made = {}
    for k in (3, 8, 12):
        points = rng.random((N, 4))
        index = DistPermIndex(
            points, EuclideanDistance(), n_sites=k,
            rng=np.random.default_rng(k),
        )
        path = tmp_path_factory.mktemp(f"k{k}") / "index.rpc"
        save_distperm(path, index)
        made[k] = (points, path, index)
    return made


def _mapped(points, path, *, cache_blocks, block=BLOCK, touched=()):
    """An mmap index whose store caches ``cache_blocks`` blocks of
    ``block`` codes, with the blocks in ``touched`` retained first."""
    # The smallest budget keeps the load-time probe to the first 8 codes.
    index = load_distperm(
        path, points, EuclideanDistance(), backing="mmap", cache_bytes=0
    )
    loaded = index.code_store
    store = MappedCodeStore(
        loaded.path, offset=loaded.offset,
        nbytes=(loaded.count * loaded.bit_width + 7) // 8,
        bit_width=loaded.bit_width, count=loaded.count, k=loaded.k,
        block_elements=block, cache_bytes=cache_blocks * block * loaded.k,
    )
    loaded.close()
    index._code_store = store
    for b in touched:
        store.positions_block(b)
    return index


def _columns(rows):
    return (rows.distances.tobytes(), rows.indices.tobytes(),
            rows.offsets.tobytes())


def _counters(store):
    return (store.cache_hits, store.cache_misses, store.peak_cache_bytes,
            store.current_cache_bytes, sorted(store._blocks))


class TestBoundedCandidates:
    @_SLOW
    @given(
        k=st.sampled_from((3, 8, 12)),
        # Ten 64-code blocks leave the ragged eleventh out of the cache.
        cache_blocks=st.integers(0, 10),
        touched=st.lists(st.integers(0, N // BLOCK), max_size=6),
        n_queries=st.integers(1, 3),
        budgets=st.lists(
            st.sampled_from((0, 1, 2, 7, 40, 199, 350, N - 1, N, N + 5)),
            min_size=3, max_size=3,
        ),
        per_query=st.booleans(),
        self_queries=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equal_to_budget_candidates_over_the_full_row(
        self, payloads, k, cache_blocks, touched, n_queries, budgets,
        per_query, self_queries, seed,
    ):
        """Same array, order included, for any mix of retained and
        unretained blocks, tie-heavy rows (k = 3 takes four footrule
        values), budgets past n and per-query budget arrays with zero
        rows."""
        points, path, ram = payloads[k]
        rng = np.random.default_rng(seed)
        queries = (
            points[rng.integers(0, N, n_queries)] if self_queries
            else rng.random((n_queries, 4))
        )
        perms = ram.query_permutations(queries)
        chosen = np.array(budgets[:n_queries]) if per_query else np.full(
            n_queries, budgets[0]
        )
        expected = [
            _budget_candidates(row, int(b))
            for row, b in zip(ram._footrules_matrix(perms), chosen)
        ]
        mapped = _mapped(points, path, cache_blocks=cache_blocks,
                         touched=touched)
        try:
            got = mapped._bounded_candidates(perms, chosen)
            assert len(got) == n_queries
            for want, have in zip(expected, got):
                np.testing.assert_array_equal(have, want)
                assert have.dtype == want.dtype
        finally:
            mapped.close()

    @pytest.mark.parametrize("k", [3, 8, 12])
    @pytest.mark.parametrize("cache_blocks", [0, 1, 3, 11, 99])
    def test_answers_equal_ram_fresh_and_loaded(
        self, payloads, k, cache_blocks
    ):
        """Single queries and pairs (the chunks the bounded scan takes)
        answer as the freshly built and the RAM-loaded index do, budget
        arrays included, from the first touch of the store on."""
        points, path, fresh = payloads[k]
        loaded = load_distperm(path, points, EuclideanDistance())
        mapped = _mapped(points, path, cache_blocks=cache_blocks)
        queries = np.concatenate(
            [np.random.default_rng(k).random((4, 4)), points[:2]]
        )
        try:
            for size in (1, 2):
                for lo in range(0, len(queries), size):
                    batch = queries[lo : lo + size]
                    for budget in (30, np.array([0, 250])[:size], N):
                        want = _columns(
                            fresh.knn_approx_batch_arrays(batch, 4, budget)
                        )
                        assert _columns(loaded.knn_approx_batch_arrays(
                            batch, 4, budget)) == want
                        assert _columns(mapped.knn_approx_batch_arrays(
                            batch, 4, budget)) == want
            assert mapped.knn_approx(points[5], 3, 100) == fresh.knn_approx(
                points[5], 3, 100
            )
        finally:
            mapped.close()

    @pytest.mark.parametrize("cache_blocks, touched", [
        (0, ()), (1, ()), (3, ()), (3, (7, 2)), (4, (10,)), (11, ()),
        (99, ()),
    ])
    def test_cache_counters_equal_the_shared_decode(
        self, payloads, cache_blocks, touched
    ):
        """Hits, misses, residency and the retained set follow the same
        call sequence as the full decode the bounded scan replaces: every
        block read is one hit or one miss, and a block that fits is
        retained on first touch."""
        points, path, ram = payloads[12]
        bounded = _mapped(points, path, cache_blocks=cache_blocks,
                          touched=touched)
        shared = _mapped(points, path, cache_blocks=cache_blocks,
                         touched=touched)
        queries = np.random.default_rng(3).random((6, 4))
        perms = ram.query_permutations(queries)
        try:
            for q in range(6):
                bounded.knn_approx_batch_arrays(queries[q : q + 1], 3, 50)
                shared._footrules_matrix(perms[q : q + 1])
                assert _counters(bounded.code_store) == _counters(
                    shared.code_store
                )
            store = bounded.code_store
            assert store.peak_cache_bytes <= store.cache_bytes
        finally:
            bounded.close()
            shared.close()

    def test_consecutive_singles_reuse_the_workspace(self, payloads):
        """The code-sized arrays of the bounded scan (unpacked codes, lane
        scratch, the codes of every run, prefixes, bounds, each round's
        masks and its survivors' codes, positions and footrules, and the
        selection mask the last round shares with ``_budget_candidates``)
        live in the index's workspace: a second single query writes the same
        buffers and answers as the first and as the RAM index do."""
        points, path, ram = payloads[12]
        mapped = _mapped(points, path, cache_blocks=3, touched=(7, 2))
        keys = ("unpacked", "lanes", "codes", "prefixes", "bounds", "reach",
                "seen", "fresh", "survivors", "survivor_positions", "exact",
                "mask")
        query = np.random.default_rng(9).random(4)
        try:
            answers, buffers = [], []
            for _ in range(2):
                answers.append(
                    _columns(mapped.knn_approx_batch_arrays(query[None], 5, 90))
                )
                workspace = mapped._footrule_workspace
                buffers.append({
                    key: workspace[key].__array_interface__["data"][0]
                    for key in keys
                })
            assert buffers[0] == buffers[1]
            assert answers[0] == answers[1] == _columns(
                ram.knn_approx_batch_arrays(query[None], 5, 90)
            )
        finally:
            mapped.close()

    def test_scan_takes_only_small_chunks_on_a_partial_cache(
        self, payloads, monkeypatch
    ):
        points, path, ram = payloads[12]
        calls = []
        real = distperm.DistPermIndex._bounded_candidates

        def spy(self, perms, budgets):
            calls.append(perms.shape[0])
            return real(self, perms, budgets)

        monkeypatch.setattr(distperm.DistPermIndex, "_bounded_candidates", spy)
        queries = np.random.default_rng(5).random((5, 4))
        mapped = _mapped(points, path, cache_blocks=2)
        whole = _mapped(points, path, cache_blocks=99)
        try:
            for size in (1, 2, 3, 5):
                mapped.knn_approx_batch_arrays(queries[:size], 3, 40)
            assert calls == [1, 2]
            # A cache that holds every block leaves nothing to bound.
            whole.knn_approx_batch_arrays(queries[:1], 3, 40)
            ram.knn_approx_batch_arrays(queries[:1], 3, 40)
            assert calls == [1, 2]
        finally:
            mapped.close()
            whole.close()

    def test_corrupt_page_raises_at_the_same_offset(self, payloads, tmp_path):
        """A code outside ``[0, k!)`` in an unretained block raises
        ``PayloadCorruptError`` on the bounded path with the byte offset
        and counters of the shared decode."""
        points, path, _ = payloads[12]
        broken = tmp_path / "broken.rpc"
        blob = bytearray(path.read_bytes())
        probe = _mapped(points, path, cache_blocks=1)
        section = probe.code_store.offset
        probe.close()
        # 29-bit codes: element 400 (block 6) starts at byte 1450.
        blob[section + 1450 : section + 1460] = b"\xff" * 10
        broken.write_bytes(bytes(blob))
        errors = []
        stores = [_mapped(points, broken, cache_blocks=2) for _ in "ab"]
        perms = payloads[12][2].query_permutations(points[:1])
        try:
            for index, scan in zip(
                stores,
                (lambda i: i.knn_approx_batch_arrays(points[:1], 3, 40),
                 lambda i: i._footrules_matrix(perms)),
            ):
                for _ in range(2):
                    with pytest.raises(PayloadCorruptError) as excinfo:
                        scan(index)
                    errors.append((str(excinfo.value),
                                   excinfo.value.byte_offset,
                                   _counters(index.code_store)))
            bounded, shared = errors[:2], errors[2:]
            assert bounded == shared
            assert bounded[0][1] == 1450
            assert "element 400 decodes outside [0, 12!)" in bounded[0][0]
        finally:
            for index in stores:
                index.close()


class TestTakePoints:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 30),
        cols=st.integers(0, 5),
        ids=st.lists(st.integers(0, 29), max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_equals_fancy_indexing_bit_for_bit(self, rows, cols, ids, seed):
        points = np.random.default_rng(seed).standard_normal((rows, cols))
        picked = np.array([i % rows for i in ids], dtype=np.int64)
        got = take_points(points, picked)
        want = points[picked]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert take_points(points, np.empty(0, dtype=np.int64)).shape == (
            0, cols,
        )
