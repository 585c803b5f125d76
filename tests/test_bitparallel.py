"""Property tests for the Myers bit-parallel Levenshtein kernels.

The contract of :mod:`repro.metrics.bitparallel` is entry-for-entry
equality with the scalar Wagner–Fischer DP on arbitrary unicode input —
across both packed and blocked kernels, both drivers (per-text and
text-lock-step), both matrix orientations, the bounded variant's
certified-lower-bound semantics, and every fallback edge (huge
alphabets, packed-counter capacity overflow, empty strings and
collections).  The oracle here is an independent pure-Python DP, not the
library's scalar path (which itself runs Myers now).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dictionaries import synthetic_dictionary
from repro.datasets.sequences import genome_prefix_sequences
from repro.metrics import LevenshteinDistance, levenshtein
from repro.metrics import bitparallel, encoding
from repro.metrics.encoding import (
    _myers_cost_mode,
    _myers_plan,
    clear_encoding_cache,
    encode_strings,
    levenshtein_matrix,
)
from repro.metrics.strings import _levenshtein_python

unicode_text = st.text(
    alphabet=st.sampled_from("ab\x00é́\U0001F600� z"), max_size=10
)
collections = st.lists(unicode_text, min_size=0, max_size=12)


def dp_matrix(xs, ys):
    """Independent scalar oracle: the classic two-row DP, no bit tricks."""
    out = np.empty((len(xs), len(ys)), dtype=np.int64)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = _dp(x, y)
    return out


def _dp(a, b):
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def myers_routes(xs, ys, max_distance=None):
    """The ``len(xs) x len(ys)`` matrix from every Myers route.

    The per-text driver in both orientations, plus the lock-step driver
    in each orientation whose pattern side it accepts (unbounded calls
    only); an ineligible pattern side contributes no route.
    """
    ex, ey = encode_strings(xs), encode_strings(ys)
    routes = []
    for patterns, texts, flip in ((ex, ey, False), (ey, ex, True)):
        if not bitparallel.myers_eligible(patterns):
            continue
        out = np.empty((len(patterns), len(texts)), dtype=np.int64)
        bitparallel.myers_matrix_into(patterns, texts, out, max_distance)
        routes.append(out.T if flip else out)
        if max_distance is None and bitparallel.myers_lockstep_eligible(
            patterns
        ):
            lock = np.empty_like(out)
            bitparallel.myers_matrix_lockstep_into(patterns, texts, lock)
            routes.append(lock.T if flip else lock)
    assert routes, "neither side is Myers-eligible"
    return routes


def forced_myers(xs, ys):
    """The Myers matrix, asserted identical across every route."""
    first, *rest = myers_routes(xs, ys)
    for other in rest:
        assert np.array_equal(other, first)
    return first


def assert_certified(banded, true, radius):
    """Exact within ``radius``; beyond it, lower bounds that exceed it."""
    inside = true <= radius
    assert np.array_equal(banded <= radius, inside)
    assert np.array_equal(banded[inside], true[inside])
    assert (banded <= true).all()


class TestMyersEqualsScalar:
    @given(xs=collections, ys=collections)
    @settings(max_examples=100, deadline=None)
    def test_random_unicode(self, xs, ys):
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))

    @given(xs=st.lists(st.text(alphabet="ab", max_size=5), max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_heavy_ties_pairwise(self, xs):
        assert np.array_equal(forced_myers(xs, xs), dp_matrix(xs, xs))

    def test_empty_equal_and_all_equal_strings(self):
        xs = ["", "", "same", "same", "other"]
        assert np.array_equal(forced_myers(xs, xs), dp_matrix(xs, xs))
        same = ["aaaa"] * 6
        assert np.array_equal(forced_myers(same, same), np.zeros((6, 6)))

    def test_empty_collections(self):
        assert forced_myers([], ["a", "b"]).shape == (0, 2)
        assert forced_myers(["a", "b"], []).shape == (2, 0)

    @pytest.mark.parametrize("length", [62, 63, 64, 65, 127, 128, 129])
    def test_word_boundary_lengths(self, length):
        # Blocked-kernel block boundaries: patterns straddling each edge.
        rng = np.random.default_rng(length)
        letters = "acgt"
        xs = [
            "".join(letters[i] for i in rng.integers(0, 4, size=length + d))
            for d in (-1, 0, 1)
        ]
        ys = [
            "".join(letters[i] for i in rng.integers(0, 4, size=n))
            for n in (0, 1, 30, length, length + 40)
        ]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))
        assert np.array_equal(forced_myers(ys, xs), dp_matrix(ys, xs))

    def test_mixed_packed_and_blocked_chunks(self):
        # Shorts share words (packed), longs take blocks — one collection.
        xs = ["ab", "ba", "x" * 20, "y" * 70, ("xy" * 40)]
        ys = ["", "b", "x" * 19 + "z", "y" * 71]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))

    def test_guard_bit_regression(self):
        # Adder carries crossing packed-slot boundaries: these exact pairs
        # once corrupted the neighbouring slot with one guard bit.
        xs = ["bbaaba", "bbbbaab", "aabbbbb"]
        ys = ["baabbbaa", "", "b" * 30]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))


class TestFallbacks:
    def test_huge_alphabet_reports_ineligible_and_falls_back(self):
        n = bitparallel.DENSE_ALPHABET_MAX + 8
        xs = ["".join(chr(0x4E00 + i) for i in range(j, j + 4)) for j in range(0, n, 4)]
        encoded = encode_strings(xs)
        assert not bitparallel.myers_eligible(encoded)
        ys = ["".join(chr(0x4E00 + i) for i in (1, 3, 5)), "ab", ""]
        ey = encode_strings(ys)
        # One eligible side is enough: the plan makes ys the patterns in
        # either argument order, bounded or not, and stays exact.
        assert _myers_plan(encoded, ey, bounded=False)[0] == "x"
        assert _myers_plan(ey, encoded, bounded=True)[0] == "y"
        true = dp_matrix(xs, ys)
        assert np.array_equal(levenshtein_matrix(encoded, ey), true)
        assert np.array_equal(
            levenshtein_matrix(ey, encoded, max_distance=9), true.T
        )

    def test_neither_side_fits_falls_back_to_exact_wagner_fischer(self):
        # > 512 symbols on both sides: no Myers plan, and the Wagner–
        # Fischer fallback answers exactly, max_distance or not.
        n = bitparallel.DENSE_ALPHABET_MAX + 8
        xs = ["".join(chr(0x4E00 + i) for i in range(j, j + 4)) for j in range(0, n, 4)]
        ys = ["".join(chr(0xA000 + i) for i in range(j, j + 4)) for j in range(0, n, 4)]
        xs += ["", ys[0], ys[1][:2] + xs[3]]
        ex, ey = encode_strings(xs), encode_strings(ys)
        assert _myers_plan(ex, ey, bounded=False) is None
        assert _myers_plan(ex, ey, bounded=True) is None
        true = dp_matrix(xs, ys)
        assert np.array_equal(levenshtein_matrix(ex, ey), true)
        assert np.array_equal(levenshtein_matrix(ey, ex), true.T)
        for radius in (0, 2, 5):
            assert np.array_equal(
                levenshtein_matrix(ex, ey, max_distance=radius), true
            )

    def test_packed_capacity_overflow_falls_back_to_blocked(self):
        # W = 8 slots cap the per-text driver's packed score counter at
        # 255; a 300-char text must reroute the band through a throwaway
        # blocked chunk.  (The planner itself sends this shape to the
        # lock-step driver, which keeps no counter.)
        xs = ["ab", "ba", "abab"]
        ys = ["a" * 300, "ab" * 150, ""]
        assert np.array_equal(forced_myers(xs, ys), dp_matrix(xs, ys))
        out = np.empty((3, 3), dtype=np.int64)
        bitparallel.myers_matrix_into(
            encode_strings(xs), encode_strings(ys), out
        )
        assert np.array_equal(out, dp_matrix(xs, ys))


class TestDispatch:
    """Myers answers whenever either side is eligible; the Wagner–Fischer
    fallback is patched to raise, so reaching it fails the test."""

    @pytest.fixture(autouse=True)
    def _no_wagner_fischer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Wagner–Fischer ran on a Myers-eligible call")

        monkeypatch.setattr(encoding, "_wf_matrix_into", refuse)

    @staticmethod
    def _assert_answers(queries, targets, radius):
        # Cold layouts on both sides: the shape the cost model once
        # handed to Wagner–Fischer.
        clear_encoding_cache()
        got = levenshtein_matrix(
            encode_strings(queries), encode_strings(targets),
            max_distance=radius,
        )
        true = dp_matrix(queries, targets)
        assert_certified(got, true, np.inf if radius is None else radius)

    @pytest.mark.parametrize("n_words", [200, 2000])
    @pytest.mark.parametrize("radius", [None, 1])
    def test_single_dictionary_query(self, n_words, radius):
        words = synthetic_dictionary(
            "English", n_words, np.random.default_rng(35)
        )
        for query in ("helo", words[3] + "x", ""):
            self._assert_answers([query], words, radius)

    @pytest.mark.parametrize("radius", [None, 10])
    def test_gene_queries(self, radius):
        genes = genome_prefix_sequences(200, rng=np.random.default_rng(35))
        for queries in (["acgt"], ["acgtacgtac"], ["acgt", genes[7][:40]]):
            self._assert_answers(queries, genes, radius)


class TestBounded:
    @given(
        xs=st.lists(unicode_text, min_size=1, max_size=6),
        ys=st.lists(unicode_text, min_size=1, max_size=12),
        radius=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_certified_lower_bounds(self, xs, ys, radius):
        true = dp_matrix(xs, ys)
        for banded in myers_routes(xs, ys, max_distance=radius):
            assert_certified(banded, true, radius)

    def test_long_strings_hit_pruning_passes(self):
        xs = ["a" * 90, "a" * 45 + "b" * 45, "c" * 20]
        ys = ["a" * 90, "b" * 90, "a" * 89 + "c", "c" * 60]
        true = dp_matrix(xs, ys)
        for radius in (0, 1, 5, 60):
            for banded in myers_routes(xs, ys, max_distance=radius):
                assert_certified(banded, true, radius)

    def test_metric_banded_path_on_myers(self):
        metric = LevenshteinDistance()
        xs = ["abc", "a" * 25]
        ys = ["abd", "zzz", "a" * 24 + "b", ""]
        true = dp_matrix(xs, ys)
        banded = metric.batch_distances_within(xs, ys, 2.0)
        inside = true <= 2
        assert np.array_equal(banded <= 2, inside)
        assert np.array_equal(banded[inside], true[inside])


class TestLockstepDriver:
    def _pair(self):
        rng = np.random.default_rng(9)
        letters = "abcz"
        sites = ["abz", "zzzz", "ba", "cabcab"]
        points = [
            "".join(letters[i] for i in rng.integers(0, 4, size=n))
            for n in rng.integers(0, 12, size=200)
        ] + ["", "abz"]
        return sites, points

    def test_matches_per_text_driver_and_oracle(self):
        sites, points = self._pair()
        ps = encode_strings(sites)
        ts = encode_strings(points)
        assert bitparallel.myers_lockstep_eligible(ps)
        lock = np.empty((len(sites), len(points)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(ps, ts, lock)
        per_text = np.empty_like(lock)
        bitparallel.myers_matrix_into(ps, ts, per_text)
        assert np.array_equal(lock, per_text)
        assert np.array_equal(lock, dp_matrix(sites, points))

    def test_transposed_output_view(self):
        # levenshtein_matrix hands the driver out.T when sites are ys.
        sites, points = self._pair()
        out = np.empty((len(points), len(sites)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(points), out.T
        )
        assert np.array_equal(out, dp_matrix(points, sites))

    def test_ineligible_shapes(self):
        # Blocked patterns (length > PACKED_MAX_LEN) have no lock-step.
        long_sites = encode_strings(["x" * 70])
        texts = encode_strings(["xy", "yx"])
        assert not bitparallel.myers_lockstep_eligible(long_sites)
        out = np.empty((1, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            bitparallel.myers_matrix_lockstep_into(
                encode_strings(
                    [chr(0x4E00 + i) for i in range(bitparallel.DENSE_ALPHABET_MAX + 8)]
                ),
                texts,
                out,
            )

    def test_empty_texts_and_empty_patterns(self):
        sites = ["", "ab"]
        points = ["", "", "b"]
        out = np.empty((2, 3), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(points), out
        )
        assert np.array_equal(out, dp_matrix(sites, points))
        for sites, points in ((["", ""], ["a", ""]), (["ab"], ["", ""])):
            out = np.empty((len(sites), len(points)), dtype=np.int64)
            bitparallel.myers_matrix_lockstep_into(
                encode_strings(sites), encode_strings(points), out
            )
            assert np.array_equal(out, dp_matrix(sites, points))

    def test_text_longer_than_any_packed_counter(self):
        # Distances come from popcounts of the last column, so a text may
        # outgrow the W-bit score slots the per-text driver needs.
        sites = ["ab", "ba", "abab", "c"]
        points = ["a" * 300, "ab" * 150, "", "abab"]
        ps, ts = encode_strings(sites), encode_strings(points)
        assert bitparallel.myers_lockstep_eligible(ps)
        assert _myers_cost_mode(ts, ps, False)[1] == "lockstep"
        out = np.empty((4, 4), dtype=np.uint16)
        bitparallel.myers_matrix_lockstep_into(ps, ts, out)
        assert np.array_equal(out, dp_matrix(sites, points))
        assert np.array_equal(
            levenshtein_matrix(ts, ps), dp_matrix(points, sites)
        )

    @pytest.mark.parametrize("alphabet_size", [3, 200, 300, 700])
    def test_random_alphabets_and_foreign_text_symbols(self, alphabet_size):
        # Sites draw from the first 40 symbols at most (a dense pattern
        # alphabet); texts from all of them, so most text symbols are
        # foreign to the patterns, and past 256 distinct text symbols the
        # cached symbol matrix needs a wider dtype.
        rng = np.random.default_rng(alphabet_size)
        symbols = [chr(0x3B1 + i) for i in range(alphabet_size)]
        site_symbols = symbols[: min(alphabet_size, 40)]
        sites = [
            "".join(rng.choice(site_symbols, size=n))
            for n in rng.integers(1, 31, size=14)
        ] + ["", symbols[-1] * 30]
        points = [
            "".join(rng.choice(symbols, size=n))
            for n in rng.integers(0, 25, size=150)
        ] + ["", sites[0], sites[0][::-1]]
        ps, ts = encode_strings(sites), encode_strings(points)
        lock = np.empty((len(sites), len(points)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(ps, ts, lock)
        per_text = np.empty_like(lock)
        bitparallel.myers_matrix_into(ps, ts, per_text)
        assert np.array_equal(lock, per_text)
        assert np.array_equal(lock, dp_matrix(sites, points))
        wide = alphabet_size > 256
        assert ts.text_columns.symbols.dtype == (np.uint16 if wide else np.uint8)

    @pytest.mark.parametrize("site_length", range(1, 31))
    def test_every_packed_site_length(self, site_length):
        rng = np.random.default_rng(site_length)
        letters = np.array(list("abc"))
        sites = ["".join(rng.choice(letters, size=site_length)), "b"]
        points = [
            "".join(rng.choice(letters, size=n))
            for n in rng.integers(0, 40, size=40)
        ]
        out = np.empty((2, 40), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(points), out
        )
        assert np.array_equal(out, dp_matrix(sites, points))

    def test_more_texts_than_one_block(self):
        # > 4096 texts: several lock-step blocks, a ragged last one, and
        # the per-row un-permute across all of them, into a transposed
        # view of a narrow matrix.
        rng = np.random.default_rng(4097)
        letters = np.array(list("abcd"))
        n = 2 * bitparallel._LOCKSTEP_BLOCK_TEXTS + 37
        sites = ["abca", "dd", "", "abcdabcd", "c"]
        points = [
            "".join(rng.choice(letters, size=size))
            for size in rng.integers(0, 9, size=n)
        ]
        out = np.empty((n, len(sites)), dtype=np.uint8)
        ps, ts = encode_strings(sites), encode_strings(points)
        bitparallel.myers_matrix_lockstep_into(ps, ts, out.T)
        per_text = np.empty((len(sites), n), dtype=np.int64)
        bitparallel.myers_matrix_into(ps, ts, per_text)
        assert np.array_equal(out.T, per_text)
        sample = rng.choice(n, size=400, replace=False)
        assert np.array_equal(
            out[sample], dp_matrix([points[i] for i in sample], sites)
        )

    def test_code_points_beyond_the_lookup_table(self):
        # Plane-16 private-use code points sit above the 2**20 LUT limit:
        # the text alphabet comes from np.unique + searchsorted instead.
        high = [chr(0x10FFF0 + i) for i in range(6)]
        sites = ["ab" + high[0], high[1] * 3, "b"]
        points = [high[0] + "a", "ab", high[2] + high[1] * 2, ""]
        out = np.empty((3, 4), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(points), out
        )
        assert np.array_equal(out, dp_matrix(sites, points))


def _lanes(sites):
    """The lock-step lane packing of a site list."""
    return bitparallel.myers_patterns(encode_strings(sites)).lockstep_lanes()


def _reference_words(lengths):
    """First-fit-decreasing word count, one site at a time: a word's first
    lane takes ``len + 1`` bits, every later one ``len + 2``."""
    free = []
    for m in sorted(lengths, reverse=True):
        for w, room in enumerate(free):
            if room >= m + 2:
                free[w] -= m + 2
                break
        else:
            free.append(63 - m)
    return len(free)


def _check_lanes(lanes, lengths):
    """Disjoint lanes of the right widths, each with the guard bits its
    slot needs below it, counted as the reference packing counts."""
    masks = lanes.grid[lanes.cell // lanes.n_slots, lanes.cell % lanes.n_slots]
    assert sorted(int(m).bit_count() for m in masks) == sorted(lengths)
    assert lanes.n_words == _reference_words(lengths)
    for w in range(lanes.n_words):
        row = [int(m) for m in lanes.grid[w] if m]
        union = 0
        for m in row:
            assert not union & m
            union |= m
        assert int(lanes.valid[w]) == union
        starts = sorted((m & -m).bit_length() - 1 for m in row)
        assert starts[0] >= 1
        for m in row:
            low = (m & -m).bit_length() - 1
            below = (1 << low) - 1
            guard = below ^ (below >> (1 if low == starts[0] else 2))
            assert not guard & int(lanes.valid[w])


#: Every stem with every tail, the whole list repeated: many texts per
#: distinct prefix, so the lock-step driver shares prefix columns.
prefix_heavy = st.builds(
    lambda stems, tails, copies: [s + t for s in stems for t in tails] * copies,
    st.lists(st.text(alphabet="ab", max_size=4), min_size=1, max_size=4),
    st.lists(st.text(alphabet="abz", max_size=6), min_size=1, max_size=8),
    st.integers(1, 8),
)


class TestSharedPrefixLockstep:
    """The lock-step driver over texts that share prefixes: each shared
    node's column is stepped once and every text starts from its node."""

    @given(
        texts=prefix_heavy,
        sites=st.lists(
            st.text(alphabet="abq", max_size=30), min_size=1, max_size=6
        ),
        block=st.sampled_from([1, 3, 16, 8192]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_scalar_dp(self, texts, sites, block):
        # Texts from a few stems over "ab" plus tails with a symbol the
        # sites lack ("z"); sites carry one the texts lack ("q"), may be
        # empty, and reach the 30-character lane limit.  Small blocks
        # split the levels and the texts into many blocks.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitparallel, "_LOCKSTEP_BLOCK_TEXTS", block)
            out = np.empty((len(sites), len(texts)), dtype=np.int64)
            bitparallel.myers_matrix_lockstep_into(
                encode_strings(sites), encode_strings(texts), out
            )
        assert np.array_equal(out, dp_matrix(sites, texts))

    def test_texts_around_the_shared_depth(self):
        # All 64 words of length 6 over "ab" share depths 1..3 (8 nodes
        # at depth 3 <= 71 / 8); the extra texts end before, at and after
        # the shared depth, and "c" is foreign to the sites.
        words = [
            "".join("ab"[(i >> b) & 1] for b in range(6)) for i in range(64)
        ]
        texts = words + ["", "a", "ab", "aba", "abab", "b" * 9, "ababc"]
        encoded = encode_strings(texts)
        layout = bitparallel.text_columns(encoded)
        assert layout.depth == 3
        assert np.diff(layout.levels).tolist() == [1, 2, 4, 8]
        sites = ["", "abba", "b" * 30, "a", "zzab"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitparallel, "_LOCKSTEP_BLOCK_TEXTS", 5)
            out = np.empty((len(sites), len(texts)), dtype=np.uint8)
            bitparallel.myers_matrix_lockstep_into(
                encode_strings(sites), encoded, out
            )
        assert np.array_equal(out, dp_matrix(sites, texts))

    def test_sharing_stops_at_one_eighth_of_the_texts(self):
        # 64 texts: depth 3 has 8 nodes (kept), depth 4 has 16 (> 8).
        words = [
            "".join("ab"[(i >> b) & 1] for b in range(6)) for i in range(64)
        ]
        layout = bitparallel.text_columns(encode_strings(words))
        assert layout.depth == 3
        # One text fewer: depth 3's 8 nodes now exceed 63 / 8.
        layout = bitparallel.text_columns(encode_strings(words[:63]))
        assert layout.depth == 2
        # Every text at depth <= 3 sits on the node of its own prefix.
        for t, word in enumerate(words[:63]):
            node = int(layout.node[layout.rank[t]])
            path = []
            while node:
                path.append(chr(int(layout.alphabet[layout.last[node]])))
                node = int(layout.parent[node])
            assert "".join(reversed(path)) == word[: layout.depth]

    def test_sharing_stops_at_the_bucket_cap(self):
        # 1100 symbols: a depth-2 table needs 1101**2 > 2**20 buckets, so
        # sharing stops at depth 1 although depth 2 has a single node.
        texts = ["ab" + chr(0x4E00 + i) for i in range(1100)]
        encoded = encode_strings(texts)
        layout = bitparallel.text_columns(encoded)
        assert layout.alphabet.shape[0] ** 2 > bitparallel._PREFIX_BUCKETS
        assert layout.depth == 1 and layout.levels == [0, 1, 2]
        sites = ["ab", "b" + chr(0x4E00), ""]
        out = np.empty((3, len(texts)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encoded, out
        )
        per_text = np.empty_like(out)
        bitparallel.myers_matrix_into(encode_strings(sites), encoded, per_text)
        assert np.array_equal(out, per_text)
        assert np.array_equal(out[:, :50], dp_matrix(sites, texts[:50]))

    def test_a_few_strings_share_nothing(self):
        layout = bitparallel.text_columns(encode_strings(["ab", "abc", "abd"]))
        assert layout.depth == 0 and layout.levels == [0, 1]
        assert layout.node.tolist() == [0, 0, 0]


class TestLanePacking:
    def test_a_30_character_site_in_a_first_slot(self):
        site = "abcdefghijklmnopqrstuvwxyzabcd"
        lanes = _lanes([site])
        assert lanes.n_words == 1
        assert int(lanes.valid[0]) == ((1 << 30) - 1) << 1  # one guard bit
        # Two fit one word: 31 + 32 bits.
        lanes = _lanes([site, site[::-1]])
        assert lanes.n_words == 1
        _check_lanes(lanes, [30, 30])
        texts = ["", site, site[:29] + "z", "x" * 40, site[::-1]]
        out = np.empty((2, len(texts)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings([site, site[::-1]]), encode_strings(texts), out
        )
        assert np.array_equal(out, dp_matrix([site, site[::-1]], texts))

    @pytest.mark.parametrize(
        "lengths", [[3] * 13, [21, 19, 19], [1] * 21, [1] * 22]
    )
    def test_widths_that_fill_a_word(self, lengths):
        # 4 + 12 * 5 = 22 + 21 + 21 = 64 bits: the top lane ends at bit
        # 63.  Twenty-one 1-character sites fill 2 + 20 * 3 = 62 bits, the
        # most lanes a word holds; a 22nd opens a second word.
        rng = np.random.default_rng(sum(lengths))
        sites = ["".join(rng.choice(list("abc"), size=m)) for m in lengths]
        lanes = _lanes(sites)
        _check_lanes(lanes, lengths)
        if sum(lengths) + 2 * len(lengths) - 1 == 64:
            assert lanes.n_words == 1 and int(lanes.valid[0]) >> 63 == 1
        texts = [
            "".join(rng.choice(list("abcd"), size=m))
            for m in rng.integers(0, 30, size=60)
        ]
        out = np.empty((len(sites), len(texts)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(texts), out
        )
        assert np.array_equal(out, dp_matrix(sites, texts))

    @pytest.mark.parametrize("n_sites", range(1, 41))
    def test_one_to_forty_sites(self, n_sites):
        rng = np.random.default_rng(n_sites)
        letters = list("abcde")
        sites = [
            "".join(rng.choice(letters, size=m))
            for m in rng.integers(1, 31, size=n_sites)
        ]
        lanes = _lanes(sites)
        _check_lanes(lanes, [len(s) for s in sites])
        texts = [
            "".join(rng.choice(letters, size=m))
            for m in rng.integers(0, 35, size=25)
        ]
        out = np.empty((n_sites, len(texts)), dtype=np.int64)
        bitparallel.myers_matrix_lockstep_into(
            encode_strings(sites), encode_strings(texts), out
        )
        assert np.array_equal(out, dp_matrix(sites, texts))

    def test_built_once_per_pattern_layout(self):
        layout = bitparallel.myers_patterns(encode_strings(["abc", "de"]))
        assert layout.lockstep_lanes() is layout.lockstep_lanes()


class TestTextColumns:
    def test_layout_shape_and_content(self):
        points = ["abc", "", "ca", "b"]
        layout = bitparallel.text_columns(encode_strings(points))
        # Stable by length: text i sits at rank[i] of the length order.
        assert layout.rank.tolist() == [3, 0, 2, 1]
        assert layout.lengths.tolist() == [0, 1, 2, 3]
        # NUL pads the code matrix, so it joins the alphabet unread.
        assert layout.alphabet.tolist() == [0, ord("a"), ord("b"), ord("c")]
        assert layout.symbols.dtype == np.uint8
        assert layout.symbols.shape == (3, 4)
        assert layout.symbols.flags.c_contiguous
        # Row j is character j of every text in length order; padding
        # cells are never read.
        assert layout.symbols[0, 1:].tolist() == [2, 3, 1]
        assert layout.symbols[1, 2:].tolist() == [1, 2]
        assert layout.symbols[2, 3:].tolist() == [3]

    def test_built_once_per_encoding_and_dropped_with_it(self):
        import gc
        import weakref

        clear_encoding_cache()
        rng = np.random.default_rng(11)
        letters = np.array(list("abdeglmpt"))
        points = [
            "".join(rng.choice(letters, size=n))
            for n in rng.integers(1, 9, size=2000)
        ]
        metric = LevenshteinDistance()
        first = metric.to_sites(points, ["alpa", "beat"])
        encoded = encode_strings(points)
        layout = encoded.text_columns
        assert layout is not None
        # 2000 words over 9 letters share their prefixes to depth 2
        # (81 nodes; depth 3's 729 exceed 2000 / 8).
        assert layout.depth == 2
        parent = layout.parent
        # New sites, fresh list object: the encoding cache hits and the
        # text layout rides along — same object, no rebuild.
        second = metric.to_sites(list(points), ["gama", "delt", "x"])
        assert encode_strings(points).text_columns is layout
        assert layout.parent is parent
        assert np.array_equal(first, dp_matrix(points, ["alpa", "beat"]))
        assert np.array_equal(second, dp_matrix(points, ["gama", "delt", "x"]))
        alive = weakref.ref(layout)
        levels_alive = weakref.ref(parent)
        del layout, encoded, parent
        clear_encoding_cache()
        gc.collect()
        assert alive() is None and levels_alive() is None

    def test_compact_hook_equals_to_sites(self):
        rng = np.random.default_rng(5)
        letters = np.array(list("abcde"))
        points = [
            "".join(rng.choice(letters, size=n))
            for n in rng.integers(0, 14, size=500)
        ]
        sites = points[:7]
        metric = LevenshteinDistance()
        full = metric.to_sites(points, sites)
        # The lock-step kernel's matrix is one block, yielded whole.
        [(start, stop, compact)] = metric.to_sites_compact(points, sites)
        assert (start, stop) == (0, 500)
        assert full.dtype == np.float64 and full.flags.c_contiguous
        assert compact.dtype == np.uint8 and compact.shape == (500, 7)
        # One contiguous byte row per site.
        assert compact.T.flags.c_contiguous
        assert np.array_equal(compact, full)
        assert np.array_equal(full, dp_matrix(points, sites))
        # A single query stays on the per-text driver: int64, same values.
        [(_, _, single)] = metric.to_sites_compact(points[:1], sites)
        assert np.array_equal(single, full[:1])
        # Non-string input has no encoded kernel: the block is to_sites.
        [(_, _, mixed)] = metric.to_sites_compact([("a", "b")], [("a",)])
        assert mixed.dtype == np.float64 and mixed[0, 0] == 1.0


class TestLayoutCache:
    def test_layout_built_once_per_collection(self):
        clear_encoding_cache()
        words = ["alpha", "beta", "gamma", "delta"]
        queries = ["alpa", "beat"]
        before = bitparallel.build_count()
        forced_myers(queries, words)
        after_first = bitparallel.build_count()
        assert after_first > before
        # Same collections, fresh list objects: encoding cache hits, and
        # the Myers layout rides along — no rebuild.
        forced_myers(list(queries), list(words))
        forced_myers(words, queries)  # transposed reuses both layouts
        assert bitparallel.build_count() == after_first

    def test_layout_cached_on_encoded_instance(self):
        encoded = encode_strings(["abc", "abd"])
        layout = bitparallel.myers_patterns(encoded)
        assert bitparallel.myers_patterns(encoded) is layout


class TestScalarMyersFastPath:
    @given(unicode_text, unicode_text)
    @settings(max_examples=150, deadline=None)
    def test_equals_python_dp(self, a, b):
        assert levenshtein(a, b) == _dp(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 80])
    def test_word_boundary(self, length):
        rng = np.random.default_rng(length)
        a = "".join("acgt"[i] for i in rng.integers(0, 4, size=length))
        b = "".join("acgt"[i] for i in rng.integers(0, 4, size=length + 1))
        assert levenshtein(a, b) == _dp(a, b)

    def test_dispatch_uses_myers_inside_word_cap(self):
        # After affix stripping both cores are <= 64 (one word); past a
        # word the same Myers recurrence runs on wider Python ints.
        # Both exact.
        a, b = "x" * 10 + "a" * 60, "x" * 10 + "b" * 60
        assert levenshtein(a, b) == 60
        a, b = "a" * 94, "b" * 94
        assert levenshtein(a, b) == 94

    @given(unicode_text, unicode_text)
    @settings(max_examples=100, deadline=None)
    def test_python_dp_oracle_agrees_with_itself(self, a, b):
        # Keep the retired Python DP honest: it is this file's oracle.
        assert _levenshtein_python(a, b) == _dp(a, b)
