"""Tests for distance permutations, codecs, and dissimilarities."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    distinct_permutations,
    inverse_permutation,
    is_permutation,
    kendall_tau,
)

from repro.core.permutation import (
    compact_footrule_dtype,
    compact_position_dtype,
    count_distinct_permutations,
    decode_permutations,
    decode_positions,
    distance_permutation,
    distance_permutations,
    encode_permutations,
    footrule_matrix_batch,
    permutation_positions,
    permutations_from_distances,
    spearman_footrule,
)
from repro.metrics import EuclideanDistance, LevenshteinDistance

permutation_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.permutations(list(range(k)))
)


class TestDistancePermutation:
    def test_basic_ordering(self):
        distances = np.array([[3.0, 1.0, 2.0]])
        np.testing.assert_array_equal(
            permutations_from_distances(distances), [[1, 2, 0]]
        )

    def test_tie_break_lower_index_first(self):
        """The paper's rule: equal distances order by site index."""
        distances = np.array([[2.0, 1.0, 2.0, 1.0]])
        np.testing.assert_array_equal(
            permutations_from_distances(distances), [[1, 3, 0, 2]]
        )

    def test_all_ties(self):
        distances = np.array([[5.0, 5.0, 5.0]])
        np.testing.assert_array_equal(
            permutations_from_distances(distances), [[0, 1, 2]]
        )

    def test_1d_input_promoted(self):
        out = permutations_from_distances(np.array([2.0, 1.0]))
        assert out.shape == (1, 2)

    def test_single_point_api(self, rng):
        sites = rng.random((4, 3))
        point = rng.random(3)
        perm = distance_permutation(point, sites, EuclideanDistance())
        assert is_permutation(perm)
        distances = [EuclideanDistance().distance(point, s) for s in sites]
        assert list(perm) == sorted(range(4), key=lambda i: (distances[i], i))

    def test_batch_matches_single(self, rng):
        sites = rng.random((5, 2))
        points = rng.random((20, 2))
        metric = EuclideanDistance()
        batch = distance_permutations(points, sites, metric)
        for i, point in enumerate(points):
            assert tuple(batch[i]) == distance_permutation(point, sites, metric)

    def test_string_metric_ties(self):
        """Edit distance produces many ties; the stable rule must hold."""
        sites = ["aa", "bb", "ab"]
        perm = distance_permutation("ab", sites, LevenshteinDistance())
        # d = (1, 1, 0): site 2 first, then ties 0, 1 by index.
        assert perm == (2, 0, 1)

    def test_every_row_is_permutation(self, rng):
        sites = rng.random((6, 3))
        points = rng.random((50, 3))
        perms = distance_permutations(points, sites, EuclideanDistance())
        for row in perms:
            assert is_permutation(list(row))


class TestCounting:
    def test_count_distinct(self):
        perms = np.array([[0, 1], [1, 0], [0, 1]])
        assert count_distinct_permutations(perms) == 2

    def test_distinct_set(self):
        perms = np.array([[0, 1], [1, 0], [0, 1]])
        assert distinct_permutations(perms) == {(0, 1), (1, 0)}

    def test_empty(self):
        assert count_distinct_permutations(np.empty((0, 3), dtype=int)) == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            count_distinct_permutations(np.array([0, 1, 2]))

    def test_count_never_exceeds_factorial(self, rng, lp_metric):
        k = 4
        sites = rng.random((k, 2))
        points = rng.random((500, 2))
        perms = distance_permutations(points, sites, lp_metric)
        assert count_distinct_permutations(perms) <= math.factorial(k)


def _rank(perm) -> int:
    """One permutation's Lehmer rank through the batch codec."""
    return int(encode_permutations(np.array([perm]))[0])


def _unrank(rank: int, k: int) -> tuple:
    codes = np.array([rank], dtype=np.uint64)
    return tuple(int(v) for v in decode_permutations(codes, k)[0])


class TestCodecs:
    def test_rank_of_identity_is_zero(self):
        assert _rank((0, 1, 2, 3)) == 0

    def test_rank_of_reverse_is_max(self):
        assert _rank((3, 2, 1, 0)) == math.factorial(4) - 1

    def test_unrank_identity(self):
        assert _unrank(0, 4) == (0, 1, 2, 3)

    def test_rank_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            _rank((0, 3, 1))

    def test_unrank_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _unrank(24, 4)

    def test_all_k4_roundtrip(self):
        seen = set()
        for rank in range(24):
            perm = _unrank(rank, 4)
            assert _rank(perm) == rank
            seen.add(perm)
        assert len(seen) == 24

    @given(permutation_strategy)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, perm):
        k = len(perm)
        rank = _rank(perm)
        assert 0 <= rank < math.factorial(k)
        assert _unrank(rank, k) == tuple(perm)

    def test_lexicographic_order(self):
        ranks = [_rank(p) for p in itertools.permutations(range(4))]
        assert ranks == sorted(ranks)


class TestInverse:
    @given(permutation_strategy)
    @settings(max_examples=100, deadline=None)
    def test_inverse_property(self, perm):
        inv = inverse_permutation(perm)
        for rank, site in enumerate(perm):
            assert inv[site] == rank

    def test_involution(self):
        perm = (2, 0, 3, 1)
        assert inverse_permutation(inverse_permutation(perm)) == perm


class TestDissimilarities:
    def test_footrule_zero_iff_equal(self):
        assert spearman_footrule((0, 1, 2), (0, 1, 2)) == 0
        assert spearman_footrule((0, 1, 2), (0, 2, 1)) == 2

    def test_footrule_maximum_for_reverse(self):
        k = 6
        forward = tuple(range(k))
        backward = tuple(reversed(forward))
        assert spearman_footrule(forward, backward) == k * k // 2

    @given(permutation_strategy, st.randoms())
    @settings(max_examples=75, deadline=None)
    def test_footrule_symmetry(self, perm, rand):
        other = list(perm)
        rand.shuffle(other)
        assert spearman_footrule(perm, other) == spearman_footrule(other, perm)

    def test_footrule_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_footrule((0, 1), (0, 1, 2))

    def test_kendall_tau_counts_discordant_pairs(self):
        assert kendall_tau((0, 1, 2), (0, 1, 2)) == 0
        assert kendall_tau((0, 1, 2), (2, 1, 0)) == 3
        assert kendall_tau((0, 1, 2), (0, 2, 1)) == 1

    @given(permutation_strategy, st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_diaconis_graham_inequality(self, perm, rand):
        """Kendall tau and footrule satisfy K <= F <= 2K."""
        other = list(perm)
        rand.shuffle(other)
        tau = kendall_tau(perm, other)
        footrule = spearman_footrule(perm, other)
        assert tau <= footrule <= 2 * tau

    def test_footrule_matrix_matches_scalar(self):
        perms = np.array([np.random.default_rng(i).permutation(5) for i in range(10)])
        query = np.random.default_rng(99).permutation(5)
        row = footrule_matrix_batch(perms, query[None, :])[0]
        for i in range(10):
            assert row[i] == spearman_footrule(tuple(perms[i]), tuple(query))

    def test_footrule_matrix_batch_matches_single(self):
        perms = np.array(
            [np.random.default_rng(i).permutation(6) for i in range(12)]
        )
        query_perms = np.array(
            [np.random.default_rng(100 + i).permutation(6) for i in range(7)]
        )
        batched = footrule_matrix_batch(perms, query_perms)
        assert batched.shape == (7, 12)
        for qi in range(7):
            np.testing.assert_array_equal(
                batched[qi], footrule_matrix_batch(perms, query_perms[qi:qi + 1])[0]
            )
            for i in range(12):
                assert batched[qi, i] == spearman_footrule(
                    tuple(perms[i]), tuple(query_perms[qi])
                )

    def test_footrule_matrix_batch_accepts_cached_positions(self):
        perms = np.array(
            [np.random.default_rng(i).permutation(4) for i in range(8)]
        )
        query_perms = np.array([np.random.default_rng(50).permutation(4)])
        cached = permutation_positions(perms)
        np.testing.assert_array_equal(
            footrule_matrix_batch(perms, query_perms, positions=cached),
            footrule_matrix_batch(perms, query_perms),
        )

    def test_permutation_positions_fills_out_in_any_layout(self):
        perms = np.array(
            [np.random.default_rng(i).permutation(5) for i in range(9)]
        )
        expected = permutation_positions(perms)
        column_major = np.empty((5, 9), dtype=np.uint8).T
        assert permutation_positions(perms, out=column_major) is column_major
        assert column_major.flags.f_contiguous
        np.testing.assert_array_equal(column_major, expected)
        with pytest.raises(ValueError):
            permutation_positions(perms, out=np.empty((9, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            permutation_positions(perms, out=np.empty((9, 5), dtype=np.float64))
        wide = np.stack([np.arange(300), np.arange(300)[::-1]])
        with pytest.raises(ValueError):
            permutation_positions(wide, out=np.empty((2, 300), dtype=np.uint8))

    def test_permutation_positions_inverts_rows(self):
        perms = np.array([[2, 0, 1], [0, 1, 2]])
        positions = permutation_positions(perms)
        np.testing.assert_array_equal(positions, [[1, 2, 0], [0, 1, 2]])
        for row_perm, row_pos in zip(perms, positions):
            assert tuple(row_pos) == inverse_permutation(tuple(row_perm))


#: Site counts on both sides of every width boundary of the kernel:
#: uint8 accumulator through k = 22 (floor(22^2 / 2) = 242), int8
#: differences through 128, uint8 positions through 256, uint16
#: accumulator through 362 (floor(362^2 / 2) = 65522).
_WIDTH_BOUNDARY_SITES = (
    1, 2, 12, 15, 16, 22, 23, 127, 128, 129, 255, 256, 257, 361, 362, 363,
)


def _boundary_case(k: int):
    """Stored and query permutations whose pairs include identity x
    reversal — the footrule maximum ``floor(k^2 / 2)``, the overflow canary
    for both the difference and the accumulator dtype."""
    rng = np.random.default_rng(k)
    identity = np.arange(k)
    perms = np.stack(
        [identity, identity[::-1]] + [rng.permutation(k) for _ in range(5)]
    )
    query_perms = np.stack(
        [identity[::-1], identity] + [rng.permutation(k) for _ in range(2)]
    )
    expected = np.array(
        [[spearman_footrule(p, q) for p in perms] for q in query_perms]
    )
    assert expected[0, 0] == expected[1, 1] == k * k // 2
    return perms, query_perms, expected


class TestFootruleKernelWidths:
    @pytest.mark.parametrize("k", _WIDTH_BOUNDARY_SITES)
    def test_matches_scalar_footrule(self, k):
        perms, query_perms, expected = _boundary_case(k)
        result = footrule_matrix_batch(perms, query_perms)
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("k", _WIDTH_BOUNDARY_SITES)
    def test_positions_layouts_agree(self, k):
        perms, query_perms, expected = _boundary_case(k)
        compact = permutation_positions(perms).astype(
            compact_position_dtype(k)
        )
        padded = np.zeros((2 * len(perms), k + 3), dtype=compact.dtype)
        padded[::2, 1 : k + 1] = compact
        layouts = {
            "c_ordered": np.ascontiguousarray(compact),
            "f_ordered": np.asfortranarray(compact),
            "strided_slice": padded[::2, 1 : k + 1],
            "wide_dtype": permutation_positions(perms),
        }
        workspace: dict = {}
        for name, positions in layouts.items():
            np.testing.assert_array_equal(
                footrule_matrix_batch(
                    None, query_perms, positions=positions,
                    workspace=workspace,
                ),
                expected,
                err_msg=name,
            )

    @pytest.mark.parametrize("k", _WIDTH_BOUNDARY_SITES)
    def test_out_of_every_accepted_dtype(self, k):
        perms, query_perms, expected = _boundary_case(k)
        bound = k * k // 2
        assert np.iinfo(compact_footrule_dtype(k)).max >= bound
        for dtype in (np.uint8, np.int8, np.uint16, np.int16, np.uint32,
                      np.int32, np.uint64, np.int64):
            out = np.empty(expected.shape, dtype=dtype)
            if np.iinfo(dtype).max < bound:
                with pytest.raises(ValueError):
                    footrule_matrix_batch(perms, query_perms, out=out)
                continue
            assert footrule_matrix_batch(perms, query_perms, out=out) is out
            np.testing.assert_array_equal(out, expected, err_msg=str(dtype))

    def test_accumulator_dtype_boundaries(self):
        assert compact_footrule_dtype(22) == np.uint8
        assert compact_footrule_dtype(23) == np.uint16
        assert compact_footrule_dtype(362) == np.uint16
        assert compact_footrule_dtype(363) == np.uint32

    def test_out_writes_through_a_column_block_view(self):
        """The mmap block loop's shape: ``out`` is a column slice of a
        wider matrix, in the accumulator dtype (accumulated in place)."""
        perms, query_perms, expected = _boundary_case(12)
        full = np.full((len(query_perms), len(perms) + 4), 255, np.uint8)
        footrule_matrix_batch(perms, query_perms, out=full[:, 2:-2])
        np.testing.assert_array_equal(full[:, 2:-2], expected)
        assert (full[:, :2] == 255).all() and (full[:, -2:] == 255).all()

    def test_tile_cut_from_a_wider_workspace_is_scanned_in_place(self):
        """The tile loop's input: a column range of a ``(k, width)``
        buffer — each site's ranks contiguous, rows further apart than
        they are long — must not be re-laid-out by a hidden copy."""
        perms, query_perms, expected = _boundary_case(12)
        n, k = perms.shape
        buffer = np.full((k, n + 7), 255, dtype=np.uint8)
        tile = buffer[:, 3 : n + 3]
        tile[...] = permutation_positions(perms).T
        assert not tile.flags.c_contiguous
        workspace: dict = {}
        out = np.empty(expected.shape, dtype=np.uint8)
        footrule_matrix_batch(
            None, query_perms, positions=tile.T, workspace=workspace, out=out
        )
        np.testing.assert_array_equal(out, expected)
        assert "footrule_columns" not in workspace
        # A C-ordered matrix still pays the copy.
        footrule_matrix_batch(
            None, query_perms, positions=np.ascontiguousarray(tile.T),
            workspace=workspace, out=out,
        )
        np.testing.assert_array_equal(out, expected)
        assert "footrule_columns" in workspace

    def test_out_shape_and_kind_are_validated(self):
        perms, query_perms, expected = _boundary_case(6)
        with pytest.raises(ValueError):
            footrule_matrix_batch(
                perms, query_perms, out=np.empty(expected.shape[::-1], np.int64)
            )
        with pytest.raises(ValueError):
            footrule_matrix_batch(
                perms, query_perms, out=np.empty(expected.shape, np.float64)
            )

    def test_site_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            footrule_matrix_batch(np.arange(5)[None, :], np.arange(4)[None, :])

    def test_empty_database_and_empty_query_set(self):
        perms, query_perms, _ = _boundary_case(12)
        no_points = footrule_matrix_batch(perms[:0], query_perms)
        assert no_points.shape == (len(query_perms), 0)
        no_queries = footrule_matrix_batch(perms, query_perms[:0])
        assert no_queries.shape == (0, len(perms))
        assert no_points.dtype == no_queries.dtype == np.int64

    def test_workspace_is_reused_across_call_shapes(self):
        perms, query_perms, expected = _boundary_case(12)
        workspace: dict = {}
        for rows in (4, 1, 3):
            np.testing.assert_array_equal(
                footrule_matrix_batch(
                    perms, query_perms[:rows], workspace=workspace
                ),
                expected[:rows],
            )
        assert "footrule_hi" not in workspace and "footrule_lo" not in workspace


#: Permutations of ``S_k`` by total displacement ``sum |pi(i) - i|`` at
#: displacements 0, 2, 4, ... (OEIS A062869; the weighted-Motzkin-path
#: counts of arXiv 1606.05538).  Constants — an oracle our own code did
#: not compute.
_TOTAL_DISPLACEMENT_COUNTS = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 3),
    4: (1, 3, 7, 9, 4),
    5: (1, 4, 12, 24, 35, 24, 20),
    6: (1, 5, 18, 46, 93, 137, 148, 136, 100, 36),
    7: (1, 6, 25, 76, 187, 366, 591, 744, 884, 832, 716, 360, 252),
}


class TestFootruleDisplacementOracle:
    @pytest.mark.parametrize("k", sorted(_TOTAL_DISPLACEMENT_COUNTS))
    def test_histogram_over_symmetric_group(self, k):
        counts = _TOTAL_DISPLACEMENT_COUNTS[k]
        assert sum(counts) == math.factorial(k)
        everything = np.array(list(itertools.permutations(range(k))))
        footrules = footrule_matrix_batch(everything, np.arange(k)[None, :])[0]
        assert (footrules % 2 == 0).all()
        assert footrules.max() == k * k // 2 == 2 * (len(counts) - 1)
        np.testing.assert_array_equal(
            np.bincount(footrules // 2, minlength=len(counts)), counts
        )

    @pytest.mark.parametrize("k", sorted(_TOTAL_DISPLACEMENT_COUNTS))
    def test_histogram_from_decoded_positions(self, k):
        """Same oracle through the code path: ``arange(k!)`` enumerates
        ``S_k``, ``decode_positions`` hands the kernel its columns."""
        counts = _TOTAL_DISPLACEMENT_COUNTS[k]
        positions = decode_positions(
            np.arange(math.factorial(k), dtype=np.uint64), k
        )
        footrules = footrule_matrix_batch(
            None, np.arange(k)[None, :], positions=positions
        )[0]
        np.testing.assert_array_equal(
            np.bincount(footrules // 2, minlength=len(counts)), counts
        )


def _displacement_counts(k):
    """Permutations of ``S_k`` by total displacement, as a weighted Motzkin
    path over ``m``, the arcs left open (arXiv 1606.05538).

    Step ``i`` matches position ``i`` and value ``i``: both stay open
    (``m -> m + 1``, weight 1), one closes an earlier arc or the two pair
    up (``m -> m``, weight ``2m + 1``), or both close earlier arcs
    (``m -> m - 1``, weight ``m^2``).  Every arc still open after the
    step is one unit longer on each side, adding ``2m`` to the total.
    Returns the counts at displacements 0, 2, 4, ...
    """
    paths = {(0, 0): 1}
    for _ in range(k):
        stepped: dict = {}
        for (m, total), count in paths.items():
            for after, weight in ((m + 1, 1), (m, 2 * m + 1), (m - 1, m * m)):
                if weight:
                    key = (after, total + 2 * after)
                    stepped[key] = stepped.get(key, 0) + count * weight
        paths = stepped
    closed = {total: count for (m, total), count in paths.items() if m == 0}
    return tuple(closed.get(total, 0) for total in range(0, max(closed) + 1, 2))


def _identity_ball(k, radius):
    """Every permutation of ``S_k`` within footrule ``radius`` of the
    identity, depth first.  A value ``v`` left unplaced below the next
    position ``i`` still costs at least ``i - v``, which prunes early."""
    rows = []
    row = [0] * k
    used = [False] * k

    def place(i, spent):
        if i == k:
            rows.append(row.copy())
            return
        for value in range(k):
            if used[value]:
                continue
            cost = spent + abs(value - i)
            used[value] = True
            owed = sum(i + 1 - v for v in range(i + 1) if not used[v])
            if cost + owed <= radius:
                row[i] = value
                place(i + 1, cost)
            used[value] = False

    place(0, 0)
    return np.array(rows, dtype=np.int64)


class TestFootruleBallOracle:
    """The displacement oracle at ``k = 12``, where ``S_k`` is too large to
    enumerate: the footrule ball of radius 8 (2 050 permutations) against
    counts from the Motzkin-path recurrence."""

    K = 12
    RADIUS = 8

    @pytest.mark.parametrize("k", sorted(_TOTAL_DISPLACEMENT_COUNTS))
    def test_recurrence_matches_the_table(self, k):
        assert _displacement_counts(k) == _TOTAL_DISPLACEMENT_COUNTS[k]

    def test_recurrence_at_k12(self):
        counts = _displacement_counts(self.K)
        assert sum(counts) == math.factorial(self.K)
        assert len(counts) == self.K * self.K // 4 + 1
        ball_sizes = [sum(counts[: radius // 2 + 1]) for radius in (4, 8, 12, 16)]
        assert ball_sizes == [87, 2050, 24854, 188505]

    @pytest.fixture(scope="class")
    def ball(self):
        """The ball around a seeded ``sigma``: relabelling sites by
        ``sigma`` preserves the footrule, so ``sigma[row]`` is as far from
        ``sigma`` as ``row`` is from the identity."""
        rows = _identity_ball(self.K, self.RADIUS)
        sigma = np.random.default_rng(12).permutation(self.K)
        return sigma[rows], sigma

    def _assert_histogram(self, footrules):
        counts = _displacement_counts(self.K)[: self.RADIUS // 2 + 1]
        assert (footrules % 2 == 0).all()
        assert footrules.max() == self.RADIUS
        np.testing.assert_array_equal(np.bincount(footrules // 2), counts)

    def test_ball_enumeration(self, ball):
        rows, _ = ball
        assert rows.shape == (2050, self.K)
        assert len(np.unique(encode_permutations(rows))) == len(rows)

    def test_histogram_from_rows(self, ball):
        rows, sigma = ball
        self._assert_histogram(footrule_matrix_batch(rows, sigma[None, :])[0])

    def test_histogram_from_decoded_positions(self, ball):
        rows, sigma = ball
        positions = decode_positions(encode_permutations(rows), self.K)
        footrules = footrule_matrix_batch(
            None, sigma[None, :], positions=positions
        )[0]
        self._assert_histogram(footrules)
