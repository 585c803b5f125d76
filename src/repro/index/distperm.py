"""The paper's ``distperm`` index: distance permutations per element.

Instead of LAESA's ``k`` stored *distances* per element, only the
*permutation* of the ``k`` sites by distance is kept (Chávez, Figueroa,
and Navarro's proximity-preserving order).  Storage drops from
``O(k log n)`` to ``O(k log k)`` bits per element — and, by the paper's
counting results, to ``ceil(log2 N)`` bits with a table of the ``N``
realized permutations (``Θ(d log k)`` in ``d``-dimensional Euclidean
space, Corollary 8).

The in-memory representation is the code engine's: one ``uint64`` Lehmer
rank per element (exact through ``k = 20``) plus an ``(n, k)`` ``uint8``
rank-position matrix held **column-major**, so each site's ranks are one
contiguous row of the byte-wide footrule kernel
(:func:`~repro.core.permutation.footrule_matrix_batch`); build, restore,
:meth:`DistPermIndex.add_points` and the mmap block loop all keep that
layout.  The build and ``add_points`` write both straight from the
metric's row blocks (:func:`~repro.core.permutation.site_ranks`): one
``d[s] <= d[m]`` compare per site pair settles the ranks of both sites
and the insertion digit the Lehmer code is summed from, one block at a
time, so no ``(n, k)`` float64 distance matrix, no argsort and no
permutation matrix exist.  A NaN distance raises ``ValueError`` there,
as it does in the census and in a query's permutation.  Footrules stay
in the narrowest unsigned dtype that holds ``floor(k^2 / 2)`` (``uint8``
through ``k = 22``) from the kernel's ``out=`` buffer through candidate
selection; the ``(n, k)`` row matrix exists only on demand
(:attr:`permutations`).

Search with permutations is *approximate*: candidates are ranked by
Spearman footrule between their stored permutation and the query's, and
a budget caps how many true distances are evaluated — the ``budget``
best-ranked candidates, so ``budget = n`` is the exact answer and smaller
budgets trade recall for distance evaluations (the regime in which the
permutation index competes with LAESA at a fraction of the storage).
``knn_query`` / ``range_query`` remain exact by evaluating every
candidate.  A stored permutation does give an exclusion bound once the
query's site distances are known — if ``x`` ranks site ``a`` before
``b``, then ``d(q, x) >= (d(q, a) - d(q, b)) / 2``, the
generalized-hyperplane bound — but the exact paths do not use it yet;
the interesting trade-off is :meth:`~repro.index.base.Index.knn_approx`'s
recall-vs-budget curve, exercised by the search benchmark.

There is one query path, the batched one, and it is one loop — scan,
select, refine — whatever holds the codes:

*Scan.*  One ``to_sites`` call for the whole query set, then the
footrule rows of one chunk of queries at a time
(:meth:`DistPermIndex._query_chunks`), each filled tile of positions by
tile (:meth:`DistPermIndex._position_tiles`).  A tile is a ``(k,
width)`` block of rank positions, one contiguous row per site.  With
RAM backing the resident matrix is the only tile, and nothing is shared
between queries, so a chunk is three :data:`_TILE_BYTES` of footrule
rows (15 queries against 200k points; see :meth:`DistPermIndex.
_query_chunks`) and no ``(queries x n)`` matrix exists.  With ``backing="mmap"``
the codes stay bit-packed on disk and a tile is several blocks of the
mapped store (:class:`~repro.core.storage.MappedCodeStore`) filled side
by side into a reused workspace — about 1 MiB of positions, so the
byte-wide kernel runs on rows of tens of kilobytes instead of paying
numpy's call overhead on every 8 KiB block.  The same reasoning shapes
the fill: blocks the store's cache of decoded *positions* retained are
copied in, and each run of the others is unpacked and Lehmer-unranked
(:func:`~repro.core.permutation.decode_positions`) in one pass straight
into the tile.  On a 2-vCPU x86-64 box at ``k = 12`` that costs
≈ 23 ns per code.  A store whose cache cannot hold every block decodes
on every scan, so there a chunk shares one decode among as many queries
as 32 MiB of footrules hold (see :func:`~repro.index.batching.
query_chunks`; 167 queries against 200k points at one byte per entry):
the decode cost is per block per chunk, not per query, and nothing at
all for the blocks the cache retained.  A store whose cache holds every
block decodes nothing after its first scan and tiles as RAM does.

A chunk of at most :data:`_BOUNDED_QUERIES` queries decodes fewer codes
instead (:meth:`DistPermIndex._bounded_candidates`): a code's first sites
bound its footrule, and only codes whose bound can reach the budget
boundary are unranked.  A single query against 200k mapped points with
4 of 25 blocks cached takes ≈ 4–5 ms, against ≈ 7–8 ms decoding them all.

*Select.*  :func:`_budget_candidates` finds each row's budget boundary
without counting the row: a strided sample guesses it, one byte-wide
compare into the index's reused mask collects the ids below the guess,
and work past it is the size of the output.  *Refine.*  One
:meth:`~repro.metrics.base.Metric.grouped_distances` call per group of
queries (at most :data:`_REFINE_PAIRS` candidates, spanning scan
chunks, so tiling adds no refine call) scores every query
against its own candidates, then one batched top-``k`` over the whole
group sorts only the entries at or under each row's k-th distance
(:func:`~repro.index.batching.top_k_arrays`).  The database side of
that call is held resident (:meth:`DistPermIndex._resident_points`):
the metric's encoding of the points, made once per index.  ``L_2``
vectors hold their rows with each row's squared norm, so a query costs
one row gather and one ``(1, d) @ (d, m)`` product, the arithmetic of
``batch_distances`` bit for bit with the norms looked up instead of
summed again; other vectors take the hook's default, one
``batch_distances`` call per query.  Edit distance runs every pair of
the chunk in one lock-step Myers pass over the encoding's narrow symbol
rows, so no candidate is re-encoded and no candidate list enters the
encoding cache, where it used to evict the sites' cached layouts.  A
single query is a batch of one row, so both surfaces return the same
bits.

The index stores codes and positions only.  Corollary 8's table of the
``N`` realized permutations is derived on demand: :meth:`census` folds
the stored codes into a :class:`~repro.core.estimate.StreamingCensus`
(sorted distinct codes plus their multiplicities), and
:meth:`unique_permutations`, :meth:`storage` and :meth:`entropy` read
it.  Tables 2 and 3 themselves run
:func:`~repro.parallel.census.sharded_census`, which counts the same
permutations straight from the distance columns without building an
index.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.entropy import EntropyReport, entropy_report
from repro.core.estimate import StreamingCensus
from repro.core.permutation import (
    compact_footrule_dtype,
    compact_position_dtype,
    decode_permutations,
    decode_positions,
    footrule_matrix_batch,
    footrule_prefix_bounds,
    ranked_permutations,
    site_ranks,
    workspace_buffer,
)
from repro.core.storage import MappedCodeStore, StorageReport, storage_report
from repro.index.base import Budget, Index, NeighborArrays
from repro.index.batching import (
    exhaustive_knn_batch,
    exhaustive_range_batch,
    query_chunks,
    top_k_arrays,
)
from repro.index.pivots import select_pivots
from repro.metrics.base import Metric

__all__ = ["DistPermIndex"]


#: Bytes of rank positions one mmap tile spans (:meth:`DistPermIndex.
#: _position_tiles`): ten 8192-element blocks at ``k = 12``, so the
#: footrule kernel's rows are ~80 KB — long enough to amortise numpy's
#: per-call overhead, short enough that a tile, the kernel's scratch row
#: and an output row stay in L2 together.  Three of them are the bytes
#: of footrule rows a scan that decodes nothing scores at once
#: (:meth:`DistPermIndex._query_chunks`).
_TILE_BYTES = 1 << 20

#: Entries :func:`_budget_candidates` samples to guess a row's boundary.
_BOUNDARY_SAMPLE = 4096

#: Largest query chunk an mmap index whose cache cannot hold every block
#: scores by :meth:`DistPermIndex._bounded_candidates` (decodes per query).
#: On 200k x 8-d points, k = 12, 4 of 25 blocks cached, budget 2000
#: (2-vCPU x86-64), chunks of 1 / 2 / 3 / 4 / 8 queries took 0.59 / 0.78 /
#: 1.0 / 1.1 / 1.45 of the time of the decode larger chunks share.
_BOUNDED_QUERIES = 2

#: Candidates one refine call scores at most (:func:`_refine_groups`):
#: 512 KiB of ids plus 512 KiB of distances, and as much again for each
#: group-sized scratch array of the ``L_2`` refine and the batched top-k.
_REFINE_PAIRS = 1 << 16


def _budget_candidates(
    footrules: np.ndarray, budget: int, workspace: Optional[dict] = None
) -> np.ndarray:
    """Candidate set of one query: the ``budget`` best footrule ranks.

    Matches the prefix of a *stable* argsort exactly: every index whose
    footrule is strictly below the boundary (the ``budget``-th smallest
    value), then the lowest-numbered indices at the boundary until the
    budget is filled.

    The row is never counted, histogrammed or sorted.  A guess ``g`` of
    the boundary costs one compare and one ``np.flatnonzero``: the ids
    below ``g``, sparse because the budget sits in the thin lower tail of
    the footrule distribution.  The ties at ``g`` are dense but wanted
    only from the front, so they are read off a prefix of the row sized
    from their density and doubled on a shortfall.  A guess too high
    leaves ``budget`` or more ids below it, and a ``bincount`` of their
    values finds the boundary among them; one too low runs out of ties
    and moves on.  So past the compare, work and memory are the size of
    the output, and the guess sets the cost, never the result.  One- and
    two-byte rows (every ``k <= 362``) guess from a strided sample's
    histogram, then every later value it holds, then the dtype's maximum;
    wider rows take the boundary from ``np.partition``.  The compares
    write the ``"mask"`` buffer of ``workspace`` (fresh without one).
    """
    n = footrules.shape[0]
    if budget <= 0:
        return np.empty(0, dtype=np.int64)
    if budget >= n:
        return np.arange(n)
    mask = workspace_buffer(workspace, "mask", (n,), np.bool_)
    # Compared as the row's own scalar type so every compare stays a
    # byte-wide SIMD pass instead of promoting the row.
    scalar = footrules.dtype.type
    if footrules.dtype.kind == "u" and footrules.dtype.itemsize <= 2:
        sample = footrules[:: max(1, n // _BOUNDARY_SAMPLE)]
        counts, sampled = np.bincount(sample), sample.shape[0]
        first = int(np.searchsorted(np.cumsum(counts), budget * sampled / n))
        later = np.flatnonzero(counts[first + 1 :]) + first + 1
        guesses = [first, *later.tolist(), np.iinfo(footrules.dtype).max]
    else:
        counts, sampled = np.zeros(0, np.intp), n
        guesses = [np.partition(footrules, budget - 1)[budget - 1]]
    for boundary in guesses:
        strict = np.flatnonzero(np.less(footrules, scalar(boundary), out=mask))
        if strict.shape[0] >= budget:
            values = footrules[strict]
            boundary = np.searchsorted(np.cumsum(np.bincount(values)), budget)
            ties = strict[values == scalar(boundary)]
            strict = strict[values < scalar(boundary)]
            break
        wanted = budget - strict.shape[0]
        # Ties fill about counts[boundary] / sampled of the row; a prefix
        # holding twice the wanted number on average rarely comes up short.
        seen = counts[boundary] if 0 <= boundary < counts.shape[0] else 0
        stop = 2 * wanted * sampled // max(1, seen) + 64
        while True:
            ties = np.flatnonzero(
                np.equal(footrules[:stop], scalar(boundary), out=mask[:stop])
            )
            if ties.shape[0] >= wanted or stop >= n:
                break
            stop *= 2
        if ties.shape[0] >= wanted:
            break
    return np.concatenate([strict, ties[: budget - strict.shape[0]]])


def _refine_groups(budgets: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Split a call's queries into runs of at most :data:`_REFINE_PAIRS`
    candidates (one query at least), so one refine call's ids and
    distances stay small however many queries the call holds.  Runs span
    footrule tiles: tiling the scan adds no refine or top-k call."""
    lo, pairs = 0, 0
    for q, budget in enumerate(budgets):
        pairs += int(budget)
        if pairs > _REFINE_PAIRS and q > lo:
            yield lo, q
            lo, pairs = q, int(budget)
    yield lo, len(budgets)


def _group_top_k(
    distances: np.ndarray, ids: np.ndarray, lengths: np.ndarray, k: int
) -> NeighborArrays:
    """One refine group's answers: :func:`~repro.index.batching.top_k_arrays`
    over its queries' candidate rows, laid end to end in ``distances`` and
    ``ids`` (``lengths`` per query) and padded to one width when ragged."""
    shape = (lengths.shape[0], int(lengths.max()))
    if (lengths == shape[1]).all():
        return top_k_arrays(distances.reshape(shape), k, ids.reshape(shape))
    cells = np.arange(shape[1]) < lengths[:, None]
    padded, padded_ids = np.zeros(shape), np.zeros(shape, dtype=ids.dtype)
    padded[cells], padded_ids[cells] = distances, ids
    return top_k_arrays(padded, k, padded_ids, lengths)


class DistPermIndex(Index):
    """Distance-permutation index over ``k`` sites."""

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        n_sites: int = 8,
        site_indices: Optional[Sequence[int]] = None,
        site_strategy: str = "random",
        rng: Optional[np.random.Generator] = None,
    ):
        if site_indices is None and n_sites < 1:
            raise ValueError("need at least one site")
        self._requested_sites = n_sites
        self._site_indices = (
            list(site_indices) if site_indices is not None else None
        )
        self._site_strategy = site_strategy
        self._rng = rng
        super().__init__(points, metric)

    def _build(self) -> None:
        if self._site_indices is None:
            self._site_indices = select_pivots(
                self.points,
                self.metric,
                min(self._requested_sites, len(self.points)),
                strategy=self._site_strategy,
                rng=self._rng,
            )
        self.site_indices = list(self._site_indices)
        self.sites = [self.points[i] for i in self.site_indices]
        # One Lehmer rank per element (uint64 for k <= 20) plus the
        # column-major rank positions batched footrule reads, both read
        # off the metric's row blocks by the pair-compare kernel.
        self.codes, self._perm_positions = site_ranks(
            self.points, self.sites, self.metric
        )
        # Scratch buffers the footrule path reuses across queries.
        self._footrule_workspace: dict = {}

    @property
    def backing(self) -> str:
        """``"ram"`` (decoded arrays resident) or ``"mmap"`` (disk-backed)."""
        return getattr(self, "_backing", "ram")

    @property
    def code_store(self) -> Optional[MappedCodeStore]:
        """The mapped code section, when ``backing == "mmap"``."""
        return getattr(self, "_code_store", None)

    def close(self) -> None:
        """Release the mapped code section (RAM backing has none) and the
        refine encoding, which a later refine would rebuild."""
        self._resident = None
        store = getattr(self, "_code_store", None)
        if store is not None:
            store.close()

    def _code_blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, codes)`` covering every stored element.

        The one place outside the scan that tells the backings apart:
        RAM yields the resident code array whole, mmap streams the
        store's blocks (range-checked, never cached).
        """
        if self.backing == "mmap":
            yield from self._code_store.iter_blocks()
        else:
            yield 0, len(self.codes), self.codes

    def _materialized_codes(self) -> np.ndarray:
        """The full code array: the resident one, or streamed out of the
        store on mmap."""
        blocks = [codes for _, _, codes in self._code_blocks()]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def census(self) -> StreamingCensus:
        """The table of realized permutations, with multiplicities.

        A :class:`~repro.core.estimate.StreamingCensus` of the stored
        Lehmer codes, folded block by block: its sorted distinct
        ``codes`` are Corollary 8's table (Lehmer codes sort
        lexicographically, so in the order ``np.unique(axis=0)`` lists
        the rows) and its ``counts`` say how many elements realize each.
        Derived on every call, so it can never lag behind
        :meth:`add_points`.
        """
        census = StreamingCensus()
        for _, _, codes in self._code_blocks():
            census.update_codes(codes, self.n_sites)
        return census

    @property
    def permutations(self) -> np.ndarray:
        """The ``(n, k)`` permutation matrix, materialized from codes.

        Kept as a property so the index itself stores only the code
        array plus the compact rank-position cache; the full row matrix
        exists only while a caller (``--dump``, probe checks, tests)
        actually looks at it.
        """
        return decode_permutations(self._materialized_codes(), self.n_sites)

    @property
    def n_sites(self) -> int:
        return len(self.site_indices)

    def query_permutation(self, query: Any) -> np.ndarray:
        """Compute the query's distance permutation (k metric evaluations)."""
        return self.query_permutations([query])[0]

    def query_permutations(self, queries: Sequence[Any]) -> np.ndarray:
        """Distance permutations of a whole query set in one ``to_sites`` call.

        Ranked by :func:`~repro.core.permutation.ranked_permutations`, so
        a NaN distance raises ``ValueError``, as it does in the build.
        """
        return ranked_permutations(self.metric.to_sites(queries, self.sites))

    def add_points(self, new_points: Sequence[Any]) -> None:
        """Append elements to the index without a full rebuild.

        Online inserts are cheap for this structure because the sites
        are fixed at build time: a new element costs exactly its
        ``n_sites`` site distances (charged to ``build_distances``,
        like the original build) and one pass of the build's rank kernel
        (:func:`~repro.core.permutation.site_ranks`), which yields its
        Lehmer code and its entries of the rank-position cache.  Codes and
        positions are appended, so both land byte-identical to a fresh
        build of the combined database over the same site set — and so
        does :meth:`census`, which is derived from the codes.  A NaN
        distance raises ``ValueError``, as in the build, before anything
        is appended.  A bare string is one point, as a 1-D vector is one
        row.

        The site draw itself is **not** revisited: a growing database
        keeps the permutation space of its original sites, which is the
        trade inserts make against census fidelity (a fresh build could
        draw sites from the new elements too).
        """
        if self.backing == "mmap":
            raise RuntimeError(
                "add_points is not supported on an mmap-backed index; "
                "reload with backing='ram' to append"
            )
        if isinstance(new_points, str):
            new_points = [new_points]
        if len(new_points) == 0:
            return
        if isinstance(self.points, np.ndarray):
            new_points = np.asarray(new_points, dtype=self.points.dtype)
            if new_points.ndim == 1:
                new_points = new_points.reshape(1, -1)
            if new_points.shape[1] != self.points.shape[1]:
                raise ValueError(
                    f"new points have dimension {new_points.shape[1]}, "
                    f"index has {self.points.shape[1]}"
                )
        query_count = self.metric.count
        new_codes, new_positions = site_ranks(
            new_points, self.sites, self.metric
        )
        if isinstance(self.points, np.ndarray):
            self.points = np.concatenate([self.points, new_points])
        else:
            self.points = list(self.points) + list(new_points)
        self.codes = np.concatenate([self.codes, new_codes])
        # Appending along the transposed (site-major) view keeps every
        # site's column contiguous, as a fresh build lays it out.
        self._perm_positions = np.concatenate(
            [self._perm_positions.T, new_positions.T], axis=1
        ).T
        self._footrule_workspace = {}
        self._resident = None
        # The site evaluations are construction work: move them from the
        # query account to the build account, as __init__ does.
        delta = self.metric.count - query_count
        self.metric.count = query_count
        self.stats.build_distances += delta

    def unique_permutations(self) -> int:
        """The census of Tables 2–3: ``|{Π_y : y in database}|``."""
        return self.census().distinct

    def distinct_permutation_set(self) -> Set[Tuple[int, ...]]:
        """The realized permutations themselves."""
        table = decode_permutations(self.census().codes, self.n_sites)
        return {tuple(int(v) for v in row) for row in table}

    def storage(self) -> StorageReport:
        """Measured storage comparison for this database and site set."""
        return storage_report(
            n=len(self.points),
            k=self.n_sites,
            realized_permutations=self.unique_permutations(),
        )

    def entropy(self) -> EntropyReport:
        """Entropy accounting of the permutation-id distribution.

        How far below the fixed-width ``ceil(log2 N)`` an entropy code
        could go on this database (the "more sophisticated structure" the
        paper alludes to for small databases), read off the census
        multiplicities.
        """
        return entropy_report(self.census().counts)

    def _position_tiles(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, columns)`` covering every stored element.

        ``columns`` is a ``(k, stop - start)`` matrix of rank positions
        whose rows are contiguous — the footrule kernel's layout — valid
        until the next tile is drawn.  RAM backing yields the resident
        matrix whole.  mmap backing fills the reused workspace with as
        many store blocks as fit ``_TILE_BYTES`` (one at least) by one
        :meth:`~repro.core.storage.MappedCodeStore.positions_block` call:
        retained blocks are copied in, each run of the others is decoded
        in one pass, which is where a corrupt page raises.
        """
        if self.backing != "mmap":
            yield 0, len(self.points), self._perm_positions.T
            return
        store = self._code_store
        k = self.n_sites
        dtype = compact_position_dtype(k)
        block = store.block_elements
        span = block * max(1, _TILE_BYTES // (k * dtype.itemsize * block))
        buffer = workspace_buffer(
            self._footrule_workspace,
            "positions",
            (k, min(span, store.count)),
            dtype,
        )
        store.advise("sequential")
        for start in range(0, store.count, span):
            stop = min(start + span, store.count)
            tile = buffer[:, : stop - start]
            store.positions_block(start // block, -(-stop // block), out=tile)
            yield start, stop, tile

    def _footrules_matrix(self, query_perms: np.ndarray) -> np.ndarray:
        """Footrule of every query row against every stored permutation.

        The result is in :func:`compact_footrule_dtype` (``uint8`` through
        ``k = 22``) and lives in the reused workspace: it is valid until
        the next footrule call on this index.  Each tile of
        :meth:`_position_tiles` is scored against *every* query row into
        its own columns of the matrix, so with mmap backing a block is
        fetched once per chunk of :meth:`_query_chunks`.  Footrule is
        per-column-independent integer math, so the matrix is
        byte-identical however the columns were tiled.
        """
        workspace = self._footrule_workspace
        out = workspace_buffer(
            workspace,
            "footrules",
            (query_perms.shape[0], len(self.points)),
            compact_footrule_dtype(self.n_sites),
        )
        for start, stop, columns in self._position_tiles():
            footrule_matrix_batch(
                None,
                query_perms,
                positions=columns.T,
                workspace=workspace,
                out=out[:, start:stop],
            )
        return out

    def _scan_decodes(self) -> bool:
        """Whether a scan decodes: an mmap store whose cache cannot hold
        every block."""
        store = self.code_store
        return store is not None and store.decoded_bytes_total() > store.cache_bytes

    def _query_chunks(self, n_queries: int):
        """Query ranges scored by one footrule matrix: as many as 32 MiB
        of rows hold (:func:`~repro.index.batching.query_chunks`) when the
        chunk shares a decode, else three :data:`_TILE_BYTES` of rows (15
        queries at n = 200k).  One tile peaked no lower and made rebuilds
        25 % slower: glibc trims the heap between the build's 1.5 MB
        blocks unless a freed buffer of a few MB raised its threshold."""
        itemsize = compact_footrule_dtype(self.n_sites).itemsize
        tile = None if self._scan_decodes() else 3 * _TILE_BYTES
        return query_chunks(n_queries, len(self.points), itemsize, tile)

    def candidate_order(self, query: Any) -> np.ndarray:
        """Database indices ordered by footrule to the query's permutation.

        This is the proximity-preserving order: elements whose permutation
        agrees with the query's are likely close, so they are evaluated
        first.  The stable sort runs on the narrow footrule dtype (a
        radix sort for one- and two-byte rows).
        """
        footrules = self._footrules_matrix(self.query_permutations([query]))[0]
        return np.argsort(footrules, kind="stable")

    def _resident_points(self) -> Any:
        """The database as refine reads it: the metric's encoding of the
        points (edit distance: the code matrix, whose narrow symbol rows
        the pair driver gathers candidates from; ``L_2``: the rows with
        their squared norms, :class:`~repro.metrics.minkowski.
        EncodedVectors`), or the points themselves for a metric without
        one.

        Encoded once per index — on the first refine after a build or a
        load — and held here, so it never churns through the metric's
        encoding cache; :meth:`add_points` drops it.  It is derived state:
        never saved, nor shipped in a pooled shard's state.
        """
        resident = getattr(self, "_resident", None)
        if resident is None:
            encoded = self.metric.encode(self.points)
            resident = self.points if encoded is None else encoded
            self._resident = resident
        return resident

    def _clamp_budget(self, k: int, budget: Optional[int]) -> int:
        n = len(self.points)
        return n if budget is None else max(k, min(budget, n))

    # Exact search verifies every candidate: the exact paths do not yet
    # prune with the generalized-hyperplane bound a stored permutation
    # gives (see the module docstring), so the proximity-preserving order
    # is irrelevant there: scan exhaustively without spending the k site
    # evaluations a query permutation would cost.

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        return exhaustive_range_batch(self.metric, queries, self.points, radius)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        return exhaustive_knn_batch(self.metric, queries, self.points, k)

    def _ranked_rows(
        self, queries: Sequence[Any], limit: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(footrules, means, ids)``: each query's first ``limit`` (capped
        at ``n``) ids in ``(footrule, id)`` order as an ``int32`` row, their
        footrules in :func:`compact_footrule_dtype`, and the query's mean
        footrule over all points.

        One ``to_sites`` call and one footrule scan per query chunk.  A
        length-``b`` prefix of a row of ``ids`` is the set
        ``_budget_candidates(row, b)`` selects, which lists the ids below
        its boundary, then the boundary ties, each in id order; a stable
        sort by footrule therefore orders it by ``(footrule, id)``.
        """
        n, n_queries = len(self.points), len(queries)
        limit = max(0, min(int(limit), n))
        footrules = np.empty((n_queries, limit), compact_footrule_dtype(self.n_sites))
        means, ids = np.empty(n_queries), np.empty((n_queries, limit), np.int32)
        if limit and n_queries:
            query_perms = self.query_permutations(queries)
            for start, stop in self._query_chunks(n_queries):
                matrix = self._footrules_matrix(query_perms[start:stop])
                for q, row in enumerate(matrix, start):
                    ranked = _budget_candidates(row, limit, self._footrule_workspace)
                    ids[q] = ranked[np.argsort(row[ranked], kind="stable")]
                    footrules[q], means[q] = row[ids[q]], row.sum(dtype=np.int64) / n
        return footrules, means, ids

    def query_footrules(
        self, queries: Sequence[Any], limit: int
    ) -> np.ndarray:
        """Each query's ``limit`` smallest *centered* footrules, ascending.

        What the sharded global-footrule budget split ranks by, for
        callers that replay it (:meth:`ranked_candidates` ships the raw
        values and the mean instead).  Raw footrule values are not
        comparable across shards — each shard ranks against its own site
        set, so a lucky site draw shifts a shard's whole distribution low
        and would hoard the merged budget on noise.  Centering every row
        by the query's mean footrule over *all* points of this index
        cancels that per-site-set shift while preserving the within-shard
        ordering, so the merged values rank candidates by how unusually
        close they sit in their own shard's permutation space (over site
        draws, no more recall than the proportional split).  Costs one
        ``to_sites`` call (``n_sites`` evaluations per query).
        """
        footrules, means, _ = self._ranked_rows(queries, limit)
        return footrules - means[:, None]

    def ranked_candidates(
        self, queries: Sequence[Any], limit: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The shard side of the sharded global-footrule budget split:
        :meth:`_ranked_rows` plus the candidates' ``float64`` distances
        from one :meth:`~repro.metrics.base.Metric.grouped_distances`
        call.  The top ``k`` of a row's first ``b`` entries is
        :meth:`knn_approx_batch`'s answer at that query's budget ``b``, so
        the supervisor allocates and selects from one round trip, at the
        price of refining all ``limit`` candidates.
        """
        footrules, means, ids = self._ranked_rows(queries, limit)
        offsets = np.arange(len(queries) + 1) * ids.shape[1]
        distances = self.metric.grouped_distances(
            queries, self._resident_points(), ids.reshape(-1), offsets
        )
        return footrules, means, ids, distances.reshape(ids.shape)

    def _bounded_candidates(
        self, query_perms: np.ndarray, budgets: np.ndarray
    ) -> List[np.ndarray]:
        """:func:`_budget_candidates` of each footrule row of an mmap index
        whose cache cannot hold every block, decoding only codes whose
        prefix bound ``L <= F`` is at most ``t``.

        ``t`` starts one above the boundary a sample of exact footrules
        suggests and widens by 2 (footrules are even) until ``budget``
        entries are ``<= t``.  The row then holds ``F`` where ``F <= t``
        and an ``L > t`` elsewhere, and its boundary is at most ``t``: each
        compare :func:`_budget_candidates` makes reads as on the exact row.
        """
        k, n = self.n_sites, len(self.points)
        workspace = self._footrule_workspace
        dtype, position_dtype = compact_footrule_dtype(k), compact_position_dtype(k)
        rows = workspace_buffer(workspace, "footrules", (len(query_perms), n), dtype)
        # Every array the size of the unretained codes is a reused
        # workspace buffer: fresh ones would fault their pages in anew on
        # each call once the heap is trimmed between single queries.
        codes = workspace_buffer(workspace, "codes", (n,), np.uint64)
        held, runs, ends = [], [], [0]
        for start, stop, positions, run in self._code_store.scan_blocks(workspace):
            if run is not None:
                # Codes ends[r] .. ends[r + 1] are columns runs[r] .. of the
                # row; ``run`` lasts until the next draw.
                codes[ends[-1] : ends[-1] + len(run)] = run
                runs.append(start)
                ends.append(ends[-1] + len(run))
            else:
                held.append(rows[:, start:stop])
                footrule_matrix_batch(None, query_perms, positions=positions.T,
                                      workspace=workspace, out=held[-1])
        codes = codes[: ends[-1]]
        spans = list(zip(runs, ends, ends[1:]))
        tables, divisor = footrule_prefix_bounds(query_perms, k)
        # Prefixes are below 2**14: viewed as intp, no gather re-casts them.
        prefixes = workspace_buffer(workspace, "prefixes", codes.shape, np.uint64)
        np.floor_divide(codes, np.uint64(divisor), out=prefixes)
        prefixes = prefixes.view(np.intp)
        bounds = workspace_buffer(workspace, "bounds", codes.shape, dtype)
        # So are each round's masks and (sized to the round) its survivors'
        # codes, positions and exact footrules.  Their indices are not:
        # ``np.compress`` into a buffer costs more than the pages it saves.
        reach, seen, fresh = (workspace_buffer(workspace, key, codes.shape, np.bool_)
                              for key in ("reach", "seen", "fresh"))
        # The mask _budget_candidates reuses once the rounds are done.
        hits = workspace_buffer(workspace, "mask", (n,), np.bool_)
        if held:
            samples = np.concatenate(held, axis=1)
        else:
            picked = codes[:: max(1, len(codes) // _BOUNDARY_SAMPLE)]
            samples = footrule_matrix_batch(
                None, query_perms, positions=decode_positions(picked, k)
            )
        candidates = []
        for q, budget in enumerate(budgets):
            row, budget = rows[q], int(budget)
            if 0 < budget < n:
                np.take(tables[q], prefixes, out=bounds)
                for first, lo, hi in spans:
                    row[first : first + hi - lo] = bounds[lo:hi]
                sampled = np.cumsum(np.bincount(samples[q]))
                t = 1 + int(np.searchsorted(sampled, budget * samples.shape[1] / n))
                seen.fill(False)
                while True:
                    np.less_equal(bounds, dtype.type(t), out=reach)
                    np.greater(reach, seen, out=fresh)
                    fresh_ids = np.flatnonzero(fresh)
                    m = len(fresh_ids)
                    survivors = np.take(codes, fresh_ids, out=workspace_buffer(
                        workspace, "survivors", (m,), np.uint64))
                    decoded = decode_positions(survivors, k, out=workspace_buffer(
                        workspace, "survivor_positions", (k, m), position_dtype).T)
                    scores = footrule_matrix_batch(
                        None, query_perms[q : q + 1], positions=decoded,
                        workspace=workspace,
                        out=workspace_buffer(workspace, "exact", (1, m), dtype))[0]
                    # ``fresh_ids`` is sorted: shift each run's share in place
                    # from code positions to row columns.
                    cuts = np.searchsorted(fresh_ids, ends)
                    for (first, lo, _), a, b in zip(spans, cuts, cuts[1:]):
                        fresh_ids[a:b] += first - lo
                    row[fresh_ids] = scores
                    np.less_equal(row, dtype.type(t), out=hits)
                    if np.count_nonzero(hits) >= budget:
                        break
                    reach, seen, t = seen, reach, t + 2
            candidates.append(_budget_candidates(row, budget, workspace))
        return candidates

    def _candidate_rows(
        self, query_perms: np.ndarray, budgets: np.ndarray
    ) -> Iterator[np.ndarray]:
        """Each query's :func:`_budget_candidates`, in query order, scored
        one chunk of :meth:`_query_chunks` at a time."""
        bounded = self._scan_decodes()
        for start, stop in self._query_chunks(len(query_perms)):
            perms, chunk = query_perms[start:stop], budgets[start:stop]
            if bounded and stop - start <= _BOUNDED_QUERIES:
                yield from self._bounded_candidates(perms, chunk)
                continue
            for row, budget in zip(self._footrules_matrix(perms), chunk):
                yield _budget_candidates(row, int(budget), self._footrule_workspace)

    def _knn_approx_batch_impl(
        self, queries: Sequence[Any], k: int, budget: Budget
    ) -> NeighborArrays:
        n = len(self.points)
        if isinstance(budget, np.ndarray):
            # Per-query budgets (a replay of the sharded global split, as
            # the e2e probe and the tests run it): spent as allocated —
            # zero-budget rows stay empty, with no k floor, so the global
            # candidate total matches the requested budget.
            budgets = np.minimum(budget, n)
            if not budgets.any():
                return NeighborArrays.empty(len(queries))
        else:
            budgets = np.full(len(queries), self._clamp_budget(k, budget))
        rows = self._candidate_rows(self.query_permutations(queries), budgets)
        points = self._resident_points()
        parts: List[NeighborArrays] = []
        for lo, hi in _refine_groups(budgets):
            candidates = list(islice(rows, hi - lo))
            lengths = np.array([c.shape[0] for c in candidates], dtype=np.int64)
            offsets = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            ids = np.concatenate(candidates)
            distances = self.metric.grouped_distances(
                queries[lo:hi], points, ids, offsets
            )
            parts.append(_group_top_k(distances, ids, lengths, k))
        return NeighborArrays.concat(parts)
