"""Index substrate: a SISAP-library analogue for proximity search.

Every index answers exact range and kNN queries over an arbitrary metric
and reports the number of distance evaluations spent — the cost measure of
the similarity-search literature.  The paper's ``distperm`` index type
(:class:`~repro.index.distperm.DistPermIndex`) additionally exposes the
permutation census that Tables 2 and 3 are built from.  The baselines are
the ones ``repro search --index`` builds: the linear scan, the pivot
tables (AESA, iAESA, LAESA) and the VP-tree, the one tree index.
:class:`~repro.index.sharded.ShardedIndex` splits any of them into shards.
"""

from repro.index.aesa import AESA
from repro.index.base import Index, Neighbor, SearchStats
from repro.index.distperm import DistPermIndex
from repro.index.iaesa import IAESA
from repro.index.linear import LinearScan
from repro.index.pivots import PivotIndex, select_pivots
from repro.index.sharded import ShardedIndex
from repro.index.vptree import VPTree

__all__ = [
    "AESA",
    "DistPermIndex",
    "IAESA",
    "Index",
    "LinearScan",
    "Neighbor",
    "PivotIndex",
    "SearchStats",
    "ShardedIndex",
    "VPTree",
    "select_pivots",
]
