"""Mempool data: entries, ancestry/CPFP, and snapshots."""

from .ancestry import (
    AncestryIndex,
    PackageStats,
    cpfp_fraction,
    cpfp_involved_txids,
    dependency_closure,
    find_cpfp_parent_txids,
    find_cpfp_txids,
)
from .mempool import MempoolEntry
from .snapshots import (
    CONGESTION_BINS,
    MempoolSnapshot,
    SizeSeries,
    SnapshotStore,
    SnapshotTx,
    congestion_bin,
    merge_stores,
)

__all__ = [
    "AncestryIndex",
    "PackageStats",
    "cpfp_fraction",
    "cpfp_involved_txids",
    "dependency_closure",
    "find_cpfp_parent_txids",
    "find_cpfp_txids",
    "MempoolEntry",
    "CONGESTION_BINS",
    "MempoolSnapshot",
    "SizeSeries",
    "SnapshotStore",
    "SnapshotTx",
    "congestion_bin",
    "merge_stores",
]
