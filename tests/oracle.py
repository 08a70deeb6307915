"""Differential-testing harness: vectorized metrics vs the scalar oracle.

The scalar implementations in ``repro.core.norms/ppe/violations/
stattests`` are the *reference oracle* — literal transcriptions of the
paper's definitions.  ``repro.core.vectorized`` recomputes the same
quantities over packed arrays.  This module holds the comparison
contract both the Hypothesis suite and the dataset-level tests assert:

* ranks, per-block PPE, SPPE, and violation counts must match the
  oracle **exactly** (bit for bit) — the vectorized code performs the
  same IEEE operations on the same values in the same order;
* binomial-tail p-values may differ in log-sum-exp accumulation order —
  they must agree within ``P_VALUE_REL_TOL`` *relative* tolerance.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.norms import CpfpFilter
from repro.core.ppe import chain_ppe, per_transaction_sppe, sppe
from repro.core.stattests import binom_tail_lower, binom_tail_upper
from repro.core.vectorized import (
    ChainArrays,
    analyze_snapshot_multi,
    binom_tail_lower_vec,
    binom_tail_upper_vec,
    chain_ppe_arrays,
    count_violations_multi,
    per_transaction_sppe_arrays,
    sppe_arrays,
)
from repro.core.violations import analyze_snapshot, count_violations
from repro.mempool.ancestry import AncestryIndex

#: Documented relative tolerance for p-values (observed diffs ~1e-15).
P_VALUE_REL_TOL = 1e-9

#: ε grid used for violation cross-checks (the Fig 6 grid).
EPSILON_GRID = (0.0, 10.0, 600.0)


def children_of_by_scan(index: AncestryIndex, txid: str) -> frozenset[str]:
    """In-set children of ``txid`` by an O(n) scan of every tracked tx.

    The oracle for :meth:`AncestryIndex.children_of`'s incremental
    reverse index: it reads only the forward (child -> parent) links.
    """
    return frozenset(
        tx.txid
        for tx in index.topological_order()
        if txid in tx.parent_txids
    )


def floats_equal(a: float, b: float) -> bool:
    """Bit-level equality with NaN == NaN (degenerate SPPE)."""
    return a == b or (math.isnan(a) and math.isnan(b))


def nan_equal(a, b) -> bool:
    """Deep bit-for-bit equality where NaN == NaN.

    Recurses through dataclasses, mappings, sequences and numpy arrays;
    floats compare via :func:`floats_equal`.  This is the comparator the
    streaming differential contract uses: an ``AuditReport`` full of
    degenerate-NaN SPPE cells must still compare equal to itself.
    """
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, float)
            and isinstance(b, float)
            and floats_equal(a, b)
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            nan_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and list(a) == list(b)
            and all(nan_equal(a[k], b[k]) for k in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(nan_equal(x, y) for x, y in zip(a, b))
        )
    return a == b


def assert_audit_reports_equal(streamed, batch) -> None:
    """Field-by-field bit-identity of two AuditReports (NaN-tolerant).

    Asserted per field so a divergence names the section that broke
    instead of dumping two whole reports.
    """
    for fld in dataclasses.fields(batch):
        a = getattr(streamed, fld.name)
        b = getattr(batch, fld.name)
        assert nan_equal(a, b), (
            f"audit section {fld.name!r} diverged:\n"
            f"  streamed={a!r}\n  batch={b!r}"
        )


def assert_p_close(scalar: float, vectorized: float, context: str = "") -> None:
    """Assert two p-values agree within the documented relative tolerance."""
    if scalar == vectorized:
        return
    denom = max(abs(scalar), abs(vectorized))
    rel = abs(scalar - vectorized) / denom
    assert rel <= P_VALUE_REL_TOL, (
        f"p-value mismatch {context}: scalar={scalar!r} "
        f"vectorized={vectorized!r} rel={rel:.3e}"
    )


def assert_tails_match(x: int, n: int, p: float) -> None:
    """Both tails of one (x, n, p) cell, scalar vs vectorized."""
    assert_p_close(
        binom_tail_upper(x, n, p),
        binom_tail_upper_vec(x, n, p),
        context=f"upper x={x} n={n} p={p}",
    )
    assert_p_close(
        binom_tail_lower(x, n, p),
        binom_tail_lower_vec(x, n, p),
        context=f"lower x={x} n={n} p={p}",
    )


def assert_blocks_equivalent(
    blocks,
    block_pools=None,
    cpfp_filter: CpfpFilter = CpfpFilter.CHILDREN,
    target_txids=None,
) -> ChainArrays:
    """Full PPE/SPPE cross-check of one block list; returns the arrays.

    Asserts bit-identical per-block PPE, per-transaction signed errors
    (values *and* insertion order), and — when ``target_txids`` is given
    — the SPPE of that set (NaN-tolerant for empty matches).
    """
    arrays = ChainArrays.from_blocks(blocks, block_pools, cpfp_filter)

    scalar_ppe = chain_ppe(blocks, cpfp_filter)
    vector_ppe = chain_ppe_arrays(arrays)
    assert scalar_ppe == vector_ppe, "chain PPE diverged"

    scalar_map = per_transaction_sppe(blocks, cpfp_filter)
    vector_map = per_transaction_sppe_arrays(arrays)
    assert list(scalar_map) == list(vector_map), "per-tx order diverged"
    assert scalar_map == vector_map, "per-tx signed errors diverged"

    if target_txids is not None:
        scalar_sppe = sppe(blocks, target_txids, cpfp_filter)
        vector_sppe = sppe_arrays(arrays, target_txids)
        assert scalar_sppe.tx_count == vector_sppe.tx_count
        assert floats_equal(scalar_sppe.sppe, vector_sppe.sppe)
        assert floats_equal(
            scalar_sppe.accelerated_fraction,
            vector_sppe.accelerated_fraction,
        )
    return arrays


def assert_snapshot_equivalent(view, epsilons=EPSILON_GRID) -> None:
    """Violation stats of one joined snapshot across an ε grid."""
    multi = analyze_snapshot_multi(view, epsilons)
    for epsilon, stats in zip(epsilons, multi):
        assert stats == analyze_snapshot(view, epsilon), f"ε={epsilon}"


def assert_pair_counts_equivalent(
    arrival_times, fee_rates, commit_heights, epsilons=EPSILON_GRID
) -> None:
    """Raw (eligible, violating) counts on explicit arrays."""
    multi = count_violations_multi(
        arrival_times, fee_rates, commit_heights, epsilons
    )
    for epsilon, counted in zip(epsilons, multi):
        assert counted == count_violations(
            arrival_times, fee_rates, commit_heights, epsilon
        ), f"ε={epsilon}"


def assert_dataset_equivalent(dataset, pools_to_check: int = 6) -> None:
    """The whole differential contract over one built dataset.

    Covers: whole-chain PPE, per-pool PPE, per-pool per-tx SPPE maps,
    inferred self-interest SPPE per pool (the Table 2 cell), the indexed
    vs scanned wallet inference, and the Fig 6 violation grid over a
    deterministic snapshot sample.
    """
    from repro.core.audit import Auditor

    arrays = ChainArrays.from_dataset(dataset)
    assert chain_ppe(dataset.chain) == chain_ppe_arrays(arrays)

    pools = [est.pool for est in dataset.hash_rates()[:pools_to_check]]
    for pool in pools:
        blocks = dataset.blocks_of(pool)
        mask = arrays.block_mask(pool)
        assert chain_ppe(blocks) == chain_ppe_arrays(arrays, block_mask=mask)

        scalar_map = per_transaction_sppe(blocks)
        vector_map = per_transaction_sppe_arrays(arrays, pool=pool)
        assert list(scalar_map) == list(vector_map)
        assert scalar_map == vector_map

        wallets = dataset.pool_wallets.get(pool, frozenset())
        if wallets:
            assert frozenset(
                dataset.chain.transactions_touching(wallets)
            ) == dataset.chain.transactions_touching_indexed(wallets)
        txids = dataset.inferred_self_interest_txids(pool)
        assert txids == dataset.inferred_self_interest_txids_indexed(pool)
        for target in pools:
            scalar_sppe = sppe(dataset.blocks_of(target), txids)
            vector_sppe = sppe_arrays(arrays, txids, pool=target)
            assert scalar_sppe.tx_count == vector_sppe.tx_count
            assert floats_equal(scalar_sppe.sppe, vector_sppe.sppe)

    auditor = Auditor(dataset)
    for view in auditor.snapshot_views(
        count=6, rng=np.random.default_rng(30)
    ):
        assert_snapshot_equivalent(view)
