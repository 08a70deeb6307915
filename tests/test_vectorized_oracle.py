"""Differential suite: the vectorized metrics core vs the scalar oracle.

Hypothesis drives randomly shaped chains, snapshots, and binomial-tail
cells through the comparison contract in :mod:`oracle`; the dataset
tests run the same contract over the cached scale-0.1 A/B/C analogues.
Degenerate inputs (empty transaction sets, single-transaction blocks,
all-equal fee-rates, NaN SPPE) get explicit cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ext_power import detection_power
from repro.chain.block import GENESIS_HASH
from repro.core.acceleration import detection_sweep, score_detector
from repro.core.audit import Auditor, self_interest_table_reference
from repro.core.norms import CpfpFilter
from repro.core.ppe import chain_ppe, sppe
from repro.core.stattests import (
    STRONG_EVIDENCE_P,
    binom_tail_lower,
    binom_tail_upper,
)
from repro.core.vectorized import (
    ChainArrays,
    binom_tail_lower_batch,
    binom_tail_lower_vec,
    binom_tail_upper_batch,
    binom_tail_upper_vec,
    chain_ppe_arrays,
    sppe_arrays,
    windowed_prioritization_test_vec,
)
from repro.core.stattests import windowed_prioritization_test
from repro.core.violations import analyze_snapshot
from repro.datasets.builder import (
    build_dataset_a,
    build_dataset_b,
    build_dataset_c,
)
from repro.datasets.cache import DatasetCache

from conftest import TxFactory, make_test_block
from oracle import (
    assert_blocks_equivalent,
    assert_dataset_equivalent,
    assert_p_close,
    assert_pair_counts_equivalent,
    assert_tails_match,
    floats_equal,
    nan_equal,
)


# ----------------------------------------------------------------------
# Hypothesis: random chains
# ----------------------------------------------------------------------
@st.composite
def random_chain(draw):
    """(blocks, block_pools, all txids): 0-4 blocks, 0-10 txs each.

    Fee draws come from a small range so equal fee-rates (tie-breaking)
    occur often; a tx may spend the previous one in its block, creating
    in-block CPFP children the filter must drop identically.
    """
    factory = TxFactory("vec-oracle")
    block_count = draw(st.integers(min_value=0, max_value=4))
    blocks = []
    pools = {}
    txids = []
    prev_hash = GENESIS_HASH
    for height in range(block_count):
        tx_count = draw(st.integers(min_value=0, max_value=10))
        transactions = []
        for index in range(tx_count):
            fee = draw(st.integers(min_value=1, max_value=40)) * 100
            vsize = draw(st.sampled_from([100, 200, 250]))
            parents = ()
            if transactions and draw(st.booleans()):
                parents = (transactions[-1].txid,)
            tx = factory.tx(fee=fee, vsize=vsize, parents=parents)
            transactions.append(tx)
            txids.append(tx.txid)
        block = make_test_block(
            transactions, height=height, prev_hash=prev_hash,
            timestamp=float(height),
        )
        prev_hash = block.block_hash
        blocks.append(block)
        pool = draw(st.sampled_from(["pool-a", "pool-b", None]))
        if pool is not None:
            pools[height] = pool
    return blocks, pools, txids


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_chains_match_oracle(data):
    blocks, pools, txids = data.draw(random_chain())
    subset_size = data.draw(st.integers(min_value=0, max_value=len(txids)))
    targets = set(txids[:subset_size]) | {"txid-not-committed"}
    cpfp_filter = data.draw(st.sampled_from(list(CpfpFilter)))
    assert_blocks_equivalent(
        blocks, pools, cpfp_filter=cpfp_filter, target_txids=targets
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_chain_pool_restriction_matches_oracle(data):
    blocks, pools, txids = data.draw(random_chain())
    arrays = ChainArrays.from_blocks(blocks, pools)
    targets = set(txids)
    for pool in ("pool-a", "pool-b", "pool-never-seen"):
        pool_blocks = [b for b in blocks if pools.get(b.height) == pool]
        scalar = sppe(pool_blocks, targets)
        vector = sppe_arrays(arrays, targets, pool=pool)
        assert scalar.tx_count == vector.tx_count
        assert floats_equal(scalar.sppe, vector.sppe)
        assert floats_equal(
            scalar.accelerated_fraction, vector.accelerated_fraction
        )


# ----------------------------------------------------------------------
# Hypothesis: random snapshots
# ----------------------------------------------------------------------
snapshot_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.01, max_value=1e3, allow_nan=False),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(rows=snapshot_rows, epsilon=st.sampled_from([0.0, 0.5, 10.0, 600.0]))
def test_random_snapshots_match_oracle(rows, epsilon):
    times = [row[0] for row in rows]
    rates = [row[1] for row in rows]
    heights = [row[2] for row in rows]
    assert_pair_counts_equivalent(
        times, rates, heights, epsilons=(epsilon, 0.0)
    )


def test_pair_counts_use_small_row_blocks():
    # Exercise the row-blocked path with more rows than one block.
    rng = np.random.default_rng(7)
    count = 700
    assert_pair_counts_equivalent(
        rng.uniform(0, 1000, count).tolist(),
        rng.uniform(0.1, 50, count).tolist(),
        rng.integers(0, 30, count).tolist(),
    )


# ----------------------------------------------------------------------
# Hypothesis + exhaustive: binomial tails
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=80),
    x_offset=st.integers(min_value=-1, max_value=81),
    p=st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(
            min_value=1e-9, max_value=1.0 - 1e-9,
            allow_nan=False, allow_infinity=False,
        ),
    ),
)
def test_tails_match_oracle(n, x_offset, p):
    assert_tails_match(min(x_offset, n + 1), n, p)


def _direct_sum_upper(x: int, n: int, p: float) -> float:
    """P(B ≥ x) by naive fsum of the exact pmf (small n only)."""
    return math.fsum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        for k in range(max(x, 0), n + 1)
    )


def _direct_sum_lower(x: int, n: int, p: float) -> float:
    """P(B ≤ x) by naive fsum of the exact pmf (small n only)."""
    return math.fsum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        for k in range(0, min(x, n) + 1)
    )


P_GRID = (0.0, 1e-6, 0.05, 0.25, 0.5, 0.731, 0.95, 1.0 - 1e-6, 1.0)


def test_tails_exhaustive_small_n_vs_direct_summation():
    """Every (x, n, p) cell with n ≤ 12 against naive summation.

    This pins the p = 0.0 / p = 1.0 short-circuits (the point-mass
    cases that used to ride through log-space) and every boundary x.
    """
    for n in range(0, 13):
        for x in range(-1, n + 2):
            for p in P_GRID:
                expected_upper = (
                    1.0 if x <= 0 else (0.0 if x > n else _direct_sum_upper(x, n, p))
                )
                expected_lower = (
                    0.0 if x < 0 else (1.0 if x >= n else _direct_sum_lower(x, n, p))
                )
                for impl in (binom_tail_upper, binom_tail_upper_vec):
                    got = impl(x, n, p)
                    assert got == pytest.approx(
                        expected_upper, rel=1e-10, abs=1e-300
                    ), f"upper {impl.__name__} x={x} n={n} p={p}"
                for impl in (binom_tail_lower, binom_tail_lower_vec):
                    got = impl(x, n, p)
                    assert got == pytest.approx(
                        expected_lower, rel=1e-10, abs=1e-300
                    ), f"lower {impl.__name__} x={x} n={n} p={p}"


def test_tails_degenerate_rates_are_exact():
    # p = 0: all mass at B = 0; p = 1: all mass at B = n.  Exact 0/1,
    # no log(0) anywhere near the result.
    for impl in (binom_tail_upper, binom_tail_upper_vec):
        assert impl(0, 10, 0.0) == 1.0
        assert impl(1, 10, 0.0) == 0.0
        assert impl(10, 10, 1.0) == 1.0
        assert impl(11, 10, 1.0) == 0.0
    for impl in (binom_tail_lower, binom_tail_lower_vec):
        assert impl(0, 10, 0.0) == 1.0
        assert impl(-1, 10, 0.0) == 0.0
        assert impl(9, 10, 1.0) == 0.0
        assert impl(10, 10, 1.0) == 1.0


def test_tails_reject_invalid_p():
    for impl in (
        binom_tail_upper,
        binom_tail_lower,
        binom_tail_upper_vec,
        binom_tail_lower_vec,
    ):
        with pytest.raises(ValueError):
            impl(1, 10, -0.1)
        with pytest.raises(ValueError):
            impl(1, 10, 1.1)


def test_batch_tails_match_elementwise():
    xs = list(range(0, 120, 3)) * 2
    upper = binom_tail_upper_batch(xs, 150, 0.21)
    lower = binom_tail_lower_batch(xs, 150, 0.21)
    for x, up, low in zip(xs, upper, lower):
        assert up == binom_tail_upper_vec(x, 150, 0.21)
        assert low == binom_tail_lower_vec(x, 150, 0.21)


def test_windowed_test_matches_oracle():
    windows = [
        (0.2, ["a", "b", "a", "c"]),
        (0.3, []),
        (0.25, ["a"] * 6 + ["c"] * 3),
        (0.1, ["b"]),
    ]
    for pool in ("a", "b", "zzz"):
        for direction in ("accelerate", "decelerate"):
            assert_p_close(
                windowed_prioritization_test(pool, windows, direction),
                windowed_prioritization_test_vec(pool, windows, direction),
                context=f"windowed {pool} {direction}",
            )


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------
def test_empty_chain():
    arrays = ChainArrays.from_blocks([], {})
    assert arrays.block_count == 0 and arrays.tx_count == 0
    assert chain_ppe_arrays(arrays) == []
    result = sppe_arrays(arrays, {"anything"})
    assert result.tx_count == 0
    assert math.isnan(result.sppe) and math.isnan(result.accelerated_fraction)


def test_empty_target_set_gives_nan_sppe():
    factory = TxFactory("vec-degenerate")
    block = make_test_block([factory.tx(fee=500)], height=0)
    arrays = assert_blocks_equivalent([block], {0: "p"}, target_txids=set())
    result = sppe_arrays(arrays, set())
    assert result.tx_count == 0 and math.isnan(result.sppe)


def test_single_tx_blocks_rank_zero():
    factory = TxFactory("vec-single")
    blocks = [
        make_test_block([factory.tx(fee=100 * (h + 1))], height=h)
        for h in range(3)
    ]
    arrays = assert_blocks_equivalent(blocks, {0: "p", 1: "p", 2: "q"})
    assert np.all(arrays.observed_rank == 0.0)
    assert np.all(arrays.predicted_rank == 0.0)
    assert all(b.ppe == 0.0 for b in chain_ppe_arrays(arrays))


def test_all_equal_fee_rates_zero_error():
    factory = TxFactory("vec-ties")
    txs = [factory.tx(fee=1000, vsize=200) for _ in range(8)]
    block = make_test_block(txs, height=0)
    arrays = assert_blocks_equivalent(
        [block], {0: "p"}, target_txids={t.txid for t in txs}
    )
    # The stable tie-break means the norm does not constrain equal
    # fee-rates: zero error everywhere, in both implementations.
    assert np.all(arrays.signed_error == 0.0)


def test_all_cpfp_block_keeps_empty_segment():
    factory = TxFactory("vec-cpfp")
    parent = factory.tx(fee=100)
    child = factory.tx(fee=9000, parents=(parent.txid,))
    block = make_test_block([parent, child], height=0)
    arrays = ChainArrays.from_blocks([block], {}, CpfpFilter.INVOLVED)
    assert arrays.block_count == 1
    assert arrays.counts[0] == 0  # both dropped, segment stays aligned
    assert chain_ppe_arrays(arrays) == chain_ppe([block], CpfpFilter.INVOLVED) == []


def test_unknown_pool_masks_empty():
    factory = TxFactory("vec-owner")
    block = make_test_block([factory.tx()], height=0)
    arrays = ChainArrays.from_blocks([block], {0: "known"})
    assert not arrays.block_mask("never-mined").any()
    assert not arrays.owner_mask(np.arange(arrays.tx_count), "never-mined").any()
    assert arrays.owner_id("never-mined") == -1


# ----------------------------------------------------------------------
# Cached scale-0.1 datasets: the full contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oracle_cache():
    return DatasetCache()


def test_dataset_a_scale01_matches_oracle(oracle_cache):
    assert_dataset_equivalent(build_dataset_a(scale=0.1, cache=oracle_cache))


def test_dataset_b_scale01_matches_oracle(oracle_cache):
    assert_dataset_equivalent(build_dataset_b(scale=0.1, cache=oracle_cache))


def test_dataset_c_scale01_matches_oracle(oracle_cache):
    assert_dataset_equivalent(build_dataset_c(scale=0.1, cache=oracle_cache))


BUILDERS = {"A": build_dataset_a, "B": build_dataset_b, "C": build_dataset_c}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_auditor_matches_oracles(oracle_cache, name):
    """Every vectorized Auditor method equals its oracle, called by name."""
    dataset = BUILDERS[name](scale=0.1, cache=oracle_cache)
    auditor = Auditor(dataset)
    top = [est.pool for est in dataset.hash_rates()[:4]]
    pools = list(dict.fromkeys(top + ["BTC.com"]))

    for cpfp_filter in CpfpFilter:
        assert auditor.ppe_distribution(cpfp_filter) == chain_ppe(
            dataset.chain, cpfp_filter
        )
    assert auditor.ppe_by_pool(pools) == {
        pool: chain_ppe(dataset.blocks_of(pool)) for pool in pools
    }

    epsilons = (0.0, 10.0)
    views = auditor.snapshot_views(count=5)
    assert auditor.violation_stats_multi(epsilons, count=5) == {
        epsilon: [analyze_snapshot(view, epsilon) for view in views]
        for epsilon in epsilons
    }

    assert nan_equal(
        auditor.self_interest_table(), self_interest_table_reference(auditor)
    )

    accelerated = dataset.accelerated_txids()
    target_sets = (
        dataset.scam_txids(),
        dataset.inferred_self_interest_txids(pools[0]),
    )
    for pool in pools:
        blocks = dataset.blocks_of(pool)
        for txids in target_sets:
            assert floats_equal(
                auditor.sppe_value(pool, txids), sppe(blocks, txids).sppe
            )
        assert nan_equal(
            auditor.dark_fee_sweep(pool),
            detection_sweep(
                blocks,
                is_accelerated=lambda txid: txid in accelerated,
                pool=pool,
                rng=np.random.default_rng(4),
            ),
        )
        assert nan_equal(
            auditor.dark_fee_scores(pool), score_detector(blocks, accelerated)
        )


def test_detection_power_matches_binomial_loop():
    """ext_power's batched rejection count vs a scalar tail per draw."""
    trials = 400
    cells = ((0.175, 0.3, 50), (0.07, 0.2, 100), (0.0375, 0.1, 250))
    for theta0, theta, y in cells:
        xs = np.random.default_rng(0).binomial(y, theta, size=trials)
        rejections = sum(
            1
            for x in xs
            if binom_tail_upper(int(x), y, theta0) < STRONG_EVIDENCE_P
        )
        assert detection_power(theta0, theta, y, trials=trials) == (
            rejections / trials
        )
