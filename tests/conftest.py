"""Shared fixtures: tiny chains, blocks, and scaled-down scenario datasets."""

from __future__ import annotations

import gc

import pytest

from repro.chain.block import GENESIS_HASH, Block, build_block
from repro.chain.transaction import (
    CoinbaseTransaction,
    Transaction,
    TransactionBuilder,
    TxOutput,
    make_coinbase,
)
from repro.datasets.builder import (
    build_dataset_a,
    build_dataset_b,
    build_dataset_c,
)
from repro.mempool.mempool import MempoolEntry


@pytest.fixture(autouse=True, scope="session")
def _always_check_invariants():
    """Keep ``REPRO_AUDIT_CHECK`` invariant checking on for every test.

    The mempool/engine state machines self-verify after mutations, so
    any test exercising them doubles as an invariant test — a
    bookkeeping bug anywhere in the suite surfaces as an
    ``InvariantViolation`` instead of a silently skewed audit.
    """
    from repro.obs import invariants

    invariants.force(True)
    yield
    invariants.force(None)


@pytest.fixture(autouse=True, scope="session")
def _fewer_gc_passes():
    """Start a young-generation collection every 50,000 allocations, not 700.

    The engine-oracle, evented and golden-digest tests allocate millions
    of small objects that live until the test ends; at the default
    threshold the collector re-walks them again and again, which cost a
    fifth of those tests' wall time on a 2-core VM.  The older
    generations keep their default ratios, so full collections still
    run and cyclic garbage does not pile up over the session.
    """
    thresholds = gc.get_threshold()
    gc.set_threshold(50_000, *thresholds[1:])
    yield
    gc.set_threshold(*thresholds)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ fixtures from the current code "
        "instead of diffing against them",
    )


class TxFactory:
    """Deterministic transaction factory for unit tests."""

    def __init__(self, namespace: str = "test") -> None:
        self._builder = TransactionBuilder(namespace=namespace)
        self._counter = 0

    def tx(
        self,
        fee: int = 1000,
        vsize: int = 250,
        to_address: str = "addr-x",
        parents: tuple[str, ...] = (),
        value: int = 100_000,
        nonce: int = 0,
    ) -> Transaction:
        self._counter += 1
        return self._builder.build(
            to_address=to_address,
            value=value,
            fee=fee,
            vsize=vsize,
            extra_parents=list(parents),
            nonce=nonce * 1_000_003 + self._counter,
        )

    def entry(
        self,
        fee: int = 1000,
        vsize: int = 250,
        arrival: float = 0.0,
        **kwargs,
    ) -> MempoolEntry:
        return MempoolEntry(tx=self.tx(fee=fee, vsize=vsize, **kwargs), arrival_time=arrival)


@pytest.fixture
def txf() -> TxFactory:
    return TxFactory()


def make_test_block(
    transactions,
    height: int = 0,
    prev_hash: str = GENESIS_HASH,
    timestamp: float = 0.0,
    marker: str = "/TestPool/",
) -> Block:
    """Assemble a block around pre-built transactions."""
    coinbase = make_coinbase(
        reward_address="pool-reward",
        value=50 * 100_000_000,
        marker=marker,
        height=height,
    )
    return build_block(
        height=height,
        prev_hash=prev_hash,
        timestamp=timestamp,
        coinbase=coinbase,
        transactions=list(transactions),
    )


@pytest.fixture
def block_factory():
    return make_test_block


# ----------------------------------------------------------------------
# Scaled-down scenario datasets, built once per test session.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def small_dataset_a():
    return build_dataset_a(scale=0.06)


@pytest.fixture(scope="session")
def small_dataset_b():
    return build_dataset_b(scale=0.06)


@pytest.fixture(scope="session")
def small_dataset_c():
    return build_dataset_c(scale=0.08)
