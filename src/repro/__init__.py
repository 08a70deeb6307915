"""repro — reproduction of Messias et al., "Selfish & Opaque Transaction
Ordering in the Bitcoin Blockchain: The Case for Chain Neutrality"
(ACM IMC 2021).

The package has two halves:

* a Bitcoin measurement *substrate* — chain data model, mempool
  snapshots, mining pools with pluggable (mis)ordering policies, and a
  deterministic simulator that regenerates analogues of the paper's
  datasets A, B and C (the evented P2P mesh and per-tx loop the tests
  check it against live in :mod:`repro.reference`);
* the paper's *audit toolkit* — PPE/SPPE position metrics, pairwise
  norm-violation detection, binomial differential-prioritization tests,
  and the dark-fee (accelerated transaction) detector.

Quickstart::

    from repro import Auditor, build_dataset_c

    dataset = build_dataset_c(scale=0.1)
    auditor = Auditor(dataset)
    print(auditor.ppe_summary())
    for row in auditor.self_interest_table():
        if row.test.accelerates():
            print(f"{row.target_pool} accelerates {row.owner_pool}")
"""

from .core import (
    Auditor,
    CpfpFilter,
    DetectionReport,
    NormBasedFeeEstimator,
    PrioritizationTestResult,
    ScamRow,
    SelfInterestRow,
    block_ppe,
    chain_ppe,
    detection_sweep,
    prioritization_test,
    sppe,
)
from .datasets import (
    Dataset,
    TxRecord,
    build_dataset_a,
    build_dataset_b,
    build_dataset_c,
    load_dataset,
    save_dataset,
)
from .simulation import (
    Scenario,
    dataset_a_scenario,
    dataset_b_scenario,
    dataset_c_scenario,
    honest_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "Auditor",
    "CpfpFilter",
    "DetectionReport",
    "NormBasedFeeEstimator",
    "PrioritizationTestResult",
    "ScamRow",
    "SelfInterestRow",
    "block_ppe",
    "chain_ppe",
    "detection_sweep",
    "prioritization_test",
    "sppe",
    "Dataset",
    "TxRecord",
    "build_dataset_a",
    "build_dataset_b",
    "build_dataset_c",
    "load_dataset",
    "save_dataset",
    "Scenario",
    "dataset_a_scenario",
    "dataset_b_scenario",
    "dataset_c_scenario",
    "honest_scenario",
    "__version__",
]
