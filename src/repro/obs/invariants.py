"""Invariant contracts: self-checks on the hot-path state machines.

The audit is only as trustworthy as the substrate's bookkeeping — a
drifting ``total_vsize`` silently skews every congestion bin, and a
confirmed transaction lingering in the pending set corrupts the very
commit positions the PPE/SPPE metrics rank.  This module holds the
*gate* (``REPRO_AUDIT_CHECK=1``, or :func:`force`, which the test
suite's conftest uses to keep checks always-on under pytest) and the
error type every check raises.

The checks themselves live with the state they check: the engine's
snapshot-totals check (:mod:`repro.simulation.engine`), the fast
path's block-state mirror (:mod:`repro.simulation.fast`), and, in the
reference substrates, ``Mempool.check_invariants`` and
``check_engine_block_state`` (:mod:`repro.reference`).  Violations
raise :class:`InvariantViolation` — a subclass of ``AssertionError``,
because a violated invariant is a programming error, never an input
error.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment switch: set to 1 to run invariant checks in any process.
CHECK_ENV = "REPRO_AUDIT_CHECK"

#: Programmatic override (tests): True/False wins over the environment.
_FORCED: Optional[bool] = None


class InvariantViolation(AssertionError):
    """Internal bookkeeping diverged from recomputed ground truth."""


def invariants_enabled() -> bool:
    """True when state machines should self-check after mutations."""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(CHECK_ENV, "") not in ("", "0")


def force(value: Optional[bool]) -> None:
    """Override the environment gate (None restores env behaviour)."""
    global _FORCED
    _FORCED = value

