"""repro.obs — observability and self-checks for the substrate.

Two halves, both zero-dependency and off by default:

* **metrics/tracing** (:mod:`repro.obs.registry`): process-local
  counters, gauges, and timed spans threaded through the mempool,
  engine, GBT, runner, and dataset-cache hot paths.  Enabled via
  ``REPRO_AUDIT_TRACE=1`` or ``repro-audit run --trace``; rendered by
  ``repro-audit obs``.
* **invariant checking** (:mod:`repro.obs.invariants`): recompute-and-
  compare contracts on the mempool and engine state machines, enabled
  via ``REPRO_AUDIT_CHECK=1`` and always-on under pytest.

Usage from instrumented modules::

    from .. import obs

    obs.counter("mempool.rbf_replacements")
    with obs.span("engine.mine_block"):
        ...
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

import os

from .invariants import (
    CHECK_ENV,
    InvariantViolation,
    force,
    invariants_enabled,
)
from .registry import (
    SNAPSHOT_VERSION,
    TRACE_ENV,
    ObsRegistry,
    delta,
    render_report,
)

#: The process-wide registry every instrumented module records into.
_REGISTRY = ObsRegistry()


def is_enabled() -> bool:
    return _REGISTRY.enabled


def enable(reset: bool = False) -> None:
    """Turn tracing on (also for child processes, via the environment)."""
    if reset:
        _REGISTRY.reset()
    _REGISTRY.enabled = True
    os.environ[TRACE_ENV] = "1"


def disable() -> None:
    _REGISTRY.enabled = False
    os.environ.pop(TRACE_ENV, None)


@contextmanager
def tracing(reset: bool = False) -> Iterator[ObsRegistry]:
    """Enable tracing for a block, restoring the previous state after."""
    was_enabled = _REGISTRY.enabled
    had_env = os.environ.get(TRACE_ENV)
    enable(reset=reset)
    try:
        yield _REGISTRY
    finally:
        if not was_enabled:
            _REGISTRY.enabled = False
        if had_env is None:
            os.environ.pop(TRACE_ENV, None)
        else:
            os.environ[TRACE_ENV] = had_env


def counter(name: str, value: int = 1) -> None:
    _REGISTRY.counter(name, value)


def gauge(name: str, value: float) -> None:
    _REGISTRY.gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    _REGISTRY.gauge_max(name, value)


def span(name: str):
    return _REGISTRY.span(name)


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def reset() -> None:
    _REGISTRY.reset()


def merge(snap: Optional[dict]) -> None:
    if snap:
        _REGISTRY.merge(snap)


__all__ = [
    "CHECK_ENV",
    "InvariantViolation",
    "ObsRegistry",
    "SNAPSHOT_VERSION",
    "TRACE_ENV",
    "counter",
    "delta",
    "disable",
    "enable",
    "force",
    "gauge",
    "gauge_max",
    "invariants_enabled",
    "is_enabled",
    "merge",
    "render_report",
    "reset",
    "snapshot",
    "span",
    "tracing",
]
