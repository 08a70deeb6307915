"""How datasets treat the cyclic garbage collector.

A dataset is millions of small, long-lived, mostly acyclic objects.
Allocating them with the collector on sets off repeated full
collections over the whole graph, and once they exist every later full
collection (including the final ones at interpreter shutdown) walks
them again.  Neither pass finds garbage: the objects live as long as
the process holds the dataset.

The policy is one context manager: decoding, building or serialising a
dataset runs with the collector paused, and a dataset the process keeps
for its whole life is *frozen* on the way out (:func:`gc.freeze` moves
every object tracked at that moment into the permanent generation,
which no collection visits).  :func:`~repro.datasets.builder.clear_memory_cache`
undoes the freeze.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused(freeze: bool = False) -> Iterator[None]:
    """Hold off the cyclic garbage collector for the enclosed block.

    With ``freeze``, a block that completes also freezes every object
    tracked at that point, so later collections skip what it made.  A
    full collection runs first, so the freeze does not also pin the
    cyclic garbage alive on entry; it walks only what earlier freezes
    left out, which in a fresh process is little more than the imported
    modules.  The collector's enabled state is restored either way,
    also when the block raises.
    """
    enabled = gc.isenabled()
    if freeze:
        gc.collect()
    gc.disable()
    try:
        yield
        if freeze:
            gc.freeze()
    finally:
        if enabled:
            gc.enable()
