"""Reference substrates: the differential oracles the tests run.

Every dataset the program builds comes from the engine's vectorized
fast path (:mod:`repro.simulation.fast`).  The modules here produce
blocks and observer mempools the slow, obviously faithful way, so the
tests can check the fast path against them:

* :mod:`~repro.reference.per_tx` — the engine's per-tx block-production
  loop, selected by ``SimulationEngine.run(plan, scalar=True)``;
* :mod:`~repro.reference.evented` — whole scenarios over an evented P2P
  mesh (:mod:`~repro.reference.events`, :mod:`~repro.reference.latency`,
  :mod:`~repro.reference.node`, :mod:`~repro.reference.p2p`; the mesh
  is built with ``networkx``);
* :mod:`~repro.reference.mempool` — the stateful node mempool (RBF,
  size cap, expiry) and its snapshot recorder.

Production modules do not import this package; the one exception is
the ``scalar`` branch of ``SimulationEngine._run``, which imports
:func:`~repro.reference.per_tx.produce_per_tx` inside the function
(``tests/test_reference_wall.py``).  This file imports nothing, so that
branch does not load the evented substrate.
"""
