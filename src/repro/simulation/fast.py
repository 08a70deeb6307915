"""repro.simulation.fast — the engine's vectorized production hot path.

The scalar loop in :mod:`repro.reference.per_tx` admits one planned
transaction at a time into python dicts and rebuilds every block
template from freshly materialised :class:`MempoolEntry` lists.  That
is the *oracle*: small, obviously faithful to the model, and selected
by ``SimulationEngine.run(plan, scalar=True)``.  This module is the
fast path the engine dispatches to by default, and its contract is
strict:

**byte-identical datasets.**  Not "statistically equivalent" — the
serialized output of a scenario run must not change by a single byte
when the fast path is on (``tests/test_engine_oracle.py`` enforces
this on the reference datasets, including fault-degraded and
misbehaving-policy cells).  Three properties make that tractable:

* *Identical RNG consumption.*  The production loop draws from exactly
  two sources — one empty-block uniform per discovery, and one jitter
  vector per noisy template longer than two entries — and both draws
  are made by shared code (``mining_rng`` here,
  :func:`~repro.mining.policies.perturb_template_order` for jitter),
  so stream positions line up draw for draw.
* *Exact ordering keys.*  All ranking goes through
  :func:`repro.mempool.feerate.fee_rate_rank`.  Vectorized sorts use
  the float64 fee-rate first — float order is a *coarsening* of exact
  rational order, never an inversion — and then re-sorts equal-float
  runs with the integer ranks, so candidate order matches the scalar
  comparison exactly even for rationals that collide in float64.
* *Batching only where order provably cannot matter.*  Admission is
  batched per inter-block epoch, but only for transactions that spend
  uncontested outpoints and request no acceleration: those can neither
  conflict with the chain, displace an incumbent, nor be rejected, so
  admitting them with one slice assignment is order-equivalent to the
  scalar per-transaction walk.  Everything else ("special"
  transactions) runs through a verbatim port of the scalar admission
  logic, interleaved at its exact plan position.

Layout: one :class:`PlanArrays` per run packs fees/vsizes/fee-rates
into NumPy arrays with a CSR encoding of in-plan parent links; pending
and committed state are boolean flag arrays; per-block eligibility is
a vector compare plus a ``reduceat`` parent-closure fixpoint; and each
pool's policy stack is compiled (:func:`compile_policy`) into array
programs that pattern-match the introspectable policy/predicate
dataclasses.  Policies that do not compile fall back to materialising
entries and calling the scalar ``policy.build`` — still byte-identical
because the candidate order is the same.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .. import obs
from ..chain.blockchain import Blockchain
from ..mempool.feerate import fee_rate_rank
from ..mempool.mempool import MempoolEntry
from ..mining.gbt import BlockTemplate, _check_budget
from ..mining.policies import (
    AddressPredicate,
    AnyOfPredicate,
    CensorPolicy,
    FeeRatePolicy,
    MinFeeRatePolicy,
    NoisyPolicy,
    PrioritizeSetPolicy,
    TxidSetPredicate,
    perturb_template_order,
)
from ..obs.invariants import InvariantViolation
from .workload import PlannedTx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SimulationEngine

_EMPTY = np.empty(0, dtype=np.int64)


class PlanArrays:
    """Columnar view of a (time-sorted) workload plan.

    Built once per run; everything the per-block loop touches often is
    either a NumPy array indexed by plan position or a plain python
    list (python lists beat NumPy scalar indexing inside the remaining
    python loops).
    """

    def __init__(self, plan: Sequence[PlannedTx]) -> None:
        self.plan = list(plan)
        count = len(self.plan)
        self.count = count
        self.txs = [p.tx for p in self.plan]
        self.txids = [tx.txid for tx in self.txs]
        self.txid_index = {txid: i for i, txid in enumerate(self.txids)}
        self.fees = [tx.fee for tx in self.txs]
        self.vsizes = [tx.vsize for tx in self.txs]
        self.fees_arr = np.asarray(self.fees, dtype=np.int64)
        self.vsizes_arr = np.asarray(self.vsizes, dtype=np.int64)
        # Float64 fee-rates: the same IEEE division the scalar
        # ``entry.fee_rate`` performs, used for coarse sorting and the
        # MinFeeRatePolicy floor compare.
        self.rates = self.fees_arr / self.vsizes_arr
        # Exact integer ranks (python ints), for tie refinement and the
        # ancestor-package heap keys; negations are precomputed because
        # bigint negation allocates and the merged-stream loop indexes
        # these per block.
        self.ranks = [fee_rate_rank(f, v) for f, v in zip(self.fees, self.vsizes)]
        self.neg_ranks = [-r for r in self.ranks]
        # Integer stand-in for the txid tie-break: the rank of the txid
        # in lexicographic order sorts identically to the string
        # (NumPy unicode comparison is code-point order, same as str).
        order = np.argsort(np.array(self.txids))
        txid_order = np.empty(count, dtype=np.int64)
        txid_order[order] = np.arange(count, dtype=np.int64)
        self.txid_order = txid_order
        # Plan indices in txid order; a stable sort of any key applied
        # over this base yields (key, txid) lexicographic order with a
        # single sort pass instead of a two-key lexsort.
        self.txid_sorted = order

        # CSR encoding of in-plan parent links (children only), plus
        # txid-keyed children for eviction cascades (mirrors the scalar
        # engine's ``plan_children``), built in one pass.
        child_idx: list[int] = []
        parent_flat: list[int] = []
        offsets = [0]
        parents_of: dict[int, tuple[int, ...]] = {}
        plan_children: dict[str, list[str]] = {}
        tidx = self.txid_index
        txids = self.txids
        for i, tx in enumerate(self.txs):
            ps = [tidx[p] for p in tx.parent_txids if p in tidx]
            if ps:
                child_idx.append(i)
                parent_flat.extend(ps)
                offsets.append(len(parent_flat))
                parents_of[i] = tuple(ps)
                txid = txids[i]
                for p in ps:
                    plan_children.setdefault(txids[p], []).append(txid)
        self.child_idx = np.asarray(child_idx, dtype=np.int64)
        self.parent_flat = np.asarray(parent_flat, dtype=np.int64)
        self.parent_offsets = np.asarray(offsets, dtype=np.int64)
        self.parents_of = parents_of
        self.plan_children = plan_children

        # Contested outpoints: spent by two or more plan transactions.
        # Only these can produce chain conflicts or RBF displacement,
        # so only their spenders need the scalar admission walk.
        # Specials (contested spenders + accelerated txs) fall out of
        # the same pass: when a second spender of a prevout shows up,
        # it and the recorded first spender are both marked.
        first_spender: dict[object, int] = {}
        contested: set = set()
        special = np.zeros(count, dtype=bool)
        for i, planned in enumerate(self.plan):
            if planned.accelerate_via is not None:
                special[i] = True
            for txin in planned.tx.inputs:
                prevout = txin.prevout
                j = first_spender.setdefault(prevout, i)
                if j != i:
                    contested.add(prevout)
                    special[i] = True
                    special[j] = True
        self.contested = contested
        self.is_special = special
        self.special_indices = np.flatnonzero(special).tolist()
        # address → plan rows whose outputs pay it, restricted to the
        # addresses predicates actually ask about (indexing every
        # output would cost as much as the scans it replaces).
        self._address_rows: dict[str, list[int]] = {}
        self._address_scanned: set = set()

    def address_rows(self, addresses) -> dict[str, list[int]]:
        """Rows paying each of ``addresses``; scans once per new set.

        ``produce_fast`` primes this with the union of every compiled
        address predicate so all of them share a single output pass.
        """
        rows = self._address_rows
        missing = set(addresses) - self._address_scanned
        if missing:
            for i, tx in enumerate(self.txs):
                for txout in tx.outputs:
                    if txout.address in missing:
                        rows.setdefault(txout.address, []).append(i)
            self._address_scanned |= missing
        return rows



# ----------------------------------------------------------------------
# Exact candidate ordering
# ----------------------------------------------------------------------
def _exact_order(
    pa: PlanArrays, tie: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """``cand`` sorted by the scalar key (-rank, arrival, txid), exactly.

    ``tie`` is the pool's static tie-rank: the rank of each plan index
    under (arrival, txid) lexicographic order.  Arrivals are fixed per
    pool for the whole run, so the scalar two-component tie-break
    collapses to one integer comparison.

    A float64 lexsort does the bulk of the work; because float division
    is monotone, distinct rationals can *merge* into one float but can
    never swap, so only equal-float runs need the exact integer ranks —
    and only runs containing two different (fee, vsize) pairs at that
    (component-wise identical pairs are the same rational a fortiori).
    """
    if cand.size <= 1:
        return cand
    rates = pa.rates[cand]
    order = np.lexsort((tie[cand], -rates))
    out = cand[order]
    srates = rates[order]
    same = srates[1:] == srates[:-1]
    if not same.any():
        return out
    f = pa.fees_arr[out]
    v = pa.vsizes_arr[out]
    suspect = same & ((f[1:] != f[:-1]) | (v[1:] != v[:-1]))
    pos = np.flatnonzero(suspect)
    if pos.size == 0:
        return out
    run_start = np.flatnonzero(np.concatenate(([True], ~same)))
    ranks = pa.ranks
    n = out.size
    done: set[int] = set()
    for p in pos.tolist():
        start = int(run_start[np.searchsorted(run_start, p, side="right") - 1])
        if start in done:
            continue
        done.add(start)
        end = start + 1
        while end < n and same[end - 1]:
            end += 1
        group = out[start:end].tolist()
        group.sort(key=lambda g: (-ranks[g], tie[g]))
        out[start:end] = group
    return out


def _greedy_fill(
    pa: PlanArrays, order: np.ndarray, budget: int
) -> tuple[list[int], int, int]:
    """Greedy skip-and-continue fill over pre-sorted candidates.

    The prefix that fits contiguously is taken with one cumsum +
    searchsorted; the tail falls back to the scalar walk with a
    suffix-min early exit (once nothing remaining can fit, every
    further scalar iteration is a skip, so stopping is
    output-equivalent).
    """
    chosen: list[int] = []
    used = 0
    fee = 0
    if order.size == 0:
        return chosen, fee, used
    vs = pa.vsizes_arr[order]
    cum = np.cumsum(vs)
    k = int(np.searchsorted(cum, budget, side="right"))
    if k:
        chosen.extend(order[:k].tolist())
        used = int(cum[k - 1])
        fee = int(pa.fees_arr[order[:k]].sum())
    if k < order.size:
        tail = order[k:].tolist()
        sufmin = np.minimum.accumulate(vs[k:][::-1])[::-1].tolist()
        vlist = pa.vsizes
        flist = pa.fees
        for t, i in enumerate(tail):
            if budget - used < sufmin[t]:
                break
            v = vlist[i]
            if used + v <= budget:
                chosen.append(i)
                used += v
                fee += flist[i]
    return chosen, fee, used


def _ancestor_fill(
    pa: PlanArrays,
    tie: np.ndarray,
    cand: np.ndarray,
    order: np.ndarray,
    budget: int,
) -> tuple[list[int], int, int]:
    """Ancestor-package selection replicating the scalar heap exactly.

    The scalar builder pushes every entry keyed by package rank and
    lazily rescores stale pops.  Since keys are unique (txid is the
    final component), pop order is a pure function of the stored keys —
    so singletons, whose keys never change, can stream from the
    pre-sorted ``order`` while only complex packages (one or more
    in-layer ancestors) live in a real heap.  The merged consumption
    reproduces the scalar pop sequence decision for decision.
    """
    count = pa.count
    in_layer = np.zeros(count, dtype=bool)
    in_layer[cand] = True

    child_idx = pa.child_idx
    if child_idx.size:
        # Restrict every edge-sized pass to candidate children first:
        # mid-simulation most of the plan is committed or not yet
        # broadcast, so eligible rows are a small slice of the global
        # parent table.
        rows = np.flatnonzero(in_layer[child_idx])
    else:
        rows = _EMPTY
    if rows.size:
        starts = pa.parent_offsets[rows]
        lens = pa.parent_offsets[rows + 1] - starts
        cum = np.cumsum(lens)
        # Ragged gather of the candidate rows' edges out of the CSR.
        pos = np.repeat(starts - cum + lens, lens) + np.arange(int(cum[-1]))
        sub_parents = pa.parent_flat[pos]
        sub_off = cum - lens
        pmask = in_layer[sub_parents]
        has_parent = np.logical_or.reduceat(pmask, sub_off)
    else:
        has_parent = np.zeros(0, dtype=bool)

    if not has_parent.any():
        # No packages in this layer: ancestor selection degenerates to
        # the greedy fill (identical pop order and skip semantics).
        return _greedy_fill(pa, order, budget)

    complex_plan = child_idx[rows[has_parent]]
    complex_mask = np.zeros(count, dtype=bool)
    complex_mask[complex_plan] = True
    layer_b = in_layer.view(np.uint8).tobytes()

    # Initial package sums, vectorized over in-layer parents.  For
    # *shallow* packages (no in-layer parent is itself complex) the
    # ancestor set is exactly the in-layer parent set, which is also
    # duplicate-free; deep chains take the memoised python walk.
    edge_keep = np.repeat(has_parent, lens)
    c_parents = sub_parents[edge_keep]
    c_pm = pmask[edge_keep]
    c_lens = lens[has_parent]
    c_off = np.cumsum(c_lens) - c_lens
    deep_adj = c_pm & complex_mask[c_parents]
    deep_rows = np.logical_or.reduceat(deep_adj, c_off)
    pkg_f_arr = pa.fees_arr[complex_plan] + np.add.reduceat(
        np.where(c_pm, pa.fees_arr[c_parents], 0), c_off
    )
    pkg_v_arr = pa.vsizes_arr[complex_plan] + np.add.reduceat(
        np.where(c_pm, pa.vsizes_arr[c_parents], 0), c_off
    )

    anc_cache: dict[int, frozenset[int]] = {}
    parents_of = pa.parents_of

    def ancestors_walk(i: int) -> frozenset[int]:
        """Full in-layer ancestor closure (deep chains only)."""
        cached = anc_cache.get(i)
        if cached is not None:
            return cached
        stack = [i]
        while stack:
            cur = stack[-1]
            ps = [p for p in parents_of.get(cur, ()) if layer_b[p]]
            missing = [p for p in ps if p not in anc_cache]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if cur in anc_cache:
                continue
            acc: set[int] = set()
            for p in ps:
                acc.add(p)
                acc.update(anc_cache[p])
            anc_cache[cur] = frozenset(acc)
        return anc_cache[i]

    fees = pa.fees
    vsizes = pa.vsizes
    txids = pa.txids

    deep_set: set[int] = set()
    deep_pos = np.flatnonzero(deep_rows)
    for k in deep_pos.tolist():
        i = int(complex_plan[k])
        deep_set.add(i)
        a = ancestors_walk(i)
        pkg_f_arr[k] = fees[i] + sum(fees[t] for t in a)
        pkg_v_arr[k] = vsizes[i] + sum(vsizes[t] for t in a)

    # The complex entries stream from a pre-sorted list instead of all
    # being materialised into the heap: exact big-int keys are computed
    # lazily as entries reach the comparison window, so packages the
    # budget never reaches cost one float lexsort slot and nothing
    # more.  The same float-coarsening argument as `_exact_order`
    # applies; equal-float runs are refined with exact package ranks.
    neg_pkg_rates = -(pkg_f_arr / pkg_v_arr)
    c_tie = tie[complex_plan]
    corder = np.lexsort((c_tie, neg_pkg_rates))
    srates = neg_pkg_rates[corder]
    same = srates[1:] == srates[:-1]
    if same.any():
        f_s = pkg_f_arr[corder]
        v_s = pkg_v_arr[corder]
        suspect = same & ((f_s[1:] != f_s[:-1]) | (v_s[1:] != v_s[:-1]))
        pos = np.flatnonzero(suspect)
        if pos.size:
            run_start = np.flatnonzero(np.concatenate(([True], ~same)))
            n_c = corder.size
            done: set[int] = set()
            for p in pos.tolist():
                start = int(run_start[np.searchsorted(run_start, p, side="right") - 1])
                if start in done:
                    continue
                done.add(start)
                end = start + 1
                while end < n_c and same[end - 1]:
                    end += 1
                seg = corder[start:end].tolist()
                seg.sort(
                    key=lambda k: (
                        -fee_rate_rank(int(pkg_f_arr[k]), int(pkg_v_arr[k])),
                        c_tie[k],
                    )
                )
                corder[start:end] = seg
    cstream = complex_plan[corder].tolist()
    cstream_f = pkg_f_arr[corder].tolist()
    cstream_v = pkg_v_arr[corder].tolist()
    cstream_t = c_tie[corder].tolist()
    cstream_r = neg_pkg_rates[corder].tolist()
    n_complex = len(cstream)
    min_complex_own = int(pa.vsizes_arr[complex_plan].min())

    singles_arr = order[~complex_mask[order]]
    singles_list = singles_arr.tolist()
    n_singles = len(singles_list)
    if n_singles:
        svs = pa.vsizes_arr[singles_arr]
        sufmin_singles = np.minimum.accumulate(svs[::-1])[::-1].tolist()
    else:
        sufmin_singles = []
    neg_ranks = pa.neg_ranks
    # Coarse float keys for the singles stream: bisecting on these is
    # cheap, and the monotone-coarsening argument bounds the error to
    # the equal-float run at the boundary, which is refined exactly.
    fneg = (-pa.rates[singles_arr]).tolist()
    stie = tie[singles_arr].tolist()

    sel_b = bytearray(count)
    sel_np = np.frombuffer(sel_b, dtype=np.uint8)
    chosen: list[int] = []
    used = 0
    fee = 0
    sp = 0
    cp = 0
    # Exact neg rank of the current stream head, computed lazily.
    chead_rank: Optional[int] = None
    # Rescored entries go to a real heap; everything else streams.
    # Keys are (exact neg rank, tie rank, plan index, float neg rate);
    # tie ranks are unique, so the trailing components never compare.
    heap: list[tuple[int, int, int, float]] = []

    def package_members(i: int) -> list[int]:
        """Unselected in-layer ancestors of ``i`` (excluding ``i``)."""
        if i in deep_set:
            return [t for t in ancestors_walk(i) if not sel_b[t]]
        return [p for p in parents_of[i] if layer_b[p] and not sel_b[p]]

    def anc_len(t: int) -> int:
        if not complex_mask[t]:
            return 0
        if t in deep_set:
            return len(ancestors_walk(t))
        count_in = 0
        for p in parents_of[t]:
            if layer_b[p]:
                count_in += 1
        return count_in

    while True:
        # Effective complex head: min of the rescore heap and the
        # stream (skipping stream entries selected as members of other
        # packages, as the scalar pop loop does).  The head's exact
        # big-int rank is computed only when a float comparison cannot
        # settle the order: most stream heads never need one.
        while cp < n_complex and sel_b[cstream[cp]]:
            cp += 1
            chead_rank = None
        has_stream = cp < n_complex
        if heap:
            if has_stream:
                if chead_rank is None:
                    chead_rank = -fee_rate_rank(cstream_f[cp], cstream_v[cp])
                # 4-tuple vs 2-tuple: tie ranks are unique, so the
                # comparison always resolves by the first two slots.
                from_heap = heap[0] < (chead_rank, cstream_t[cp])
            else:
                from_heap = True
        else:
            from_heap = False
        if from_heap:
            ctop_rank, ctop_tie, _, ctop_f = heap[0]
        elif has_stream:
            ctop_f = cstream_r[cp]
            ctop_tie = cstream_t[cp]
            ctop_rank = chead_rank  # possibly None (lazy)
        else:
            ctop_f = None
        if sp < n_singles:
            # All singles strictly outranking every stored complex key
            # pop before any complex entry in the scalar sequence
            # (stored keys only change when a complex entry pops).
            # The float bisect lands inside the boundary's equal-float
            # run; only that run needs the exact big-int ranks.
            if ctop_f is not None:
                cut = bisect_left(fneg, ctop_f, sp)
                if cut < n_singles and fneg[cut] == ctop_f:
                    if ctop_rank is None:
                        chead_rank = ctop_rank = -fee_rate_rank(
                            cstream_f[cp], cstream_v[cp]
                        )
                    while (
                        cut < n_singles
                        and fneg[cut] == ctop_f
                        and neg_ranks[singles_list[cut]] < ctop_rank
                    ):
                        cut += 1
            else:
                cut = n_singles
            if 0 < cut - sp <= 32:
                # Short runs between complex pops: plain python beats
                # the fixed overhead of the array path.
                for i_s in singles_list[sp:cut]:
                    if sel_b[i_s]:
                        continue
                    v = vsizes[i_s]
                    if used + v <= budget:
                        sel_b[i_s] = 1
                        chosen.append(i_s)
                        used += v
                        fee += fees[i_s]
                sp = cut
                continue
            if cut > sp:
                group = singles_arr[sp:cut]
                unsel = group[sel_np[group] == 0]
                if unsel.size:
                    rem = budget - used
                    tot = int(pa.vsizes_arr[unsel].sum())
                    if tot <= rem:
                        sel_np[unsel] = 1
                        chosen.extend(unsel.tolist())
                        used += tot
                        fee += int(pa.fees_arr[unsel].sum())
                    else:
                        # Block-filling regime: scalar walk with skips.
                        for i_s in unsel.tolist():
                            v = vsizes[i_s]
                            if used + v <= budget:
                                sel_b[i_s] = 1
                                chosen.append(i_s)
                                used += v
                                fee += fees[i_s]
                sp = cut
                continue
            i_s = singles_list[sp]
            if sel_b[i_s]:
                sp += 1
                continue
            if ctop_f is not None and fneg[sp] == ctop_f:
                # Equal-float boundary: refine exactly, settling equal
                # exact ranks by the tie rank (floats strictly above
                # ctop_f mean the single pops later — no exact needed).
                if ctop_rank is None:
                    chead_rank = ctop_rank = -fee_rate_rank(
                        cstream_f[cp], cstream_v[cp]
                    )
                if (neg_ranks[i_s], stie[sp]) < (ctop_rank, ctop_tie):
                    sp += 1
                    v = vsizes[i_s]
                    if used + v <= budget:
                        sel_b[i_s] = 1
                        chosen.append(i_s)
                        used += v
                        fee += fees[i_s]
                    continue
        if ctop_f is None:
            break
        rem = budget - used
        smin = sufmin_singles[sp] if sp < n_singles else None
        if rem < min_complex_own and (smin is None or rem < smin):
            # Nothing pending or future can fit: every remaining scalar
            # pop is a skip or a doomed rescore, so the fill is final.
            break
        if from_heap:
            neg_rank, tie_i, i, _ = heapq.heappop(heap)
            if sel_b[i]:
                continue
            members = package_members(i)
            pkg_f = fees[i]
            pkg_v = vsizes[i]
            for t in members:
                pkg_f += fees[t]
                pkg_v += vsizes[t]
            cur_key = -fee_rate_rank(pkg_f, pkg_v)
            if cur_key != neg_rank:
                obs.counter("gbt.packages.rescored")
                heapq.heappush(heap, (cur_key, tie_i, i, -(pkg_f / pkg_v)))
                continue
        else:
            i = cstream[cp]
            tie_i = cstream_t[cp]
            stored_f = cstream_f[cp]
            stored_v = cstream_v[cp]
            stored_rank = chead_rank  # possibly still None
            cp += 1
            chead_rank = None
            members = package_members(i)
            pkg_f = fees[i]
            pkg_v = vsizes[i]
            for t in members:
                pkg_f += fees[t]
                pkg_v += vsizes[t]
            if pkg_f != stored_f or pkg_v != stored_v:
                # Pair-equal packages share a rank a fortiori; only a
                # changed pair needs the exact ranks to decide whether
                # the scalar pop rescores.
                if stored_rank is None:
                    stored_rank = -fee_rate_rank(stored_f, stored_v)
                cur_key = -fee_rate_rank(pkg_f, pkg_v)
                if cur_key != stored_rank:
                    obs.counter("gbt.packages.rescored")
                    heapq.heappush(heap, (cur_key, tie_i, i, -(pkg_f / pkg_v)))
                    continue
        if used + pkg_v > budget:
            continue
        members.append(i)
        members.sort(key=lambda t: (anc_len(t), txids[t]))
        for t in members:
            sel_b[t] = 1
            chosen.append(t)
        used += pkg_v
        fee += pkg_f
    return chosen, fee, used


# ----------------------------------------------------------------------
# Policy compiler
# ----------------------------------------------------------------------
class _CompiledTxidSet:
    __slots__ = ("txids_fn",)

    def __init__(self, txids_fn) -> None:
        self.txids_fn = txids_fn

    def mask(self, pa: PlanArrays, arrivals: np.ndarray, cand: np.ndarray) -> np.ndarray:
        live = self.txids_fn()
        if not live:
            return np.zeros(cand.size, dtype=bool)
        tidx = pa.txid_index
        hits = [tidx[t] for t in live if t in tidx]
        mask = np.zeros(pa.count, dtype=bool)
        mask[hits] = True
        return mask[cand]


class _CompiledAddress:
    __slots__ = ("addresses", "_mask")

    def __init__(self, addresses: frozenset[str]) -> None:
        self.addresses = addresses
        self._mask: Optional[np.ndarray] = None

    def mask(self, pa: PlanArrays, arrivals: np.ndarray, cand: np.ndarray) -> np.ndarray:
        if self._mask is None:
            # Same semantics as ``touches_address`` (outputs only),
            # via the plan's shared address → rows map.
            rows = pa.address_rows(self.addresses)
            mask = np.zeros(pa.count, dtype=bool)
            for address in self.addresses:
                hits = rows.get(address)
                if hits:
                    mask[hits] = True
            self._mask = mask
        return self._mask[cand]


class _CompiledAnyOf:
    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        self.parts = parts

    def mask(self, pa: PlanArrays, arrivals: np.ndarray, cand: np.ndarray) -> np.ndarray:
        mask = self.parts[0].mask(pa, arrivals, cand)
        for part in self.parts[1:]:
            mask = mask | part.mask(pa, arrivals, cand)
        return mask


def compile_predicate(predicate):
    """Compile an entry predicate to a vector mask, or None."""
    if isinstance(predicate, TxidSetPredicate):
        return _CompiledTxidSet(predicate.txids)
    if isinstance(predicate, AddressPredicate) and predicate.resolver is None:
        # touches_address checks outputs only, which the static
        # address index covers; a resolver needs chain context.
        return _CompiledAddress(predicate.addresses)
    if isinstance(predicate, AnyOfPredicate):
        parts = [compile_predicate(p) for p in predicate.predicates]
        if parts and all(part is not None for part in parts):
            return _CompiledAnyOf(tuple(parts))
    return None


class _CompiledFeeRate:
    __slots__ = ("package",)

    def __init__(self, package: bool) -> None:
        self.package = package

    def build(self, pa, arrivals, tie, cand, max_vsize, reserved_vsize):
        budget = _check_budget(max_vsize, reserved_vsize)
        order = _exact_order(pa, tie, cand)
        if self.package:
            with obs.span("gbt.ancestor_template"):
                chosen, fee, used = _ancestor_fill(pa, tie, cand, order, budget)
            obs.counter("gbt.templates.ancestor")
        else:
            with obs.span("gbt.greedy_template"):
                chosen, fee, used = _greedy_fill(pa, order, budget)
            obs.counter("gbt.templates.greedy")
        obs.counter("gbt.txs.selected", len(chosen))
        txs = pa.txs
        return [txs[i] for i in chosen], fee, used


class _CompiledMinFee:
    __slots__ = ("floor", "base")

    def __init__(self, floor: float, base) -> None:
        self.floor = floor
        self.base = base

    def build(self, pa, arrivals, tie, cand, max_vsize, reserved_vsize):
        if cand.size:
            cand = cand[pa.rates[cand] >= self.floor]
        return self.base.build(pa, arrivals, tie, cand, max_vsize, reserved_vsize)


class _CompiledNoisy:
    __slots__ = ("source", "jitter", "base")

    def __init__(self, source, jitter: float, base) -> None:
        self.source = source
        self.jitter = jitter
        self.base = base

    def build(self, pa, arrivals, tie, cand, max_vsize, reserved_vsize):
        txs, fee, used = self.base.build(
            pa, arrivals, tie, cand, max_vsize, reserved_vsize
        )
        txs = perturb_template_order(txs, self.source.rng, self.jitter)
        return txs, fee, used


class _CompiledCensor:
    __slots__ = ("banned", "base")

    def __init__(self, banned, base) -> None:
        self.banned = banned
        self.base = base

    def build(self, pa, arrivals, tie, cand, max_vsize, reserved_vsize):
        if cand.size:
            cand = cand[~self.banned.mask(pa, arrivals, cand)]
        return self.base.build(pa, arrivals, tie, cand, max_vsize, reserved_vsize)


class _CompiledPrioritize:
    __slots__ = ("boost", "min_age", "base")

    def __init__(self, boost, min_age: float, base) -> None:
        self.boost = boost
        self.min_age = min_age
        self.base = base

    def build(self, pa, arrivals, tie, cand, max_vsize, reserved_vsize):
        if cand.size:
            bmask = self.boost.mask(pa, arrivals, cand)
            if self.min_age > 0.0:
                now = float(arrivals[cand].max())
                bmask = bmask & ((now - arrivals[cand]) >= self.min_age)
        else:
            bmask = np.zeros(0, dtype=bool)
        boosted = cand[bmask]
        rest = cand[~bmask]
        budget = _check_budget(max_vsize, reserved_vsize)
        chosen, fee, used = _greedy_fill(pa, _exact_order(pa, tie, boosted), budget)
        tail_txs, tail_fee, tail_used = self.base.build(
            pa, arrivals, tie, rest, max_vsize, reserved_vsize + used
        )
        txs = pa.txs
        return [txs[i] for i in chosen] + tail_txs, fee + tail_fee, used + tail_used


def _collect_address_predicates(node, out: list) -> None:
    """Gather every compiled address predicate under ``node``."""
    if node is None:
        return
    if isinstance(node, _CompiledAddress):
        out.append(node)
        return
    if isinstance(node, _CompiledAnyOf):
        for part in node.parts:
            _collect_address_predicates(part, out)
        return
    for attr in ("base", "banned", "boost"):
        child = getattr(node, attr, None)
        if child is not None:
            _collect_address_predicates(child, out)


def compile_policy(policy):
    """Compile a policy stack into an array program, or None.

    Mirrors the policy algebra one node at a time; any node (or
    predicate) without a vector translation makes the whole pool fall
    back to the scalar ``policy.build`` — correctness never depends on
    compilation succeeding.
    """
    if isinstance(policy, FeeRatePolicy):
        return _CompiledFeeRate(policy.package_selection)
    if isinstance(policy, MinFeeRatePolicy):
        base = compile_policy(policy.base)
        if base is not None:
            return _CompiledMinFee(policy.floor, base)
    elif isinstance(policy, NoisyPolicy):
        base = compile_policy(policy.base)
        if base is not None:
            return _CompiledNoisy(policy.base_jitter_source, policy.jitter, base)
    elif isinstance(policy, CensorPolicy):
        base = compile_policy(policy.base)
        banned = compile_predicate(policy.banned)
        if base is not None and banned is not None:
            return _CompiledCensor(banned, base)
    elif isinstance(policy, PrioritizeSetPolicy):
        base = compile_policy(policy.base)
        boost = compile_predicate(policy.boost)
        if base is not None and boost is not None:
            return _CompiledPrioritize(boost, policy.min_age, base)
    return None


# ----------------------------------------------------------------------
# Production loop
# ----------------------------------------------------------------------
def _eligible_candidates(
    pa: PlanArrays,
    pending: np.ndarray,
    arrivals: np.ndarray,
    block_time: float,
    horizon: int,
) -> np.ndarray:
    """Plan indices pending, arrived at this pool, and parent-closed."""
    sel = np.zeros(pa.count, dtype=bool)
    if horizon:
        np.less_equal(arrivals[:horizon], block_time, out=sel[:horizon])
        sel[:horizon] &= pending[:horizon]
    child_idx = pa.child_idx
    if child_idx.size:
        # Only initially-selected children can ever be dropped, so the
        # closure runs over their edge slice, not the whole CSR.
        rows = np.flatnonzero(sel[child_idx])
        if rows.size:
            kids = child_idx[rows]
            starts = pa.parent_offsets[rows]
            lens = pa.parent_offsets[rows + 1] - starts
            cum = np.cumsum(lens)
            pos = np.repeat(starts - cum + lens, lens) + np.arange(int(cum[-1]))
            sub_parents = pa.parent_flat[pos]
            sub_off = cum - lens
            active = np.ones(rows.size, dtype=bool)
            while True:
                blocked = pending[sub_parents] & ~sel[sub_parents]
                drop = np.logical_or.reduceat(blocked, sub_off) & active
                if not drop.any():
                    break
                active &= ~drop
                sel[kids[drop]] = False
    return np.flatnonzero(sel)


def _check_fast_block_state(
    pa: PlanArrays,
    pending: np.ndarray,
    committed_flags: np.ndarray,
    pending_spenders: dict,
    committed: dict,
    block,
) -> None:
    """Array-level mirror of ``check_engine_block_state``."""
    overlap = pending & committed_flags
    if overlap.any():
        txid = pa.txids[int(np.flatnonzero(overlap)[0])]
        raise InvariantViolation(f"tx {txid} is simultaneously pending and committed")
    for prevout, txid in pending_spenders.items():
        index = pa.txid_index.get(txid)
        if index is None or not pending[index]:
            raise InvariantViolation(
                f"spender index entry {prevout} -> {txid} references a "
                "transaction that is not pending"
            )
        if prevout not in pa.contested:
            raise InvariantViolation(
                f"spender index tracks uncontested outpoint {prevout}"
            )
    for tx in block.transactions:
        if tx.txid not in committed:
            raise InvariantViolation(
                f"block {block.height} tx {tx.txid} missing from the committed map"
            )


def produce_fast(
    engine: "SimulationEngine",
    plan: Sequence[PlannedTx],
    broadcast_times: np.ndarray,
    pool_arrivals: np.ndarray,
    schedule: Sequence[tuple[float, int]],
    stale_mask: Optional[np.ndarray],
    mining_rng: np.random.Generator,
    check_invariants: bool = False,
) -> tuple[dict[str, tuple[int, int, float]], Blockchain, int]:
    """Run the block-production loop over packed arrays.

    Returns the ``(committed, chain, orphaned)`` triple the engine's
    curation stage consumes — byte-identical to what the scalar loop
    would have produced for the same inputs.
    """
    config = engine.config
    pa = PlanArrays(plan)
    count = pa.count
    programs = [compile_policy(pool.policy) for pool in engine.pools]
    obs.counter(
        "engine.fast.pools_compiled", sum(1 for p in programs if p is not None)
    )
    obs.counter(
        "engine.fast.pools_fallback", sum(1 for p in programs if p is None)
    )
    # One shared output scan serves every compiled address predicate.
    address_predicates: list = []
    for program in programs:
        _collect_address_predicates(program, address_predicates)
    if address_predicates:
        union: set = set()
        for predicate in address_predicates:
            union |= predicate.addresses
        pa.address_rows(union)
    # Contiguous per-pool arrival rows (column slices of the original
    # layout would stride across the whole matrix every block).
    arrival_rows = np.ascontiguousarray(pool_arrivals.T)
    # Static per-pool tie ranks: arrivals never change mid-run, so the
    # scalar (arrival, txid) tie-break is one precomputed integer per
    # plan index.  Built lazily the first time a pool wins a block.
    tie_by_pool: dict[int, np.ndarray] = {}

    def tie_ranks(pool_index: int) -> np.ndarray:
        tie = tie_by_pool.get(pool_index)
        if tie is None:
            base = pa.txid_sorted
            perm = base[
                np.argsort(arrival_rows[pool_index][base], kind="stable")
            ]
            tie = np.empty(count, dtype=np.int64)
            tie[perm] = np.arange(count, dtype=np.int64)
            tie_by_pool[pool_index] = tie
        return tie

    pending = np.zeros(count, dtype=bool)
    committed_flags = np.zeros(count, dtype=bool)
    committed: dict[str, tuple[int, int, float]] = {}
    chain = Blockchain()
    orphaned = 0
    plan_index = 0
    pending_spenders: dict[object, str] = {}
    committed_outpoints: set = set()
    specials = pa.special_indices
    n_specials = len(specials)
    sp_ptr = 0
    txs = pa.txs
    txid_index = pa.txid_index
    plan_children = pa.plan_children
    contested = pa.contested
    services = engine.services
    empty_probability = config.empty_block_probability

    def evict(txid: str) -> None:
        index = txid_index[txid]
        if not pending[index]:
            return
        pending[index] = False
        for txin in txs[index].inputs:
            if pending_spenders.get(txin.prevout) == txid:
                del pending_spenders[txin.prevout]
        for child in plan_children.get(txid, ()):
            evict(child)

    def admit_special(index: int) -> None:
        # Verbatim port of the scalar engine's `admit`, restricted to
        # the contested-outpoint bookkeeping that can actually fire.
        planned = pa.plan[index]
        tx = planned.tx
        for txin in tx.inputs:
            if txin.prevout in committed_outpoints:
                obs.counter("mempool.pending.chain_conflict")
                return
        displaced = {
            pending_spenders[txin.prevout]
            for txin in tx.inputs
            if txin.prevout in pending_spenders
            and pending_spenders[txin.prevout] != tx.txid
        }
        for loser in displaced:
            if tx.fee <= txs[txid_index[loser]].fee:
                obs.counter("mempool.pending.rbf_rejected")
                return
        if displaced:
            obs.counter("mempool.rbf_replacements", len(displaced))
        for loser in displaced:
            evict(loser)
        obs.counter("mempool.pending.admitted")
        pending[index] = True
        for txin in tx.inputs:
            if txin.prevout in contested:
                pending_spenders[txin.prevout] = tx.txid
        if planned.accelerate_via is not None:
            service = services.get(planned.accelerate_via)
            if service is not None:
                service.accelerate(
                    tx.txid, public_fee=tx.fee, now=planned.broadcast_time
                )

    for index, (block_time, winner_index) in enumerate(schedule):
        # Epoch-batched admission: simple transactions (uncontested
        # inputs, no acceleration) admit unconditionally in bulk; the
        # specials between them replay the scalar walk at their exact
        # plan position so eviction cascades see the same state.
        j = int(np.searchsorted(broadcast_times, block_time, side="right"))
        if j > plan_index:
            pos = plan_index
            while sp_ptr < n_specials and specials[sp_ptr] < j:
                s = specials[sp_ptr]
                if s > pos:
                    pending[pos:s] = True
                    obs.counter("mempool.pending.admitted", s - pos)
                admit_special(s)
                pos = s + 1
                sp_ptr += 1
            if pos < j:
                pending[pos:j] = True
                obs.counter("mempool.pending.admitted", j - pos)
            plan_index = j

        winner = engine.pools[winner_index]
        arrivals = arrival_rows[winner_index]
        with obs.span("engine.mine_block"):
            if mining_rng.random() < empty_probability:
                obs.counter("engine.blocks.empty")
                cand = _EMPTY
            else:
                cand = _eligible_candidates(pa, pending, arrivals, block_time, plan_index)
            program = programs[winner_index]
            if program is not None:
                sel_txs, fee, used = program.build(
                    pa,
                    arrivals,
                    tie_ranks(winner_index),
                    cand,
                    winner.max_block_vsize,
                    winner.coinbase_vsize,
                )
                template = BlockTemplate(
                    tuple(sel_txs), total_fee=fee, total_vsize=used
                )
            else:
                entries = [
                    MempoolEntry(tx=txs[i], arrival_time=float(arrivals[i]))
                    for i in cand.tolist()
                ]
                template = winner.policy.build(
                    entries,
                    max_vsize=winner.max_block_vsize,
                    reserved_vsize=winner.coinbase_vsize,
                )
            block = winner.assemble_from_template(
                len(chain), chain.tip_hash, block_time, template
            )
        if stale_mask is not None and stale_mask[index]:
            orphaned += 1
            obs.counter("engine.blocks.orphaned")
        else:
            chain.append(block)
            for position, tx in enumerate(block.transactions):
                committed[tx.txid] = (block.height, position, block_time)
                ti = txid_index[tx.txid]
                pending[ti] = False
                committed_flags[ti] = True
                for txin in tx.inputs:
                    prevout = txin.prevout
                    if prevout in contested:
                        committed_outpoints.add(prevout)
                        if pending_spenders.get(prevout) == tx.txid:
                            del pending_spenders[prevout]
            obs.counter("engine.blocks.committed")
            obs.counter("engine.txs.committed", len(block.transactions))
            if check_invariants:
                _check_fast_block_state(
                    pa, pending, committed_flags, pending_spenders, committed, block
                )
    return committed, chain, orphaned
