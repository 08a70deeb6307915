"""Exact fee-rate ordering for template builders and eviction planning.

A fee-rate is the rational number ``fee / vsize``.  Ranking by the
float64 quotient is faithful only while the products involved stay
inside the 53-bit mantissa; large fees or vsizes can collapse two
*distinct* rationals onto one float, at which point the order falls
through to tie-break keys — and template output starts depending on
incidental details (arrival times, txids, the code path taken) instead
of on the rates themselves.  Every ordering-sensitive consumer in the
production path (both template builders, boosted-head sorts) therefore
ranks through this module, and so does the reference mempool's
eviction planner.

:func:`fee_rate_rank` embeds ``fee / vsize`` into the integers by
scaling with ``2**FEE_RATE_RANK_SHIFT`` before the floor division.  For
two rationals ``a/b != c/d`` with ``b, d < 2**64`` the scaled values
differ by at least ``2**128 / (b * d) > 1``, so their floors differ:
the embedding is strictly monotone and maps equal rationals (and only
equal rationals) to equal integers.  Comparing ranks is therefore
exactly the integer cross-multiplication test ``a*d <=> c*b``, packaged
as a plain sortable key.
"""

from __future__ import annotations

#: Scaling shift used by :func:`fee_rate_rank`.  Wide enough (two full
#: 64-bit operands) that the floor division can never conflate two
#: distinct rationals with realistic numerators and denominators.
FEE_RATE_RANK_SHIFT = 128


def fee_rate_rank(fee: int, vsize: int) -> int:
    """Integer key ordered exactly like the rational ``fee / vsize``.

    Sort ascending for cheapest-first, negate for richest-first.  The
    key is exact: ranks compare equal iff the underlying rationals are
    equal (for ``vsize < 2**64``), unlike the float64 quotient.
    """
    if vsize <= 0:
        raise ValueError(f"vsize must be positive, got {vsize}")
    return (fee << FEE_RATE_RANK_SHIFT) // vsize

