"""Statistical tests for differential transaction prioritization (§5.1).

Core idea: if pool *m* (hash share θ0) treats a transaction set *c* like
everyone else, then each block containing a c-transaction ("c-block")
is an m-block with probability θ0.  Observing x m-blocks among y
c-blocks, the acceleration test computes p = P(B ≥ x) and the
deceleration test p = P(B ≤ x) for B ~ Binomial(y, θ0); p below the
test size α (the paper uses 0.01, and reads p < 0.001 as strong
evidence) rejects neutrality.

Implementations are from scratch in log space (log-gamma binomial
coefficients with streaming log-sum-exp) so p-values stay accurate far
into the tails.  scipy is imported only inside :func:`fishers_method`
(for the χ² survival function), never at module import: loading
``scipy.stats`` cost about 1 s of every process's start-up, and none of
the paper's experiments combines p-values.  The cross-validation tests
use scipy directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

#: Test size used throughout the paper.
DEFAULT_ALPHA = 0.01

#: p-value the paper treats as strong evidence of misbehaviour.
STRONG_EVIDENCE_P = 0.001


def log_binom_coefficient(n: int, k: int) -> float:
    """log C(n, k) via log-gamma."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def log_binom_pmf(k: int, n: int, p: float) -> float:
    """log P(B = k) for B ~ Binomial(n, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if k < 0 or k > n:
        return float("-inf")
    if p == 0.0:
        return 0.0 if k == 0 else float("-inf")
    if p == 1.0:
        return 0.0 if k == n else float("-inf")
    return (
        log_binom_coefficient(n, k)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _log_sum_exp(values: Iterable[float]) -> float:
    values = [v for v in values if v != float("-inf")]
    if not values:
        return float("-inf")
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


def _direct_upper(x: int, n: int, p: float) -> float:
    """P(B ≥ x) by direct log-space summation of k = x..n."""
    log_terms = [log_binom_pmf(k, n, p) for k in range(x, n + 1)]
    return min(1.0, math.exp(_log_sum_exp(log_terms)))


def _direct_lower(x: int, n: int, p: float) -> float:
    """P(B ≤ x) by direct log-space summation of k = 0..x."""
    log_terms = [log_binom_pmf(k, n, p) for k in range(0, x + 1)]
    return min(1.0, math.exp(_log_sum_exp(log_terms)))


def binom_tail_upper(x: int, n: int, p: float) -> float:
    """P(B ≥ x) — the acceleration-test p-value (exact).

    The *minority-mass* tail (relative to the mean np) is always summed
    directly; the other side is obtained by complementing the directly
    summed opposite tail.  Complementing a tail whose mass is ~1 would
    lose the answer to floating-point cancellation — exactly the regime
    Table 2 lives in (x far above np, p-values below 1e-100).

    Degenerate rates short-circuit: at p = 0 all mass sits at B = 0 and
    at p = 1 all mass sits at B = n, so the tails are exactly 0 or 1
    without routing a point mass through log-space summation.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if x <= 0:
        return 1.0
    if x > n:
        return 0.0
    if p == 0.0:
        return 0.0  # x >= 1 but B = 0 surely
    if p == 1.0:
        return 1.0  # x <= n and B = n surely
    if x > n * p:
        return _direct_upper(x, n, p)
    return max(0.0, 1.0 - _direct_lower(x - 1, n, p))


def binom_tail_lower(x: int, n: int, p: float) -> float:
    """P(B ≤ x) — the deceleration-test p-value (exact).

    Degenerate rates short-circuit exactly as in
    :func:`binom_tail_upper`.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if x < 0:
        return 0.0
    if x >= n:
        return 1.0
    if p == 0.0:
        return 1.0  # x >= 0 and B = 0 surely
    if p == 1.0:
        return 0.0  # x < n but B = n surely
    if x < n * p:
        return _direct_lower(x, n, p)
    return max(0.0, 1.0 - _direct_upper(x + 1, n, p))


def _standard_normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_tail_upper(x: int, n: int, p: float) -> float:
    """Normal approximation of P(B ≥ x) with continuity correction.

    §5.1.3 suggests this for large y; note the paper's displayed formula
    lacks the survival complement — we implement the statistically
    correct version 1 − Φ((x − ½ − np)/σ).
    """
    if n == 0:
        return 1.0
    sigma = math.sqrt(n * p * (1.0 - p))
    if sigma == 0.0:
        return binom_tail_upper(x, n, p)
    z = (x - 0.5 - n * p) / sigma
    return 1.0 - _standard_normal_cdf(z)


def normal_tail_lower(x: int, n: int, p: float) -> float:
    """Normal approximation of P(B ≤ x) with continuity correction."""
    if n == 0:
        return 1.0
    sigma = math.sqrt(n * p * (1.0 - p))
    if sigma == 0.0:
        return binom_tail_lower(x, n, p)
    z = (x + 0.5 - n * p) / sigma
    return _standard_normal_cdf(z)


def fishers_method(p_values: Sequence[float]) -> float:
    """Combine independent p-values (Fisher 1948), for windowed tests.

    §5.1.3 proposes splitting long time windows into shorter ones with
    near-constant hash rates and combining per-window p-values this way.
    """
    if not p_values:
        raise ValueError("need at least one p-value")
    # ``chdtrc(df, x)`` is the function ``scipy.stats.chi2.sf(x, df)``
    # evaluates, without the cost of importing ``scipy.stats``.
    from scipy.special import chdtrc

    clipped = [min(max(p, 1e-300), 1.0) for p in p_values]
    statistic = -2.0 * sum(math.log(p) for p in clipped)
    return float(chdtrc(2 * len(clipped), statistic))


@dataclass(frozen=True)
class PrioritizationTestResult:
    """One row of Table 2 / Table 3.

    ``coverage`` records the fraction of committed c-candidates the
    degraded observer actually measured (1.0 on clean data).  Under
    random measurement thinning the observed c-blocks are an unbiased
    subsample of the true ones, so the exact binomial tails evaluated
    at the *observed* (x, y) remain valid p-values — the loss shows up
    as a smaller effective sample size y, i.e. reduced power, not bias.
    The field preserves that context for reporting.
    """

    pool: str
    theta0: float
    x: int
    y: int
    p_accelerate: float
    p_decelerate: float
    coverage: float = 1.0

    def accelerates(self, alpha: float = STRONG_EVIDENCE_P) -> bool:
        """True when acceleration is significant at level ``alpha``."""
        return self.p_accelerate < alpha

    def decelerates(self, alpha: float = STRONG_EVIDENCE_P) -> bool:
        """True when deceleration is significant at level ``alpha``."""
        return self.p_decelerate < alpha

    @property
    def observed_share(self) -> float:
        """Observed fraction of c-blocks mined by the pool."""
        return self.x / self.y if self.y else float("nan")


def prioritization_test(
    pool: str,
    theta0: float,
    c_block_miners: Sequence[str],
    use_normal_approximation: bool = False,
    coverage: float = 1.0,
) -> PrioritizationTestResult:
    """Run both directional tests for ``pool`` over labelled c-blocks.

    ``c_block_miners`` is the miner label of every block containing at
    least one c-transaction (duplicates meaningless: each *block* counts
    once; deduplicate before calling if needed).

    ``coverage`` is the measured fraction of committed c-candidates the
    observer saw; pass it when testing over a degraded dataset so the
    result records its own effective-sample-size context.  The p-values
    are already evaluated at the observed (x, y), which under random
    thinning stay exact — see :class:`PrioritizationTestResult`.
    """
    if not 0.0 < theta0 < 1.0:
        raise ValueError(f"theta0 must be in (0,1), got {theta0}")
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0,1], got {coverage}")
    y = len(c_block_miners)
    x = sum(1 for miner in c_block_miners if miner == pool)
    if use_normal_approximation:
        p_up = normal_tail_upper(x, y, theta0)
        p_down = normal_tail_lower(x, y, theta0)
    else:
        p_up = binom_tail_upper(x, y, theta0)
        p_down = binom_tail_lower(x, y, theta0)
    return PrioritizationTestResult(
        pool=pool,
        theta0=theta0,
        x=x,
        y=y,
        p_accelerate=p_up,
        p_decelerate=p_down,
        coverage=coverage,
    )


def windowed_prioritization_test(
    pool: str,
    windows: Sequence[tuple[float, Sequence[str]]],
    direction: str = "accelerate",
) -> float:
    """Combine per-window tests via Fisher's method (§5.1.3 extension).

    ``windows`` maps each window to (θ0 within the window, c-block miner
    labels within the window).  Windows with no c-blocks are skipped.
    Returns the combined p-value for the requested direction.
    """
    if direction not in ("accelerate", "decelerate"):
        raise ValueError("direction must be 'accelerate' or 'decelerate'")
    p_values = []
    for theta0, miners in windows:
        if not miners:
            continue
        result = prioritization_test(pool, theta0, miners)
        p_values.append(
            result.p_accelerate if direction == "accelerate" else result.p_decelerate
        )
    if not p_values:
        raise ValueError("no window contained c-blocks")
    if len(p_values) == 1:
        return p_values[0]
    return fishers_method(p_values)


class PrioritizationAccumulator:
    """Incremental hash-share and c-block state for the binomial tests.

    The batch path recomputes θ0 from a full ``block_pools`` scan and
    relabels c-blocks from a full record scan per query.  Folding one
    attributed block at a time maintains the same quantities:

    * ``labels`` — pool label per folded block in chain order, exactly
      the sequence ``[block_pools[h] for h in sorted(block_pools)]``
      the batch path feeds to ``estimate_hash_rates``;
    * per-pool block counts, so θ0 = count/total uses the identical
      division the batch ``HashRateEstimate`` construction performs.

    ``test_for`` then runs :func:`prioritization_test` over miner labels
    resolved from commit heights — the same sorted-heights walk as the
    batch ``Dataset.c_block_miners`` — giving bit-identical (θ0, x, y)
    inputs and therefore bit-identical p-values.
    """

    def __init__(self) -> None:
        #: Pool label of each folded block, in fold (= chain) order.
        self.labels: list[str] = []
        self._by_height: dict[int, str] = {}
        self._counts: dict[str, int] = {}

    @property
    def block_count(self) -> int:
        return len(self.labels)

    def fold(self, height: int, pool: str) -> None:
        """Fold one attributed block."""
        self.labels.append(pool)
        self._by_height[height] = pool
        self._counts[pool] = self._counts.get(pool, 0) + 1

    def share(self, pool: str) -> float:
        """θ0 of ``pool`` over the folded prefix (0.0 if absent).

        Identical arithmetic to the batch estimate: blocks/total in one
        division.
        """
        count = self._counts.get(pool)
        if not count:
            return 0.0
        return count / len(self.labels)

    def miners(self, heights: Iterable[int]) -> list[str]:
        """Miner labels of the given c-block heights, sorted by height."""
        return [
            self._by_height[h]
            for h in sorted(set(heights))
            if h in self._by_height
        ]

    def test_for(
        self,
        pool: str,
        c_block_heights: Iterable[int],
        coverage: float = 1.0,
    ) -> PrioritizationTestResult:
        """Both directional tests for ``pool`` at the current fold.

        Degenerate θ0 (pool absent, or sole miner) yields the same
        evidence-free x = y = 0, p = 1.0 row the batch Auditor reports.
        """
        theta0 = self.share(pool)
        if not 0.0 < theta0 < 1.0:
            return PrioritizationTestResult(
                pool=pool,
                theta0=theta0,
                x=0,
                y=0,
                p_accelerate=1.0,
                p_decelerate=1.0,
                coverage=coverage,
            )
        return prioritization_test(
            pool, theta0, self.miners(c_block_heights), coverage=coverage
        )


def c_blocks_for(
    block_miners: Mapping[int, str],
    commit_heights: Iterable[Optional[int]],
) -> list[str]:
    """Miner labels of blocks containing at least one target transaction.

    ``block_miners`` maps height → pool; ``commit_heights`` are the
    commit heights of the c-transactions (None entries, i.e. never
    committed, are skipped).  Each block counts once regardless of how
    many c-transactions it holds, per the definition of a c-block.
    """
    heights = {h for h in commit_heights if h is not None}
    return [block_miners[h] for h in sorted(heights) if h in block_miners]
