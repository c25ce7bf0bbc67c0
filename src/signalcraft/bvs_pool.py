"""Tail pooling for the Bayesian-valuation setting.

A tail state targets exactly one bidder, so revealing it kills competition.
The pooling scheme pairs tail states at random so that, conditioned on a
pooled signal, the two candidate states are equally likely (detailed
balance), which turns each pooled bidder's posterior into an even high/low
mixture.  This module covers feasibility of the pairing, its constructive
solution, the signaling procedure, and the welfare/revenue analytics of
second-price auctions with high/low bidder mixes that back the constant-
factor revenue guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BvsInstance, PublicScheme, Signal, ValidationError, ValueDistribution

BALANCE_TOL = 1e-9


class InfeasiblePooling(ValidationError):
    """No detailed-balance pairing exists for the given tail masses."""


# ---------------------------------------------------------------------------
# Pooling schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolingScheme:
    """Randomized pairing of tail states with detailed balance.

    ``bidders[r]`` is the targeted-bidder index of the r-th active tail state
    (zero-mass tail states are excluded up front); ``matrix[r]`` is the row
    pi(bidders[r] -> .) over active tail states.
    """

    bidders: tuple[int, ...]
    masses: tuple[float, ...]
    matrix: np.ndarray

    def validate(self) -> list[str]:
        problems = []
        m = self.matrix
        k = len(self.bidders)
        if m.shape != (k, k):
            return [f"matrix shape {m.shape} does not match {k} tail states"]
        if np.any(m < -BALANCE_TOL):
            problems.append("negative pairing probability")
        row_sums = m.sum(axis=1)
        for r, total in enumerate(row_sums):
            if abs(total - 1.0) > BALANCE_TOL:
                problems.append(f"row for bidder {self.bidders[r]} sums to {total}")
        if np.any(np.abs(np.diag(m)) > BALANCE_TOL):
            problems.append("self-pairing probability is nonzero")
        p = np.asarray(self.masses)
        flow = p[:, None] * m
        if np.max(np.abs(flow - flow.T)) > BALANCE_TOL:
            problems.append("detailed balance violated")
        return problems

    def row(self, bidder: int) -> dict[int, float]:
        r = self.bidders.index(bidder)
        return {
            self.bidders[c]: float(self.matrix[r, c])
            for c in range(len(self.bidders))
            if self.matrix[r, c] > 0
        }

    def sample_partner(self, bidder: int, rng: np.random.Generator) -> int:
        return int(self.sample_partners(np.array([bidder]), rng)[0])

    def sample_partners(self, own: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        pos = {b: r for r, b in enumerate(self.bidders)}
        try:
            rows = np.array([pos[int(i)] for i in np.asarray(own).ravel()])
        except KeyError as e:
            raise ValidationError(
                f"tail state for bidder {e} has zero prior mass; no pairing row"
            ) from None
        cdf = np.cumsum(self.matrix, axis=1)
        u = rng.random(rows.size)
        choice = np.minimum(
            (u[:, None] > cdf[rows]).sum(axis=1), len(self.bidders) - 1
        )
        return np.asarray(self.bidders, dtype=int)[choice]

    def to_json_dict(self) -> dict:
        return {
            "bidders": list(self.bidders),
            "masses": list(self.masses),
            "rows": [[float(x) for x in row] for row in self.matrix],
        }


def tail_balanced(masses) -> bool:
    """True iff no tail state outweighs all the others combined."""
    p = np.asarray([m for m in masses if m > 0.0], dtype=float)
    if p.size == 0:
        return True
    return bool(p.max() <= p.sum() - p.max() + BALANCE_TOL)


def construct_pooling(masses) -> PoolingScheme:
    """Explicitly build a detailed-balance pairing for balanced tail masses.

    Working on masses sorted descending: first bleed the excess of the top
    state into states 3.. until the top two tie; then chain-match each state
    into its predecessor from the bottom up until only three remain; close
    with the symmetric three-way split.  Joint pair masses are accumulated
    and divided by each state's mass to give the rows.
    """
    full = np.asarray(masses, dtype=float)
    if np.any(full < 0):
        raise ValidationError("tail masses must be nonnegative")
    active = [i for i in range(full.size) if full[i] > 0.0]
    if len(active) < 2:
        raise InfeasiblePooling(
            f"need at least 2 tail states with positive mass, got {len(active)}"
        )
    if not tail_balanced(full):
        raise InfeasiblePooling(
            "largest tail mass exceeds the sum of the others; no pairing exists"
        )

    order = sorted(active, key=lambda i: (-full[i], i))
    p = full[order]
    k = len(order)
    rem = p.copy()
    joint = np.zeros((k, k))

    def match(a: int, b: int, amount: float) -> None:
        joint[a, b] += amount
        joint[b, a] += amount

    # phase 1: bleed p1 - p2 from the top state into states 3..k
    need = p[0] - p[1]
    for i in range(2, k):
        if need <= BALANCE_TOL:
            break
        take = min(need, rem[i])
        if take > 0:
            match(0, i, take)
            rem[i] -= take
            rem[0] -= take
            need -= take
    if need > BALANCE_TOL:
        raise InfeasiblePooling("could not equalize the two largest tail masses")

    # the equal-top procedure needs descending masses; phase 1 may have
    # drained the middle out of order, so rank the leftovers afresh
    chain = [0, 1] + sorted(range(2, k), key=lambda i: (-rem[i], i))

    # phase 2: chain-match each state into its predecessor, bottom up,
    # consuming it entirely, until only the top three remain
    for t in range(k - 1, 2, -1):
        i, prev = chain[t], chain[t - 1]
        if rem[i] > 0:
            match(i, prev, rem[i])
            rem[prev] -= rem[i]
            rem[i] = 0.0

    # phase 3: three-way close-out (the third state may already be exhausted)
    third = max(rem[chain[2]], 0.0) if k >= 3 else 0.0
    if k >= 3 and third > 0:
        match(0, chain[2], third / 2)
        match(1, chain[2], third / 2)
    match(0, 1, 0.5 * (max(rem[0], 0.0) + max(rem[1], 0.0)) - third / 2)

    matrix = joint / p[:, None]
    scheme = PoolingScheme(
        bidders=tuple(order), masses=tuple(float(x) for x in p), matrix=matrix
    )
    problems = scheme.validate()
    if problems:
        raise InfeasiblePooling("constructed pairing is inconsistent: " + "; ".join(problems))
    return scheme


def one_hot(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def tail_pool_signal(
    theta: tuple[int, ...], pooling: PoolingScheme | None, rng: np.random.Generator
) -> Signal:
    """One signaling step: reveal the state unless it targets exactly one
    bidder, in which case pool it with a partner tail state."""
    bits = tuple(int(b) for b in theta)
    if sum(bits) != 1:
        return Signal.revealed(bits)
    if pooling is None:
        raise ValidationError("tail state reached but no pooling scheme supplied")
    i = bits.index(1)
    j = pooling.sample_partner(i, rng)
    return Signal.pooled(bits, one_hot(j, len(bits)))


def make_tail_pooling_scheme(instance: BvsInstance) -> tuple[PublicScheme, bool]:
    """Build the tail-pooling public scheme for an instance.

    Returns (scheme, guarantee_ok).  When the tail masses are unbalanced no
    pairing exists; the scheme then degrades to full revelation and the
    constant-factor revenue guarantee is void (flag False).
    """
    masses = instance.tail_masses()
    if sum(m > 0 for m in masses) >= 2 and tail_balanced(masses):
        return PublicScheme.tail_pooling(construct_pooling(masses)), True
    return PublicScheme.full_information(), False


# ---------------------------------------------------------------------------
# Second-price welfare/revenue analytics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuctionStats:
    """Welfare (expected top value) and revenue (expected second value) of a
    standard second-price auction with k high-distribution bidders and m
    low-distribution bidders."""

    k: int
    m: int
    welfare: float
    revenue: float
    method: str
    welfare_se: float = 0.0
    revenue_se: float = 0.0


def _harmonic(k: int) -> float:
    return sum(1.0 / i for i in range(1, k + 1))


def _closed_form_ak(dist: ValueDistribution, k: int) -> tuple[float, float]:
    if dist.family == "point":
        (c,) = dist.params
        return c, (c if k >= 2 else 0.0)
    if dist.family == "uniform":
        a, b = dist.params
        wel = a + (b - a) * k / (k + 1)
        rev = a + (b - a) * (k - 1) / (k + 1) if k >= 2 else 0.0
        return wel, rev
    if dist.family == "exponential":
        (rate,) = dist.params
        return _harmonic(k) / rate, (_harmonic(k) - 1.0) / rate
    v, p = dist.params
    q = 1.0 - p
    wel = v * (1.0 - q**k)
    rev = v * (1.0 - q**k - k * p * q ** (k - 1)) if k >= 2 else 0.0
    return wel, rev


def _quadrature_ak(dist: ValueDistribution, k: int) -> tuple[float, float]:
    # imported here because it is slow to load and only quadrature needs it
    from scipy.integrate import quad

    hi = dist.upper_cutoff()
    if hi <= 0.0:
        return 0.0, 0.0
    points = None
    if dist.family == "bernoulli" and 0 < dist.params[0] < hi:
        points = [dist.params[0]]

    def survival_top(v):
        return 1.0 - dist.cdf(v) ** k

    def survival_second(v):
        h = dist.cdf(v)
        return 1.0 - k * h ** (k - 1) + (k - 1) * h**k

    wel, _ = quad(survival_top, 0.0, hi, epsabs=1e-6, limit=200, points=points)
    if k >= 2:
        rev, _ = quad(survival_second, 0.0, hi, epsabs=1e-6, limit=200, points=points)
    else:
        rev = 0.0
    return wel, rev


def stats_Ak(
    dist: ValueDistribution,
    k: int,
    method: str = "auto",
    trials: int = 200_000,
    seed: int = 0,
) -> AuctionStats:
    """Welfare and revenue of k i.i.d. bidders drawing from ``dist``."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    problems = dist.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    if method == "auto":
        method = "quadrature" if dist.family == "exponential" else "closed_form"
    if method == "closed_form":
        wel, rev = _closed_form_ak(dist, k)
        return AuctionStats(k, 0, wel, rev, "closed_form")
    if method == "quadrature":
        wel, rev = _quadrature_ak(dist, k)
        return AuctionStats(k, 0, wel, rev, "quadrature")
    if method == "monte_carlo":
        rng = np.random.default_rng(seed)
        draws = dist.sample(rng, (trials, k))
        top = draws.max(axis=1) if k > 1 else draws[:, 0]
        wel, wel_se = float(top.mean()), float(top.std(ddof=1) / math.sqrt(trials))
        if k >= 2:
            second = np.partition(draws, k - 2, axis=1)[:, k - 2]
            rev, rev_se = (
                float(second.mean()),
                float(second.std(ddof=1) / math.sqrt(trials)),
            )
        else:
            rev, rev_se = 0.0, 0.0
        return AuctionStats(k, 0, wel, rev, "monte_carlo", wel_se, rev_se)
    raise ValidationError(f"unknown method {method!r}")


def stats_Ank(
    high: ValueDistribution,
    low: ValueDistribution,
    n: int,
    k: int,
    method: str = "auto",
    trials: int = 200_000,
    seed: int = 0,
) -> AuctionStats:
    """Welfare and revenue with k bidders on ``high`` and n-k on ``low``."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    if not (0 <= k <= n):
        raise ValidationError(f"k must lie in [0, {n}], got {k}")
    if k == n or high == low:
        s = stats_Ak(high, n, method=method, trials=trials, seed=seed)
        return AuctionStats(k, n - k, s.welfare, s.revenue, s.method, s.welfare_se, s.revenue_se)
    if k == 0:
        s = stats_Ak(low, n, method=method, trials=trials, seed=seed)
        return AuctionStats(0, n, s.welfare, s.revenue, s.method, s.welfare_se, s.revenue_se)
    if low == ValueDistribution.point(0.0) and method in ("auto", "closed_form", "quadrature"):
        # untargeted bidders bid 0, so the order statistics come from the k
        # high draws alone, floored at zero
        if k >= 2:
            s = stats_Ak(high, k, method=method)
            return AuctionStats(k, n - k, s.welfare, s.revenue, s.method)
        wel = stats_Ak(high, 1, method=method).welfare
        return AuctionStats(1, n - 1, wel, 0.0, "closed_form")
    rng = np.random.default_rng(seed)
    draws = np.concatenate(
        [high.sample(rng, (trials, k)), low.sample(rng, (trials, n - k))], axis=1
    )
    top = draws.max(axis=1)
    second = np.partition(draws, n - 2, axis=1)[:, n - 2]
    return AuctionStats(
        k,
        n - k,
        float(top.mean()),
        float(second.mean()),
        "monte_carlo",
        float(top.std(ddof=1) / math.sqrt(trials)),
        float(second.std(ddof=1) / math.sqrt(trials)),
    )


def _expected_min_of_two(dist: ValueDistribution) -> float:
    if dist.family == "point":
        return dist.params[0]
    if dist.family == "uniform":
        a, b = dist.params
        return a + (b - a) / 3.0
    if dist.family == "exponential":
        return 0.5 / dist.params[0]
    v, p = dist.params
    return v * p * p


@dataclass(frozen=True)
class PooledPairRevenue:
    value: float
    std_error: float
    method: str


def pooled_pair_revenue(
    high: ValueDistribution,
    low: ValueDistribution,
    n: int,
    method: str = "auto",
    trials: int = 200_000,
    seed: int = 0,
) -> PooledPairRevenue:
    """Expected revenue conditioned on a pooled signal.

    The two pooled bidders each bid the even mixture (v(1,t) + v(0,t)) / 2 of
    their targeted and untargeted values at a fresh private type t; the other
    n-2 bidders know they are untargeted and bid a low draw.  Closed form when
    the low distribution is a point mass at 0: half the expected minimum of
    two high draws.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    if method == "auto":
        method = "closed_form" if low == ValueDistribution.point(0.0) else "monte_carlo"
    if method == "closed_form":
        if low != ValueDistribution.point(0.0):
            raise ValidationError("closed form requires the low point mass at 0")
        return PooledPairRevenue(0.5 * _expected_min_of_two(high), 0.0, "closed_form")
    rng = np.random.default_rng(seed)
    t = rng.random((trials, 2))
    pooled_bids = 0.5 * (high.ppf(t) + low.ppf(t))
    if n > 2:
        others = low.sample(rng, (trials, n - 2))
        bids = np.concatenate([pooled_bids, others], axis=1)
    else:
        bids = pooled_bids
    second = np.partition(bids, n - 2, axis=1)[:, n - 2]
    return PooledPairRevenue(
        float(second.mean()),
        float(second.std(ddof=1) / math.sqrt(trials)),
        "monte_carlo",
    )


def wk_rk(x: float, k: int) -> tuple[float, float]:
    """The truncated-log polynomials behind the revenue-to-welfare bounds:
    W_k(x) = sum_{i<=k} x^i / i and R_k(x) = W_k(x) - x^k."""
    if not (0.0 <= x <= 1.0):
        raise ValidationError(f"x must lie in [0, 1], got {x}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    powers = np.power(x, np.arange(1, k + 1))
    w = float((powers / np.arange(1, k + 1)).sum())
    return w, w - float(powers[-1])


# ---------------------------------------------------------------------------
# Per-state revenue-vs-welfare bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailPoolingBoundReport:
    weight: int
    branch: str
    bound: float
    revenue: float
    welfare: float
    revenue_se: float
    welfare_se: float
    ratio: float | None
    ok: bool
    method: str


def branch_bound(weight: int, n: int) -> float:
    """Guaranteed revenue fraction of full-information welfare at a state
    with ``weight`` targeted bidders."""
    if weight == 0:
        return max(1.0 / 3.0, (math.log(n + 1) - 1.0) / math.log(n + 1))
    if weight == 1:
        return 1.0 / 8.0
    return max(1.0 / 6.0, (math.log(weight + 1) - 1.0) / (2.0 * math.log(weight + 1)))


def check_lemma6(
    high: ValueDistribution,
    low: ValueDistribution,
    n: int,
    theta_weight: int,
    trials: int = 100_000,
    seed: int = 0,
) -> TailPoolingBoundReport:
    """Check the per-state guarantee of the tail-pooling scheme.

    Compares the scheme's revenue at a state with ``theta_weight`` targeted
    bidders (full revelation unless the weight is 1, pooling when it is)
    against the full-information welfare there, and tests revenue >= bound *
    welfare up to three combined standard errors.
    """
    if not (high.has_mhr and low.has_mhr):
        raise ValidationError("bound check requires monotone-hazard-rate families")
    if not (0 <= theta_weight <= n):
        raise ValidationError(f"theta_weight must lie in [0, {n}], got {theta_weight}")
    if theta_weight == 0:
        if n < 2:
            raise ValidationError("need n >= 2")
    elif n < 22:
        raise ValidationError(
            f"the guarantee for states with targeted bidders needs n >= 22, got {n}"
        )

    bound = branch_bound(theta_weight, n)
    if theta_weight == 1:
        branch = "pooled"
        pooled = pooled_pair_revenue(high, low, n, trials=trials, seed=seed)
        wel_stats = stats_Ank(high, low, n, 1, trials=trials, seed=seed + 1)
        rev, rev_se = pooled.value, pooled.std_error
        wel, wel_se = wel_stats.welfare, wel_stats.welfare_se
        method = pooled.method
    else:
        branch = "reveal_all_low" if theta_weight == 0 else "reveal"
        stats = stats_Ank(high, low, n, theta_weight, trials=trials, seed=seed)
        rev, rev_se = stats.revenue, stats.revenue_se
        wel, wel_se = stats.welfare, stats.welfare_se
        method = stats.method

    combined_se = math.sqrt(rev_se**2 + (bound * wel_se) ** 2)
    ok = rev >= bound * wel - 3.0 * combined_se
    ratio = rev / wel if wel > 0 else None
    return TailPoolingBoundReport(
        theta_weight, branch, bound, rev, wel, rev_se, wel_se, ratio, ok, method
    )
