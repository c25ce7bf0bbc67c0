"""The second-price payment and the public-scheme revenue functionals.

In a public scheme every bidder bids his posterior-expected value given the
signal (the dominant strategy), so KVS revenue is a sum over signals of the
signal probability times the second-highest posterior value.  In BVS the bid
also conditions on the bidder's own private type draw, and revenue carries an
extra expectation over the types, estimated here by seeded Monte-Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BvsInstance,
    KvsInstance,
    PublicScheme,
    Signal,
    ValidationError,
)


def max2(values) -> float:
    """Second largest element counting multiplicity (the second-price payment)."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValidationError(f"max2 needs at least 2 values, got {arr.size}")
    return float(np.partition(arr, -2)[-2])


# ---------------------------------------------------------------------------
# Known-valuation functionals
# ---------------------------------------------------------------------------


def as_explicit(instance: KvsInstance, scheme: PublicScheme) -> PublicScheme:
    """Expand full/no-information to explicit tables; pass explicit through."""
    if scheme.kind == "explicit":
        return scheme
    if scheme.kind == "full_information":
        table = {s.id: {Signal.revealed(s.id): 1.0} for s in instance.states}
        return PublicScheme.explicit(table)
    if scheme.kind == "no_information":
        sig = Signal.opaque(0)
        return PublicScheme.explicit({s.id: {sig: 1.0} for s in instance.states})
    raise ValidationError(f"scheme kind {scheme.kind!r} has no KVS table expansion")


def _signal_posteriors(instance: KvsInstance, scheme: PublicScheme):
    scheme = as_explicit(instance, scheme)
    problems = scheme.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    masses = instance.masses
    values = instance.value_matrix
    out = []
    for sig in scheme.signals():
        phi = np.array(
            [scheme.table.get(s.id, {}).get(sig, 0.0) for s in instance.states]
        )
        weights = masses * phi
        alpha = float(weights.sum())
        if alpha <= 0.0:
            continue
        out.append((sig, alpha, weights @ values / alpha))
    return out


def kvs_public_revenue(instance: KvsInstance, scheme: PublicScheme) -> float:
    """Exact revenue under truthful bidding of conditional expected values."""
    return sum(
        alpha * max2(post) for _, alpha, post in _signal_posteriors(instance, scheme)
    )


# ---------------------------------------------------------------------------
# Bayesian-valuation Monte-Carlo revenue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BvsRevenueEstimate:
    estimate: float
    std_error: float
    trials: int
    # revenue conditioned on signal class, for tail-pooling runs
    revealed: tuple[float, float, int] | None = None
    pooled: tuple[float, float, int] | None = None


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = x.size
    if n == 0:
        return float("nan"), float("nan")
    if n == 1:
        return float(x[0]), float("inf")
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(n))


def bvs_public_revenue_mc(
    instance: BvsInstance,
    scheme: PublicScheme,
    trials: int,
    seed: int,
    detail: bool = False,
) -> BvsRevenueEstimate:
    """Estimate expected revenue of a public scheme in the Bayesian setting.

    Each trial samples a state from the feature prior and a fresh type draw
    per bidder, forms every bidder's posterior-expected value given his type
    and the signal, and records the second-highest of those bids.  Supported
    scheme kinds: full_information, no_information, tail_pooling.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    n = instance.n
    rng = np.random.default_rng(seed)
    bits = instance.prior.sample(rng, size=trials).astype(bool)
    t = rng.random((trials, n))
    v_high = instance.high.ppf(t)
    v_low = instance.low.ppf(t)

    if scheme.kind == "full_information":
        bids = np.where(bits, v_high, v_low)
    elif scheme.kind == "no_information":
        q = instance.prior.marginals()
        bids = q * v_high + (1.0 - q) * v_low
    elif scheme.kind == "tail_pooling":
        bids = np.where(bits, v_high, v_low)
        weights = bits.sum(axis=1)
        pooled_rows = np.flatnonzero(weights == 1)
        if pooled_rows.size:
            pool = scheme.pooling
            if pool is None:
                raise ValidationError("tail_pooling scheme is missing its pairing")
            own = bits[pooled_rows].argmax(axis=1)
            partner = pool.sample_partners(own, rng)
            # everyone outside the pooled pair learns he is untargeted
            bids[pooled_rows] = v_low[pooled_rows]
            half = 0.5 * (v_high + v_low)
            bids[pooled_rows, own] = half[pooled_rows, own]
            bids[pooled_rows, partner] = half[pooled_rows, partner]
    else:
        raise ValidationError(
            f"scheme kind {scheme.kind!r} is not simulatable in the Bayesian setting"
        )

    rev = np.partition(bids, n - 2, axis=1)[:, n - 2]
    est, se = _mean_se(rev)
    revealed = pooled = None
    if detail and scheme.kind == "tail_pooling":
        mask = bits.sum(axis=1) == 1
        pooled = (*_mean_se(rev[mask]), int(mask.sum()))
        revealed = (*_mean_se(rev[~mask]), int((~mask).sum()))
    return BvsRevenueEstimate(est, se, trials, revealed=revealed, pooled=pooled)
