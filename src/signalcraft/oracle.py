"""Independent brute-force ground truth.

Everything here recomputes a guarantee by a route separate from the module it
checks: the full optimal-public LP assembled from scratch (pair-major layout,
direct solver call), exhaustive partition search for welfare caps on few-signal
schemes, the closed binomial formulas for the separation instance, and exact
conditional expectations of binomial tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import SolverFailure, linprog
from .model import (
    BvsInstance,
    ExplicitPrior,
    IidPrior,
    KvsInstance,
    PublicScheme,
    Signal,
    ValidationError,
    ValueDistribution,
)

MAX_STATES = 10**4


def brute_force_public_optimal(instance: KvsInstance) -> tuple[PublicScheme, float]:
    """Exact optimal public scheme by solving the full LP over all states.

    Assembled independently of the production solver path: variables are laid
    out pair-major and the constraint matrices are built as dense arrays fed
    straight to the backend.
    """
    from scipy.sparse import csr_matrix

    problems = instance.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    num_states = len(instance.states)
    if num_states > MAX_STATES:
        raise ValidationError(f"too many states for brute force: {num_states}")
    n = instance.n
    if n < 2:
        raise ValidationError("need at least 2 bidders")
    lam = instance.masses
    values = instance.value_matrix
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    num_pairs = len(pairs)
    num_vars = num_pairs * num_states

    def col(p, s):
        return p * num_states + s

    c = np.zeros(num_vars)
    for p, (i, j) in enumerate(pairs):
        for s in range(num_states):
            c[col(p, s)] = lam[s] * values[s, j]

    # one ordering row per (pair, comparison); each touches one pair's block
    ub_rows, ub_cols, ub_vals = [], [], []
    r = 0
    for p, (i, j) in enumerate(pairs):
        comparisons = [(i, j)] + [(j, k) for k in range(n) if k not in (i, j)]
        for a, b in comparisons:
            ub_rows.extend([r] * num_states)
            ub_cols.extend(range(p * num_states, (p + 1) * num_states))
            ub_vals.extend(-lam * (values[:, a] - values[:, b]))
            r += 1
    a_ub = csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(r, num_vars))

    eq_rows = np.repeat(np.arange(num_states), num_pairs)
    eq_cols = np.concatenate([np.arange(s, num_vars, num_states) for s in range(num_states)])
    a_eq = csr_matrix(
        (np.ones(num_vars), (eq_rows, eq_cols)), shape=(num_states, num_vars)
    )

    res = linprog(
        -c,
        A_ub=a_ub,
        b_ub=np.zeros(r),
        A_eq=a_eq,
        b_eq=np.ones(num_states),
        bounds=[(0.0, 1.0)] * num_vars,
        method="highs",
    )
    if res.status != 0:
        raise SolverFailure(f"brute-force LP failed: {res.message}")
    phi = np.clip(res.x.reshape(num_pairs, num_states).T, 0.0, None)
    alpha = lam @ phi
    keep = [p for p in range(num_pairs) if alpha[p] > 1e-12]
    table = {}
    for s, state in enumerate(instance.states):
        total = sum(phi[s, p] for p in keep)
        if total <= 0:
            # only a state of (numerically) zero mass can put its whole row
            # on dropped signals; it shapes no posterior, so it gets the
            # first kept signal
            phi[s, keep[0]] = total = 1.0
        table[state.id] = {
            Signal.pair(*pairs[p]): float(phi[s, p] / total) for p in keep
        }
    return PublicScheme.explicit(table), -float(res.fun)


# ---------------------------------------------------------------------------
# Deterministic-partition welfare oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionScheme:
    """Disjoint state blocks covering the state space; one signal per block."""

    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    def validate(self, all_states) -> list[str]:
        seen = []
        for block in self.blocks:
            seen.extend(block)
        problems = []
        if len(seen) != len(set(seen)):
            problems.append("blocks overlap")
        if set(seen) != set(all_states):
            problems.append("blocks do not cover the state space")
        return problems


def _explicit_states(instance: BvsInstance):
    if isinstance(instance.prior, ExplicitPrior):
        return [(bits, mass) for bits, mass in instance.prior.entries]
    if isinstance(instance.prior, IidPrior):
        if instance.n > 4:
            raise ValidationError("iid prior expansion limited to n <= 4")
        out = []
        for idx in range(2**instance.n):
            bits = tuple((idx >> b) & 1 for b in range(instance.n))
            out.append((bits, instance.prior.pmf(bits)))
        return out
    raise ValidationError("partition oracle needs an explicit or iid prior")


def best_partition_welfare(
    instance: BvsInstance, num_signals: int
) -> tuple[PartitionScheme, float]:
    """Exhaustive search for the welfare-best deterministic scheme with at
    most ``num_signals`` signals.

    A bidder hearing a block signal bids his posterior-mean value given his
    own type, so a block's welfare is its mass times the expected maximum of
    those bids.  Closed form requires a bernoulli high distribution and a
    point mass at 0 for the low one.  Enumeration covers at most three blocks;
    any budget of |states| or more is served by the singleton partition, which
    is welfare-optimal.
    """
    if instance.n > 4:
        raise ValidationError(f"partition search limited to n <= 4, got {instance.n}")
    if instance.high.family != "bernoulli" or instance.low != ValueDistribution.point(0.0):
        raise ValidationError(
            "closed-form block welfare needs bernoulli high and point-0 low"
        )
    states = _explicit_states(instance)
    m = len(states)
    if num_signals >= m:
        blocks = tuple((bits,) for bits, _ in states)
        welfare = sum(_block_welfare_single(instance, [s]) for s in states)
        return PartitionScheme(blocks), welfare
    if num_signals < 1 or num_signals > 3:
        raise ValidationError(
            f"enumeration supports 1..3 signals or >= {m}, got {num_signals}"
        )

    v_high, p = instance.high.params
    lam = np.array([mass for _, mass in states])
    theta = np.array([bits for bits, _ in states], dtype=float)
    n = instance.n
    member = (np.arange(2**m)[:, None] >> np.arange(m)) & 1  # subsets x states
    mass = member @ lam
    vec = member @ (lam[:, None] * theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(mass[:, None] > 0, vec / mass[:, None], 0.0)
    q_sorted = -np.sort(-q, axis=1)
    geo = v_high * p * (1 - p) ** np.arange(n)
    welfare_by_subset = mass * (q_sorted @ geo)
    w = welfare_by_subset.tolist()

    full = (1 << m) - 1
    best_score = w[full]
    best_masks = [full]
    if num_signals >= 2:
        for a in range(1, full):
            if a & 1 == 0:
                continue
            score = w[a] + w[full ^ a]
            if score > best_score:
                best_score, best_masks = score, [a, full ^ a]
    if num_signals >= 3:
        for a in range(1, full):
            if a & 1 == 0:
                continue
            comp = full ^ a
            if comp == 0:
                continue
            low = comp & (-comp)
            wa = w[a]
            sub = comp
            while True:
                if sub & low:
                    rest = comp ^ sub
                    score = wa + w[sub] + (w[rest] if rest else 0.0)
                    if score > best_score:
                        best_score = score
                        best_masks = [a, sub] + ([rest] if rest else [])
                if sub == 0:
                    break
                sub = (sub - 1) & comp

    blocks = tuple(
        tuple(states[s][0] for s in range(m) if mask >> s & 1) for mask in best_masks
    )
    return PartitionScheme(blocks), float(best_score)


def _block_welfare_single(instance: BvsInstance, block) -> float:
    v_high, p = instance.high.params
    lam = sum(mass for _, mass in block)
    if lam <= 0:
        return 0.0
    q = np.zeros(instance.n)
    for bits, mass in block:
        q += mass * np.asarray(bits)
    q /= lam
    geo = v_high * p * (1 - p) ** np.arange(instance.n)
    return lam * float(np.sort(q)[::-1] @ geo)


# ---------------------------------------------------------------------------
# Separation-instance formulas
# ---------------------------------------------------------------------------


def _binom_log_pmf(m: int, p: float, i: np.ndarray) -> np.ndarray:
    """log P[X = i] for X ~ Binomial(m, p), 0 <= p < 1, at integers i in 0..m."""
    if p == 0.0:
        # X = 0 surely; forming i * log(p) would give 0 * -inf = NaN at i = 0
        return np.where(i == 0, 0.0, -np.inf)
    log_fact = np.array([math.lgamma(x + 1.0) for x in range(m + 1)])
    return (
        log_fact[m]
        - log_fact[i]
        - log_fact[m - i]
        + i * math.log(p)
        + (m - i) * math.log1p(-p)
    )


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) without overflow; -inf when a is empty."""
    top = a.max(initial=-np.inf)
    if top == -np.inf:
        return -math.inf
    return float(top + math.log(np.exp(a - top).sum()))


def theorem2_fullinfo_revenue(n: int, eps: float) -> tuple[float, float]:
    """Full-information revenue of the symmetric separation instance.

    Returns (exact binomial sum, closed lower bound).  With i targeted
    bidders each winning a unit value with probability 1/sqrt(n), revenue at
    that state is the probability of at least two winners.
    """
    if n < 4:
        raise ValidationError(f"n must be at least 4, got {n}")
    if not (0.0 <= eps < 1.0):
        raise ValidationError(f"eps must lie in [0, 1), got {eps}")
    p = 1.0 / math.sqrt(n)
    i = np.arange(0, n + 1)
    pmf = np.exp(_binom_log_pmf(n, eps, i))
    q = 1.0 - p
    rev_i = 1.0 - q**i - i * p * np.where(i >= 1, q ** np.maximum(i - 1, 0), 0.0)
    exact = float(pmf @ rev_i)
    lower = 1.0 - math.exp(-eps * math.sqrt(n)) - eps * math.sqrt(n) * math.exp(
        -eps * (n - 1) / math.sqrt(n)
    )
    return exact, lower


def binomial_cond_expectation(m: int, p: float, k: int) -> float:
    """Exact E[X | X >= k] for X ~ Binomial(m, p), computed in log space."""
    if not (0.0 < p < 0.5):
        raise ValidationError(f"p must lie in (0, 1/2), got {p}")
    if not (0 <= k <= m):
        raise ValidationError(f"k must lie in [0, {m}], got {k}")
    i = np.arange(k, m + 1)
    log_pmf = _binom_log_pmf(m, p, i)
    log_total = _logsumexp(log_pmf)
    if log_total < math.log(1e-300):
        raise ValidationError("conditioning event has probability below 1e-300")
    positive = i > 0
    log_num = _logsumexp(log_pmf[positive] + np.log(i[positive]))
    return float(math.exp(log_num - log_total))
