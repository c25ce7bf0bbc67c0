"""Independent brute-force ground truth.

Everything here recomputes a guarantee by a route separate from the module it
checks: the full optimal-public LP assembled from scratch in a pair-major
layout and solved exactly in rationals up to EXACT_MAX_COLUMNS phi columns
(``exact_ordering_lp``) or by HiGHS above, exhaustive partition search for
welfare caps on few-signal schemes, the closed binomial formulas for the
separation instance, and exact conditional expectations of binomial tails.
Nothing here solves an LP through the production solver code in ``lp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
# phi columns (states x pairs) up to which the optimal-public LP is solved
# exactly, in rationals: 10 states at n = 3.  Example 3 (12 columns) takes
# about 1 ms and a random 60-column LP 2-100 ms on a 2-core VM, but the cost
# grows steeply with the size, so larger LPs, such as the 300-column LPs of
# 50-state instances, go to HiGHS.
EXACT_MAX_COLUMNS = 60


def _pair_major(n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """The signals (i, j), i != j, and the ordering rows as (pair, a, b):
    for each pair its top row (i, j), then its second-vs-rest rows (j, k).
    Row (p, a, b) asks bidder a to beat bidder b in the posterior of pair p.
    Column p * |states| + s holds phi(s, pair p)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = [
        (p, a, b)
        for p, (i, j) in enumerate(pairs)
        for a, b in [(i, j)] + [(j, k) for k in range(n) if k not in (i, j)]
    ]
    return pairs, rows


def exact_ordering_lp(values, weights, slack) -> tuple[Fraction, tuple[tuple[Fraction, ...], ...]]:
    """The ordering LP over weighted value profiles, solved exactly.

    ``values`` is states x bidders and ``weights`` has one entry per state,
    each >= 0; both are read exactly, as the rationals their floats hold.
    The LP: maximise sum_s w_s v(s, j) phi(s, (i, j)) over phi >= 0 whose
    rows sum to 1, subject to every ordering row
    -sum_s w_s (v(s, a) - v(s, b)) phi(s, pair) <= slack.

    A dense tableau simplex over ``Fraction`` that prices by Bland's rule,
    so it cannot cycle (Bland 1977, Math. Oper. Res. 2(2)).  It starts from
    the no-information basis: every state on the pair (i, j) of the highest
    and second-highest weighted mean values, whose ordering rows those means
    meet, and every ordering row slack, which is feasible for any slack >= 0.

    Returns (optimum, phi): phi is states x pairs, pairs in the order
    (i, j) for i, then j != i, and is the basic solution of the optimal
    basis, so every row, a zero-weight state's included, sums to 1.  Raises
    ValidationError above EXACT_MAX_COLUMNS phi columns.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 2 or values.shape[1] < 2 or weights.shape != values.shape[:1]:
        raise ValidationError(
            f"need states x (>= 2 bidders) values and one weight per state, got "
            f"{values.shape} and {weights.shape}"
        )
    num_states, n = values.shape
    pairs, rows = _pair_major(n)
    num_cols = len(pairs) * num_states
    if num_cols > EXACT_MAX_COLUMNS:
        raise ValidationError(
            f"exact LP limited to {EXACT_MAX_COLUMNS} phi columns, got {num_cols}"
        )
    if not (np.isfinite(values).all() and np.isfinite(weights).all()):
        raise ValidationError("values and weights must be finite")
    if not ((weights >= 0).all() and 0 <= slack < math.inf):
        raise ValidationError("weights and the slack must be nonnegative and finite")
    w = [Fraction(x) for x in weights.tolist()]
    v = [[Fraction(x) for x in row] for row in values.tolist()]
    width = num_cols + len(rows) + 1  # phi columns, row slacks, right-hand side

    # constraint rows: row sums, then ordering rows; the last row is the
    # objective, holding reduced costs and, at the right, -objective
    tableau = []
    for s in range(num_states):
        row = [Fraction(0)] * width
        for p in range(len(pairs)):
            row[p * num_states + s] = Fraction(1)
        row[-1] = Fraction(1)
        tableau.append(row)
    for r, (p, a, b) in enumerate(rows):
        row = [Fraction(0)] * width
        for s in range(num_states):
            row[p * num_states + s] = -w[s] * (v[s][a] - v[s][b])
        row[num_cols + r] = Fraction(1)
        row[-1] = Fraction(slack)
        tableau.append(row)
    objective = [Fraction(0)] * width
    for p, (_, j) in enumerate(pairs):
        for s in range(num_states):
            objective[p * num_states + s] = w[s] * v[s][j]
    tableau.append(objective)

    means = [sum(w[s] * v[s][i] for s in range(num_states)) for i in range(n)]
    top, second = sorted(range(n), key=means.__getitem__, reverse=True)[:2]
    start = pairs.index((top, second))
    basis = [start * num_states + s for s in range(num_states)]
    basis += [num_cols + r for r in range(len(rows))]
    for s in range(num_states):
        _pivot(tableau, s, basis[s])

    while True:
        entering = next((c for c, d in enumerate(objective[:-1]) if d > 0), None)
        if entering is None:
            break
        # the LP is bounded (0 <= phi <= 1), so some row limits the step
        leaving = min(
            (row[-1] / row[entering], basis[r], r)
            for r, row in enumerate(tableau[:-1])
            if row[entering] > 0
        )[2]
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    phi = [[Fraction(0)] * len(pairs) for _ in range(num_states)]
    for r, col in enumerate(basis):
        if col < num_cols:
            p, s = divmod(col, num_states)
            phi[s][p] = tableau[r][-1]
    return -objective[-1], tuple(tuple(row) for row in phi)


def _pivot(tableau: list[list[Fraction]], r: int, c: int) -> None:
    """Make column c the unit vector of row r, in place."""
    row = tableau[r]
    if row[c] != 1:
        scale = row[c]
        row[:] = [x / scale for x in row]
    nonzero = [k for k, x in enumerate(row) if x]
    for i, other in enumerate(tableau):
        factor = other[c]
        if i != r and factor:
            for k in nonzero:
                other[k] -= factor * row[k]


def brute_force_public_optimal(instance: KvsInstance) -> tuple[PublicScheme, float]:
    """Exact optimal public scheme by solving the full LP over all states.

    Assembled independently of the production solver path, pair-major (see
    ``_pair_major``).  An LP of at most EXACT_MAX_COLUMNS phi columns is
    solved in rationals by ``exact_ordering_lp``; a larger one is built as
    CSR matrices and handed to HiGHS.
    """
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
    pairs, rows = _pair_major(n)
    num_pairs = len(pairs)
    if num_pairs * num_states <= EXACT_MAX_COLUMNS:
        optimum, exact_phi = exact_ordering_lp(values, lam, 0)
        phi, revenue = np.array(exact_phi, dtype=float), float(optimum)
    else:
        phi, revenue = _highs_public_optimal(lam, values, pairs, rows)
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
    return PublicScheme.explicit(table), revenue


def _highs_public_optimal(lam, values, pairs, rows) -> tuple[np.ndarray, float]:
    """(phi, objective) of the optimal-public LP at slack 0 by HiGHS."""
    from scipy.sparse import csr_matrix

    num_states = len(lam)
    num_pairs = len(pairs)
    num_vars = num_pairs * num_states
    c = np.concatenate([lam * values[:, j] for _, j in pairs])

    # each ordering row touches one pair's block
    ub_rows = np.repeat(np.arange(len(rows)), num_states)
    ub_cols = np.concatenate([np.arange(p * num_states, (p + 1) * num_states) for p, _, _ in rows])
    ub_vals = np.concatenate([-lam * (values[:, a] - values[:, b]) for _, a, b in rows])
    a_ub = csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(rows), num_vars))

    eq_rows = np.repeat(np.arange(num_states), num_pairs)
    eq_cols = np.concatenate([np.arange(s, num_vars, num_states) for s in range(num_states)])
    a_eq = csr_matrix(
        (np.ones(num_vars), (eq_rows, eq_cols)), shape=(num_states, num_vars)
    )

    res = linprog(
        -c,
        A_ub=a_ub,
        b_ub=np.zeros(len(rows)),
        A_eq=a_eq,
        b_eq=np.ones(num_states),
        bounds=[(0.0, 1.0)] * num_vars,
        method="highs",
    )
    if res.status != 0:
        raise SolverFailure(f"brute-force LP failed: {res.message}")
    phi = np.clip(res.x.reshape(num_pairs, num_states).T, 0.0, None)
    return phi, -float(res.fun)


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
