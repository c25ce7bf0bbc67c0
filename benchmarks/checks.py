"""Output checks for the benchmark, built apart from the package under test.

Nothing here imports ``signalcraft``.  Every reference value is recomputed
from the benchmark's own generated inputs: the ordering LP is assembled
pair-major over the support of the weights and handed straight to scipy's
HiGHS, the Theorem-5 bound and the uninformed bidder's best responses are
worked out in plain Python, and the binomial formulas use ``math.comb`` and
``math.lgamma``.  scipy is imported inside the LP function so that loading
this module adds nothing to the set-up time of a workload.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
import re

import numpy as np

OBJECTIVE_TOL = 1e-7  # sampled LP objective vs the benchmark's own LP
REVENUE_TOL = 1e-9  # revenues the program prints or returns vs own arithmetic
BOUND_TOL = 1e-6  # aggregate private revenue vs the Theorem-5 bound
TIE_TOL = 1e-12  # utilities this close count as tied best responses


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def second_highest(values) -> float:
    top = sorted((float(x) for x in values), reverse=True)
    return top[1] if len(top) > 1 else 0.0


# ---------------------------------------------------------------------------
# Public signaling
# ---------------------------------------------------------------------------


def ordering_lp_optimum(values: np.ndarray, weights: np.ndarray, slack: float) -> float:
    """Optimum of the public ordering LP on a weighted state set.

    Variables phi[p, s] >= 0 (pair-major, support states only); each state's
    row sums to 1; for every pair (i, j), bidder i beats j and j beats every
    other k in weighted sum, up to ``slack``.  States of weight 0 touch neither
    the objective nor a constraint, so they are left out.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    support = np.flatnonzero(weights > 0)
    v = values[support]
    w = weights[support]
    num_states, n = v.shape
    pairs = ordered_pairs(n)
    num_vars = len(pairs) * num_states

    c = np.concatenate([-w * v[:, j] for _, j in pairs])
    rows, cols, coefs = [], [], []
    r = 0
    for p, (i, j) in enumerate(pairs):
        block = np.arange(p * num_states, (p + 1) * num_states)
        for a, b in [(i, j)] + [(j, k) for k in range(n) if k not in (i, j)]:
            rows.append(np.full(num_states, r))
            cols.append(block)
            coefs.append(-w * (v[:, a] - v[:, b]))
            r += 1
    a_ub = coo_matrix(
        (np.concatenate(coefs), (np.concatenate(rows), np.concatenate(cols))),
        shape=(r, num_vars),
    ).tocsr()
    a_eq = coo_matrix(
        (
            np.ones(num_vars),
            (np.tile(np.arange(num_states), len(pairs)), np.arange(num_vars)),
        ),
        shape=(num_states, num_vars),
    ).tocsr()
    res = linprog(
        c, A_ub=a_ub, b_ub=np.full(r, float(slack)), A_eq=a_eq,
        b_eq=np.ones(num_states), bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def check_pair_signal(kind: str, payload, n: int) -> list[str]:
    """The signal must be pair(i, j) with two distinct existing bidders."""
    if kind != "pair":
        return [f"signal kind {kind!r} is not 'pair'"]
    try:
        i, j = (int(x) for x in payload)
    except (TypeError, ValueError):
        return [f"pair payload {payload!r} is not two bidder indices"]
    problems = []
    if i == j:
        problems.append(f"pair({i}, {j}) names one bidder twice")
    if not (0 <= i < n and 0 <= j < n):
        problems.append(f"pair({i}, {j}) names a bidder outside 0..{n - 1}")
    return problems


def check_empirical_weights(weights, state_idx: int, k: int, num_states: int) -> list[str]:
    """``weights`` must be a K-slot empirical distribution holding the state."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (num_states,):
        return [f"weights have shape {w.shape}, expected ({num_states},)"]
    slots = w * k
    problems = []
    if np.any(w < 0):
        problems.append("negative empirical weight")
    if np.max(np.abs(slots - np.round(slots))) > 1e-6:
        problems.append(f"weights are not multiples of 1/K (K={k})")
    if abs(float(np.round(slots).sum()) - k) > 0.5:
        problems.append(f"weights fill {slots.sum():.3f} slots, expected {k}")
    if round(float(slots[state_idx])) < 1:
        problems.append(f"realized state {state_idx} holds no slot")
    return problems


def check_lp_objective(
    objective: float, values, weights, eps: float
) -> list[str]:
    """The sampled LP's objective equals the relaxed optimum on the same
    weights and is at least the unrelaxed optimum there."""
    n = np.asarray(values).shape[1]
    relaxed = ordering_lp_optimum(values, weights, eps / (2.0 * n * n))
    exact = ordering_lp_optimum(values, weights, 0.0)
    problems = []
    if abs(objective - relaxed) > OBJECTIVE_TOL:
        problems.append(
            f"lp_objective {objective:.12g} != relaxed optimum {relaxed:.12g}"
        )
    if objective < exact - OBJECTIVE_TOL:
        problems.append(
            f"lp_objective {objective:.12g} < unrelaxed optimum {exact:.12g}"
        )
    return problems


def empirical_public_revenue(values, states, pairs) -> tuple[float, float]:
    """Revenue of the scheme seen through its (state, signal) draws.

    Each signal's posterior value vector is the mean value profile of the
    draws that emitted it; each draw earns the second-highest entry of its
    signal's posterior.  Returns (mean, standard error).
    """
    values = np.asarray(values, dtype=float)
    by_signal: dict = {}
    for s, p in zip(states, pairs):
        by_signal.setdefault(tuple(p), []).append(int(s))
    per_draw = []
    for members in by_signal.values():
        posterior = values[members].mean(axis=0)
        per_draw.extend([second_highest(posterior)] * len(members))
    x = np.asarray(per_draw)
    if x.size < 2:
        return float(x.mean()), math.inf
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def check_public_revenue(estimate: float, se: float, optimum: float, eps: float) -> list[str]:
    """The sampled scheme loses at most eps of the optimum (4 standard errors)."""
    floor = optimum - eps - 4.0 * se
    if estimate < floor:
        return [
            f"revenue {estimate:.6f} below optimum {optimum:.6f} - eps {eps} - 4se "
            f"(floor {floor:.6f})"
        ]
    return []


# ---------------------------------------------------------------------------
# Private scheme
# ---------------------------------------------------------------------------


def theorem5_bound(masses, values, eps: float) -> float:
    """Full surplus, minus the strongest bidder's excess over the runner-up's
    best support value, minus eps.  Ties go to the lowest bidder index."""
    masses = [float(m) for m in masses]
    rows = [[float(x) for x in v] for v in values]
    n = len(rows[0])
    best = [max(row[i] for row in rows) for i in range(n)]
    i_star = max(range(n), key=lambda i: (best[i], -i))
    runner_up = max(best[i] for i in range(n) if i != i_star)
    total = 0.0
    for m, row in zip(masses, rows):
        total += m * (max(row) - max(row[i_star] - runner_up, 0.0))
    return total - eps


def worst_uninformed_revenue(v, u, j: int, delta: float) -> float:
    """Worst expected revenue over bidder j's best responses when he believes
    profile v with mass 1-delta and u with mass delta, and everyone else bids
    truthfully.

    A bid strictly between two consecutive opponent highs wins exactly the
    profiles whose opponent high is at or below the lower one (ties lose), so
    the bid line splits into finitely many pieces; utility is constant on each
    and revenue rises with the bid, so the worst revenue over a best piece is
    its value at the piece's lower end.
    """
    posterior = [(1.0 - delta, [float(x) for x in v]), (delta, [float(x) for x in u])]
    opp = [max(x for k, x in enumerate(p) if k != j) for _, p in posterior]
    cuts = sorted(set([0.0] + opp))
    pieces = []
    for lo in cuts:
        utility = sum(
            mass * (p[j] - o) for (mass, p), o in zip(posterior, opp) if o <= lo
        )
        revenue = 0.0
        for mass, p in posterior:
            bids = list(p)
            bids[j] = lo
            revenue += mass * second_highest(bids)
        pieces.append((utility, revenue))
    best = max(ut for ut, _ in pieces)
    return min(rev for ut, rev in pieces if ut >= best - TIE_TOL)


def check_private_design(
    result, masses, values, state_ids, eps: float
) -> list[str]:
    """Revenue bounds and per-plan worst revenues of one private design."""
    problems = []
    bound = theorem5_bound(masses, values, eps)
    if result.aggregate_revenue < bound - BOUND_TOL:
        problems.append(
            f"aggregate revenue {result.aggregate_revenue:.9f} < Theorem-5 bound {bound:.9f}"
        )
    floor = bound - 4.0 * result.simulated_se
    if result.simulated_revenue < floor:
        problems.append(
            f"simulated revenue {result.simulated_revenue:.6f} < bound - 4se {floor:.6f}"
        )
    profile = {sid: row for sid, row in zip(state_ids, values)}
    if sorted(p.state_id for p in result.plans) != sorted(state_ids):
        problems.append("plans do not cover every state exactly once")
        return problems
    for plan in result.plans:
        v = profile[plan.state_id]
        if plan.choice == "full_reveal":
            expected = second_highest(v)
        else:
            expected = worst_uninformed_revenue(v, plan.u, plan.uninformed, plan.delta)
        if abs(plan.worst_revenue - expected) > REVENUE_TOL:
            problems.append(
                f"state {plan.state_id} ({plan.choice}): worst_revenue "
                f"{plan.worst_revenue:.12g} != {expected:.12g}"
            )
    return problems


# ---------------------------------------------------------------------------
# Closed formulas behind the oracle subcommands
# ---------------------------------------------------------------------------


def theorem2_exact(n: int, eps: float) -> float:
    """Full-information revenue of the separation instance: the chance that at
    least two of the i targeted bidders draw the unit value (each with
    probability 1/sqrt(n)), averaged over i ~ Binomial(n, eps)."""
    p = 1.0 / math.sqrt(n)
    q = 1.0 - p
    total = 0.0
    for i in range(n + 1):
        weight = math.comb(n, i) * eps**i * (1.0 - eps) ** (n - i)
        at_least_two = 1.0 - q**i - (i * p * q ** (i - 1) if i >= 1 else 0.0)
        total += weight * at_least_two
    return total


def binomial_tail_mean(m: int, p: float, k: int) -> float:
    """E[X | X >= k] for X ~ Binomial(m, p), summed in log space with lgamma."""
    logs = [
        math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
        + i * math.log(p) + (m - i) * math.log(1.0 - p)
        for i in range(k, m + 1)
    ]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(i * w for i, w in zip(range(k, m + 1), weights)) / sum(weights)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Command-line output
# ---------------------------------------------------------------------------

_NUMBER = r"([-+0-9.eE]+|inf|nan)"


def parse_number(pattern: str, text: str) -> float:
    """First number captured by ``pattern`` (which holds the token NUM)."""
    match = re.search(pattern.replace("NUM", _NUMBER), text)
    if match is None:
        raise ValueError(f"output does not match {pattern!r}: {text.strip()!r}")
    return float(match.group(1))


def parse_compare(text: str) -> dict[str, float]:
    table = {}
    for line in text.splitlines():
        name, sep, value = line.partition(":")
        if sep:
            table[name.strip()] = float(value)
    return table


def check_pair_label(text: str, n: int) -> list[str]:
    match = re.search(r"signal: top(\d+)_second(\d+)", text)
    if match is None:
        return [f"no pair signal in {text.strip()!r}"]
    return check_pair_signal("pair", (int(match.group(1)) - 1, int(match.group(2)) - 1), n)
