"""The known-valuation ordering LP and its solve contract.

An optimal public scheme in the known-valuation setting needs at most n(n-1)
signals: one signal pair(i, j) per ordered bidder pair, meaning bidder i ends
up with the top posterior value and j with the second.  Over weighted value
profiles the revenue of such a scheme is linear in the table phi(profile,
pair), so the optimum is one linear program.  The exact optimal public scheme
solves it on the prior masses; the sampled signaler solves it on an empirical
distribution with its ordering constraints slackened.  Both call
``solve_ordering_lp``, which hands the LP to the HiGHS backend shipped with
scipy and checks the solution before returning it.

scipy is imported on first use, not with this module, so that commands which
solve no LP start without it.  ``linprog`` below is the one module-level name
through which every solve here passes; wrap or replace it to observe or stub
the backend.
"""

from __future__ import annotations

import numpy as np

from .model import ValidationError

FEAS_TOL = 1e-7


class SolverFailure(RuntimeError):
    """The backend returned no optimal solution, or one that fails its
    residual check."""


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def signal_space(n: int) -> tuple[tuple[int, int], ...]:
    """All ordered bidder pairs (i, j), i != j; size n(n-1)."""
    if n < 2:
        raise ValidationError(f"need at least 2 bidders, got {n}")
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def solve_ordering_lp(values, weights, slack: float) -> tuple[np.ndarray, float]:
    """Solve the ordering LP over weighted value profiles.

    ``values`` is profiles x bidders and ``weights`` has one entry per
    profile.  Variables phi(s, pair(i,j)) lie in [0, 1] and each profile's row
    sums to 1.  The objective is the expected second value
    sum w_s * phi(s, (i,j)) * v_sj.  For every signal, bidder i beats j and j
    beats every other k in weighted expectation, up to ``slack``.

    Returns (phi, objective): phi is profiles x pairs in ``signal_space``
    order, clipped at 0.  Raises SolverFailure unless the solve is optimal and
    phi meets every row sum and ordering row within FEAS_TOL.
    """
    from scipy.sparse import csr_matrix

    values = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    num_states, n = values.shape
    pairs = signal_space(n)
    num_pairs = len(pairs)
    num_vars = num_states * num_pairs

    # state-major columns s * num_pairs + p; for each pair its top row, then
    # its second-vs-rest rows, each touching the pair's column in every state
    rows = [
        (p, a, b)
        for p, (i, j) in enumerate(pairs)
        for a, b in [(i, j)] + [(j, k) for k in range(n) if k not in (i, j)]
    ]
    row_pair = np.array([p for p, _, _ in rows])
    diffs = values[:, [a for _, a, _ in rows]] - values[:, [b for _, _, b in rows]]
    a_ub = csr_matrix(
        (
            -(w[:, None] * diffs).T.ravel(),
            (row_pair[:, None] + num_pairs * np.arange(num_states)).ravel(),
            num_states * np.arange(len(rows) + 1),
        ),
        shape=(len(rows), num_vars),
    )
    a_eq = csr_matrix(
        (np.ones(num_vars), np.arange(num_vars), num_pairs * np.arange(num_states + 1)),
        shape=(num_states, num_vars),
    )
    c = -(w[:, None] * values[:, [j for _, j in pairs]]).ravel()
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.full(len(rows), float(slack)),
        A_eq=a_eq,
        b_eq=np.ones(num_states),
        # phi <= 1 follows from the row sums, but HiGHS needs about twice
        # the iterations without it
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status != 0:
        raise SolverFailure(f"ordering LP: solver status {res.status}: {res.message}")
    phi = np.clip(res.x.reshape(num_states, num_pairs), 0.0, None)
    row_gap = float(np.abs(phi.sum(axis=1) - 1.0).max())
    order_gap = float((a_ub @ phi.ravel()).max()) - slack
    if row_gap > FEAS_TOL or order_gap > FEAS_TOL:
        raise SolverFailure(
            f"ordering LP: solution misses a row sum by {row_gap:.3g} "
            f"and an ordering row by {order_gap:.3g}"
        )
    return phi, -float(res.fun)
