"""Exact optimal public scheme in the known-valuation setting.

The optimum is the ordering LP of ``lp.solve_ordering_lp`` on the prior masses
with no slack: one signal pair(i, j) per ordered bidder pair, with bidder i
weakly on top and j weakly second in posterior expectation for every used
signal.
"""

from __future__ import annotations

import numpy as np

from .lp import signal_space, solve_ordering_lp
from .model import KvsInstance, PublicScheme, Signal, ValidationError

ALPHA_DROP = 1e-12  # signals with this little probability carry no posterior


def scheme_from_solution(instance: KvsInstance, phi: np.ndarray) -> PublicScheme:
    """Turn an LP solution table (states x pairs) into an explicit scheme.

    Signals whose total probability is (numerically) zero are dropped; the
    freed mass is renormalized back into each state's row.  Signal labels keep
    the (i, j) identity of the LP column even if a posterior tie would permit
    re-sorting.  A zero-mass state shapes no posterior, so if its whole row
    fell on dropped signals it is sent the first kept signal instead.
    """
    pairs = signal_space(instance.n)
    masses = instance.masses
    keep = np.flatnonzero(masses @ phi > ALPHA_DROP)
    table = {}
    for s, state in enumerate(instance.states):
        row = phi[s, keep]
        if row.sum() <= 0:
            if masses[s] > 0:
                raise ValidationError(
                    f"state {state.id}: all probability fell on dropped signals"
                )
            row = np.eye(len(keep))[0]
        row = row / row.sum()
        table[state.id] = {Signal.pair(*pairs[p]): float(q) for p, q in zip(keep, row)}
    return PublicScheme.explicit(table)


def solve_optimal_public(instance: KvsInstance) -> tuple[PublicScheme, float]:
    """Solve the exact LP and return (explicit scheme, optimal revenue)."""
    problems = instance.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    phi, revenue = solve_ordering_lp(instance.value_matrix, instance.masses, 0.0)
    return scheme_from_solution(instance, phi), revenue
