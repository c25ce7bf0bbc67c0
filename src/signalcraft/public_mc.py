"""Sampled-LP public signaling whose LP does not grow with |Theta|.

Given a realized state, the signaler plants it in a uniformly random slot of
K prior samples, solves the exact-public LP on the empirical distribution
with its ordering constraints slackened by eps/(2n^2), and emits the signal
drawn from the solved row of the planted state.  With K = (8 n^4 / eps^2) *
ln(4 n^3 / eps) the induced scheme loses at most eps of the optimal revenue
in expectation.

Identical sample states are collapsed into one weighted LP row, and states
no slot hit are left out, so the LP has at most min(K, |Theta|) rows of
phi.  The LP is symmetric across equal-valued rows, so averaging their
solutions changes neither feasibility nor the objective, and the collapsed
solution row is an optimal slot row for the planted state.  The prior mass
vector, the value matrix and the state-id index are built once per instance;
what still grows with |Theta| in one call is the multinomial draw of the
K - 1 prior samples and the length-|Theta| weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auction import max2
from .lp import signal_space, solve_ordering_lp
from .model import KvsInstance, Signal, ValidationError


def sample_count(n: int, eps: float) -> int:
    """Sample budget K guaranteeing an eps-optimal scheme (natural log)."""
    if n < 2:
        raise ValidationError(f"need at least 2 bidders, got {n}")
    if not (0 < eps <= 1):
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    return math.ceil(8 * n**4 / eps**2 * math.log(4 * n**3 / eps))


@dataclass(frozen=True)
class McConfig:
    epsilon: float
    seed: int
    k_override: int | None = None

    def k_for(self, n: int) -> int:
        if self.k_override is not None:
            if self.k_override < 1:
                raise ValidationError(f"K must be >= 1, got {self.k_override}")
            return self.k_override
        return sample_count(n, self.epsilon)

    @property
    def guarantee(self) -> bool:
        """True when the formula sample count is in force."""
        return self.k_override is None


def _empirical_weights(
    masses: np.ndarray, state_idx: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """K slots: the realized state in one, K-1 fresh prior samples in the rest."""
    counts = rng.multinomial(k - 1, masses) if k > 1 else np.zeros(
        len(masses), dtype=np.int64
    )
    counts = counts.astype(np.float64)
    counts[state_idx] += 1.0
    return counts / k


def _slack(eps: float, n: int) -> float:
    return eps / (2.0 * n * n)


def _draw_pair(
    phi: np.ndarray, support: np.ndarray, state_idx: int, rng: np.random.Generator
) -> int:
    """Pair index drawn from the solved row of the realized state."""
    row = phi[np.searchsorted(support, state_idx)]
    return int(rng.choice(row.size, p=row / row.sum()))


def _solve_and_draw(
    instance: KvsInstance, state_idx: int, k: int, slack: float, rng: np.random.Generator
):
    """One signaling trial for a realized state: the drawn pair index, the
    empirical weights, their support, the support's phi and the LP objective."""
    weights = _empirical_weights(instance.masses, state_idx, k, rng)
    support = np.flatnonzero(weights)
    phi, objective = solve_ordering_lp(
        instance.value_matrix[support], weights[support], slack
    )
    pair_idx = _draw_pair(phi, support, state_idx, rng)
    return pair_idx, weights, support, phi, objective


@dataclass
class SignalDetails:
    signal: Signal
    weights: np.ndarray
    phi: np.ndarray
    lp_objective: float
    k: int


def mc_signal(
    instance: KvsInstance,
    state_id: str,
    config: McConfig,
    rng: np.random.Generator | None = None,
    detail: bool = False,
):
    """One signaling invocation for a realized state.

    Draws the empirical distribution, solves the relaxed LP fresh on the
    states it puts weight on (no caching across calls: the guarantee is per
    invocation), and samples the signal from the solved row of the realized
    state.  With ``detail`` the returned phi has one row per instance state,
    zero off the support.
    """
    state_idx = instance.state_index.get(state_id)
    if state_idx is None:
        raise ValidationError(f"no state with id {state_id!r}")
    if instance.states[state_idx].mass <= 0:
        raise ValidationError(f"state {state_id!r} has zero prior mass")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    k = config.k_for(instance.n)
    pair_idx, weights, support, phi, objective = _solve_and_draw(
        instance, state_idx, k, _slack(config.epsilon, instance.n), rng
    )
    signal = Signal.pair(*signal_space(instance.n)[pair_idx])
    if detail:
        full = np.zeros((len(weights), phi.shape[1]))
        full[support] = phi
        return SignalDetails(signal, weights, full, objective, k)
    return signal


@dataclass(frozen=True)
class McEvaluation:
    estimate: float
    std_error: float
    trials: int
    k: int
    guarantee: bool


def evaluate_mc_scheme(
    instance: KvsInstance, config: McConfig, trials: int
) -> McEvaluation:
    """Estimate the revenue of the scheme induced by repeated signaling.

    Each trial draws a state from the prior and runs one signaling
    invocation.  Revenue bookkeeping applies the public-revenue formula to
    the empirical joint of (state, signal): every signal's posterior value
    vector is estimated from the trials that emitted it, and the estimate is
    the mean over trials of the second-highest posterior value at the
    emitted signal.  Each trial draws from its own spawned seed.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    num_states = len(instance.states)
    num_pairs = len(signal_space(instance.n))
    slack = _slack(config.epsilon, instance.n)
    k = config.k_for(instance.n)

    outcomes = []
    for seed in np.random.SeedSequence(config.seed).spawn(trials):
        rng = np.random.default_rng(seed)
        s_idx = int(rng.choice(num_states, p=instance.masses))
        outcomes.append((s_idx, _solve_and_draw(instance, s_idx, k, slack, rng)[0]))
    states, pairs = np.array(outcomes).T

    # empirical joint of (state index, pair index) over the trials
    joint = np.zeros((num_states, num_pairs))
    np.add.at(joint, (states, pairs), 1.0)

    sig_revenue = np.zeros(num_pairs)
    for p in range(num_pairs):
        col = joint[:, p]
        total = col.sum()
        if total > 0:
            sig_revenue[p] = max2(col @ instance.value_matrix / total)
    per_trial = sig_revenue[pairs]
    se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    return McEvaluation(float(per_trial.mean()), se, trials, k, config.guarantee)
