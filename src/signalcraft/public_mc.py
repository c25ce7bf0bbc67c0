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

When K >= |Theta| and every state has mass, a draw's LP is the LP on every
state with weights within O(1/sqrt(K)) of the prior masses (a state no
sample hit has weight 0), so an optimal face of the LP on the prior masses
usually stays optimal.  Every such draw first tries that face, solved once
per (instance, slack) and kept on the instance, and takes its point on the
sampled states when a dual certificate proves it optimal there.  A draw the
prior face refutes tries, in a fixed order, a family of at most
FAMILY_FACES faces from the first FAMILY fixed K-sample draws of a
generator with a constant seed.  Draws and faces are both built lazily: a
family draw is drawn only when the family needs it, and it costs a cold
solve only when no earlier face certifies it; the family draws no more
once it holds FAMILY_FACES faces, and it opens only if the prior face
certifies at least one of its draws.  A draw that no face serves is solved
cold.  The faces depend on the instance, the slack and K alone, so every
output is still a function of the instance, the state, the config and the
seed, whatever ran before.
With K < |Theta| (many states) no face is built and no call pays an
O(|Theta|) certificate.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .auction import max2
from .lp import SolverFailure, optimal_face, signal_space, solve_ordering_lp
from .model import KvsInstance, Signal, ValidationError

FAMILY = 256  # draws behind the prior face, per (instance, slack, K)
FAMILY_FACES = 32  # faces a family builds: at most 32 more cold solves per (instance, slack, K)
FAMILY_SEED = 918_273_645  # the family's own seed, never a config's


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


def _prior_face(instance: KvsInstance, slack: float):
    """The optimal face of the LP on every state at the prior masses, solved
    once per (instance, slack) and kept on the instance; None when that LP
    fails to solve."""
    faces = instance.prior_faces
    if slack not in faces:
        try:
            faces[slack] = optimal_face(instance.value_matrix, instance.masses, slack)
        except SolverFailure:  # the caller's cold solve reports a real failure
            faces[slack] = None
    return faces[slack]


def _family_draws(masses: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """The empirical weights of FAMILY draws of K prior samples each, from a
    generator with a constant seed, drawn one at a time as they are asked
    for: fixed by the masses and K alone."""
    rng = np.random.default_rng(FAMILY_SEED)
    for _ in range(FAMILY):
        yield rng.multinomial(k, masses) / k


class _FaceFamily:
    """Optimal faces of fixed K-sample draws, tried in order on a draw the
    prior face refutes.

    Family draw i gets a face, from one cold solve, unless the prior face or
    an earlier family face certifies it.  Draws are drawn and faces built
    lazily, in draw order, the first time a draw reaches them, and the
    family stops drawing once it holds FAMILY_FACES faces, so which faces
    exist and which one serves a draw depend on the values, masses, K and
    slack alone, not on how far earlier calls built the family.  Every face
    shares the prior face's ordering LP.
    """

    def __init__(self, values: np.ndarray, masses: np.ndarray, prior, k: int, slack: float):
        self.values, self.slack = values, slack
        self.faces = [prior]  # the prior face, then the family's faces
        self.pending = _family_draws(masses, k)  # draws not yet given a face or skipped

    @classmethod
    def open(cls, values, masses, prior, k: int, slack: float):
        """The family behind ``prior``, or None when the prior face certifies
        none of its draws: then the draws are too far apart for a handful of
        faces to cover them."""
        if all(prior.certify(d) is None for d in _family_draws(masses, k)):
            return None
        return cls(values, masses, prior, k, slack)

    def certify(self, weights: np.ndarray):
        """(phi, objective) from the first family face that certifies
        ``weights``, building faces as it goes; None when none does."""
        i = 1
        while i < len(self.faces) or self._grow():
            found = self.faces[i].certify(weights)
            if found is not None:
                return found
            i += 1
        return None

    def _grow(self) -> bool:
        """Settle pending draws in order until one adds a face; False when
        no draw is left or the family is full."""
        if len(self.faces) > FAMILY_FACES:
            return False
        lp = self.faces[0].lp
        for draw in self.pending:
            if all(face.certify(draw) is None for face in self.faces):
                try:
                    self.faces.append(optimal_face(self.values, draw, self.slack, lp))
                    return True
                except SolverFailure:  # this draw keeps no face
                    pass
        return False


def _face_solution(instance: KvsInstance, weights: np.ndarray, k: int, slack: float):
    """(support phi, objective) from the first certified face, the prior face
    first and then its family, or None when every face refutes ``weights``."""
    prior = _prior_face(instance, slack)
    if prior is None:
        return None
    found = prior.certify(weights)
    if found is None:
        families = instance.face_families
        if (slack, k) not in families:
            families[slack, k] = _FaceFamily.open(
                instance.value_matrix, instance.masses, prior, k, slack
            )
        family = families[slack, k]
        if family is not None:
            found = family.certify(weights)
    return found


def _solve_sampled(instance: KvsInstance, weights: np.ndarray, k: int, slack: float):
    """The sampled LP on the support of ``weights``: (support, phi, objective).

    When K >= |Theta| and every state has positive mass, the draw, whether
    or not it hits every state, takes the support's point of the first
    certified face: the prior face, then its family (see the module
    docstring).  A draw that no face serves, and every draw otherwise, is
    solved cold."""
    support = np.flatnonzero(weights)
    found = None
    if k >= len(weights) and instance.masses.all():
        found = _face_solution(instance, weights, k, slack)
    if found is None:
        found = solve_ordering_lp(instance.value_matrix[support], weights[support], slack)
    return (support, *found)


def _solve_and_draw(
    instance: KvsInstance, state_idx: int, k: int, slack: float, rng: np.random.Generator
):
    """One signaling trial for a realized state: the drawn pair index, the
    empirical weights, their support, the support's phi and the LP objective."""
    weights = _empirical_weights(instance.masses, state_idx, k, rng)
    support, phi, objective = _solve_sampled(instance, weights, k, slack)
    pair_idx = _draw_pair(phi, support, state_idx, rng)
    return pair_idx, weights, support, phi, objective


@dataclass
class SignalDetails:
    """One signaling call: the signal, the empirical weights over every
    state, the support they put weight on, the solved phi of the support's
    states, the LP objective and the sample count K."""

    signal: Signal
    weights: np.ndarray
    support: np.ndarray
    support_phi: np.ndarray
    lp_objective: float
    k: int

    @property
    def phi(self) -> np.ndarray:
        """phi with one row per instance state, zero off the support; built
        on each read."""
        full = np.zeros((len(self.weights), self.support_phi.shape[1]))
        full[self.support] = self.support_phi
        return full


def mc_signal(
    instance: KvsInstance,
    state_id: str,
    config: McConfig,
    rng: np.random.Generator | None = None,
    detail: bool = False,
):
    """One signaling invocation for a realized state.

    Draws the empirical distribution, solves the relaxed LP on the states it
    puts weight on, and samples the signal from the solved row of the
    realized state.  When K >= |Theta| and every state has mass, the draw
    takes the point of the first of the instance's faces, the prior face and
    then its fixed family, that a certificate proves optimal (see the module
    docstring); any other draw is solved cold.  Nothing is carried from one
    call to the next but those faces, which depend on the instance, the
    slack and K alone, so the guarantee stays per invocation.  With
    ``detail`` the result keeps the support's phi and indices; its ``phi``
    has one row per instance state, zero off the support.
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
        return SignalDetails(signal, weights, support, phi, objective, k)
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
    emitted signal.  Each trial draws from its own spawned seed and solves
    exactly as ``mc_signal`` does, so the estimate is a function of the
    instance, the config and the trial count alone.

    ``std_error`` is the spread of the per-trial revenues over
    sqrt(trials).  It leaves out the noise of estimating each signal's
    posterior from the same trials, so it understates the estimate's real
    spread: by 2-4x on 50-state instances (over 40 seeds of 1,000 trials at
    formula K the estimates' standard deviation was 0.0051-0.0099 where the
    reported errors averaged 0.0019-0.0031), about 7x on 2,000 states with
    K = 200 (sd 0.0045 over 8 seeds of 1,000 trials at eps 0.2, against a
    reported 0.0006), and 7-17x on example 3 (eps 0.2, 300 trials, 20 seeds,
    K from 5 to 1,000: sd 0.0123-0.0124 against 0.0007-0.0017).
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
