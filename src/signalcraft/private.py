"""Private signaling in the known-valuation setting.

Here the auctioneer may send different signals to different bidders.  Keeping
one carefully chosen bidder uninformed while everyone else learns the state
exactly can force that bidder to bid aggressively: if his posterior mixes the
realized profile v with a low-probability auxiliary profile u in which he
holds the unique top value, his only profitable bids outbid the second value
of u, and that holds in every Bayes Nash equilibrium in which bidders with a
dominant strategy play it truthfully.

The per-state plan builds such an auxiliary u as a two-point mixture of
support profiles, books the mixture mass against those profiles' prior
masses, and certifies each plan by exact worst-case best-response analysis of
the uninformed bidder.  The scheme's revenue is that of the scheme as played,
lent mass included, computed exactly over its finite outcome distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auction import max2
from .model import KvsInstance, ValidationError

_TIE_TOL = 1e-12


class StructureError(ValidationError):
    """A two-profile structure violates the conditions that force high bids."""


class DegenerateProfileError(ValidationError):
    """The realized profile is all zeros; no construction applies."""


class FullSupportError(ValidationError):
    """A needed support profile has zero prior mass and no substitute exists."""


# ---------------------------------------------------------------------------
# Best-response analysis of the uninformed bidder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestResponseAnalysis:
    """Piecewise-constant expected utility of the uninformed bidder's bid.

    ``intervals`` partitions [0, inf) into half-open pieces [lo, hi) whose
    utility is that of any interior bid; exact ties against an informed bid
    lose, so a boundary bid behaves like the piece below it and the reported
    best-response set excludes it.
    """

    breakpoints: tuple[float, ...]
    intervals: tuple[tuple[float, float, float], ...]  # (lo, hi, utility)
    best: tuple[tuple[float, float], ...]
    max_utility: float


def uninformed_best_response(
    posterior, j: int, informed_bids=None
) -> BestResponseAnalysis:
    """Utility landscape for bidder j facing a finite posterior over profiles.

    ``posterior`` is a list of (mass, profile); informed bidders bid their
    true values at each profile unless explicit per-profile bids are given.
    """
    if not posterior:
        raise ValidationError("posterior must contain at least one profile")
    masses = np.array([m for m, _ in posterior], dtype=float)
    profiles = [np.asarray(p, dtype=float) for _, p in posterior]
    n = profiles[0].size
    if not (0 <= j < n):
        raise ValidationError(f"bidder index {j} out of range")
    if informed_bids is None:
        informed_bids = [np.delete(p, j) for p in profiles]
    else:
        informed_bids = [np.asarray(b, dtype=float) for b in informed_bids]
    opp_max = np.array([b.max() if b.size else 0.0 for b in informed_bids])
    own_value = np.array([p[j] for p in profiles])

    gain = masses * (own_value - opp_max)
    edges = sorted(set(float(m) for m in opp_max))
    intervals = []
    scales = []  # each piece's sum of |terms|, the scale of its rounding
    if edges[0] > 0.0:
        intervals.append((0.0, edges[0], 0.0))
        scales.append(0.0)
    for r, lo in enumerate(edges):
        hi = edges[r + 1] if r + 1 < len(edges) else math.inf
        beaten = opp_max <= lo + _TIE_TOL
        intervals.append((lo, hi, float(gain[beaten].sum())))
        scales.append(float(np.abs(gain[beaten]).sum()))

    top = max(range(len(intervals)), key=lambda k: intervals[k][2])
    max_utility = intervals[top][2]
    # a tie is judged relative to the terms the two utilities sum, so that
    # scaling every mass by one factor leaves the best set as it is
    best = tuple(
        (lo, hi)
        for (lo, hi, u), scale in zip(intervals, scales)
        if u >= max_utility - _TIE_TOL * max(scale, scales[top])
    )
    return BestResponseAnalysis(
        tuple(edges), tuple(intervals), best, max_utility
    )


# ---------------------------------------------------------------------------
# Two-profile structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoProfileStructure:
    """Posterior of the uninformed bidder: profile v with mass 1-delta and
    auxiliary profile u with mass delta."""

    v: tuple[float, ...]
    u: tuple[float, ...]
    uninformed: int
    delta: float

    def check(self) -> None:
        v = np.asarray(self.v, dtype=float)
        u = np.asarray(self.u, dtype=float)
        j = self.uninformed
        if v.size != u.size or v.size < 2:
            raise StructureError("profiles must share a length of at least 2")
        if not (0 <= j < v.size):
            raise StructureError(f"uninformed bidder {j} out of range")
        if not (0.0 < self.delta < 1.0):
            raise StructureError(f"delta must lie in (0, 1), got {self.delta}")
        if np.any(v < 0) or np.any(u < 0):
            raise StructureError("values must be nonnegative")
        u_others = np.delete(u, j)
        if not u[j] > u_others.max() + 0.0:
            raise StructureError(
                "uninformed bidder must hold the unique maximum of the auxiliary profile"
            )
        v_others = np.delete(v, j)
        if v_others.max() < v.max() - _TIE_TOL:
            raise StructureError(
                "some informed bidder must hold the top value of the main profile"
            )
        if not u_others.max() < v.max() - 0.0:
            raise StructureError(
                "the auxiliary second value must fall strictly below the main top value"
            )

    @property
    def floor(self) -> float:
        """Guaranteed worst-equilibrium revenue: the auxiliary second value."""
        u = np.asarray(self.u)
        return float(np.delete(u, self.uninformed).max())


def _price_with_bid(profile, j: int, b: float) -> float:
    """Second price when bidder j bids b and everyone else bids their value."""
    bids = np.asarray(profile, dtype=float).copy()
    bids[j] = b
    return max2(bids)


def _revenue_at_bid(structure: TwoProfileStructure, b: float) -> float:
    return (1.0 - structure.delta) * _price_with_bid(
        structure.v, structure.uninformed, b
    ) + structure.delta * _price_with_bid(structure.u, structure.uninformed, b)


def worst_bne_revenue_and_bid(structure: TwoProfileStructure) -> tuple[float, float]:
    """Minimum expected revenue over the uninformed bidder's best responses.

    Expected revenue is nondecreasing in his bid, so the minimum over the
    closure of each best-response interval sits at its left endpoint; an
    unattained infimum (open endpoint) is reported as the infimum.
    """
    structure.check()
    analysis = uninformed_best_response(
        [(1.0 - structure.delta, structure.v), (structure.delta, structure.u)],
        structure.uninformed,
    )
    candidates = [lo for lo, _ in analysis.best]
    revenues = [_revenue_at_bid(structure, b) for b in candidates]
    worst = int(np.argmin(revenues))
    return float(revenues[worst]), float(candidates[worst])


# ---------------------------------------------------------------------------
# Auxiliary-profile construction
# ---------------------------------------------------------------------------


def _argmax_set(v: np.ndarray) -> list[int]:
    top = v.max()
    return [i for i in range(v.size) if v[i] >= top - _TIE_TOL]


def classify_case(v, i_star: int, rho_sstar: float) -> int:
    """Which construction applies to realized profile v.

    0: the top value of v is shared.  Otherwise, with b = v[i_star] (the
    globally strongest bidder's value here): 1 if b <= rho_sstar and b is not
    the top of v; 2 if b <= rho_sstar and b is the top; 3 if b > rho_sstar.
    """
    v = np.asarray(v, dtype=float)
    if v.max() <= 0.0:
        raise DegenerateProfileError("all-zero profile: no construction applies")
    if len(_argmax_set(v)) > 1:
        return 0
    if v[i_star] <= rho_sstar + _TIE_TOL:
        return 2 if v[i_star] >= v.max() - _TIE_TOL else 1
    return 3


@dataclass(frozen=True)
class AuxiliaryConstruction:
    """Mixture recipe u = q*w1 + (1-q)*w2 and the bidder kept uninformed."""

    case_id: int
    w1: tuple[float, ...]
    w2: tuple[float, ...]
    q: float
    u: tuple[float, ...]
    uninformed: int

    def check(self, supports=None) -> None:
        if not (0.0 < self.q < 1.0):
            raise StructureError(f"mixture weight must lie in (0, 1), got {self.q}")
        w1 = np.asarray(self.w1)
        w2 = np.asarray(self.w2)
        u = np.asarray(self.u)
        if np.max(np.abs(u - (self.q * w1 + (1 - self.q) * w2))) > _TIE_TOL:
            raise StructureError("mixture identity violated")
        if supports is not None:
            for name, w in (("w1", w1), ("w2", w2)):
                for i, x in enumerate(w):
                    if not any(abs(x - s) <= _TIE_TOL for s in supports[i]):
                        raise StructureError(
                            f"{name} needs value {x} for bidder {i+1}, "
                            "which is outside that bidder's support"
                        )


def build_auxiliary(
    v,
    case_id: int,
    rho_star: float,
    i_star: int,
    rho_sstar: float,
    i_sstar: int,
    eps: float,
    supports=None,
) -> AuxiliaryConstruction:
    """Build the auxiliary profile for one realized profile.

    The mixture pulls the target bidder's top value down by eps (cases 0-2)
    or down to just under the runner-up support value (case 3), leaving the
    designated uninformed bidder with the unique maximum of u.
    """
    v = np.asarray(v, dtype=float)
    v1 = float(v.max())
    if case_id in (0, 1, 2) and not (0.0 < eps < v1):
        raise ValidationError(f"eps must lie in (0, {v1}), got {eps}")

    if case_id == 0:
        tied = _argmax_set(v)
        if len(tied) < 2:
            raise StructureError("case 0 needs a shared top value")
        top = max(tied)
        w1 = v.copy()
        w2 = v.copy()
        for i in tied:
            if i != top:
                w2[i] = 0.0
        q = 1.0 - eps / v1
        j = top
    elif case_id == 1:
        top = int(np.argmax(v))
        w1 = v.copy()
        w1[i_star] = rho_star
        w2 = w1.copy()
        w2[top] = 0.0
        q = 1.0 - eps / v1
        j = i_star
    elif case_id in (2, 3):
        w1 = v.copy()
        w1[i_sstar] = rho_sstar
        w1[i_star] = rho_star
        w2 = w1.copy()
        w2[i_star] = 0.0
        if case_id == 2:
            q = (v1 - eps) / rho_star
        else:
            if not (0.0 < eps < rho_sstar):
                raise ValidationError(
                    f"eps must lie in (0, {rho_sstar}) for case 3, got {eps}"
                )
            q = (rho_sstar - eps) / rho_star
        j = i_sstar
    else:
        raise ValidationError(f"unknown case id {case_id}")

    u = q * w1 + (1.0 - q) * w2
    aux = AuxiliaryConstruction(
        case_id,
        tuple(float(x) for x in w1),
        tuple(float(x) for x in w2),
        float(q),
        tuple(float(x) for x in u),
        int(j),
    )
    aux.check(supports=supports)
    return aux


# ---------------------------------------------------------------------------
# Instance-level quantities
# ---------------------------------------------------------------------------


def strongest_bidders(instance: KvsInstance) -> tuple[float, int, float, int]:
    """(rho*, i*, rho**, i**): the top support value and its bidder, and the
    top support value excluding that bidder.  Ties go to the lowest index."""
    values = instance.value_matrix
    col_max = values.max(axis=0)
    rho_star = float(col_max.max())
    i_star = int(np.argmax(col_max))
    rest = np.delete(col_max, i_star)
    if rest.size == 0:
        return rho_star, i_star, 0.0, i_star
    rho_sstar = float(rest.max())
    others = [i for i in range(instance.n) if i != i_star]
    i_sstar = others[int(np.argmax(rest))]
    return rho_star, i_star, rho_sstar, i_sstar


def bidder_supports(instance: KvsInstance) -> list[list[float]]:
    values = instance.value_matrix
    return [sorted(set(values[:, i].tolist())) for i in range(instance.n)]


def check_theorem5_assumptions(instance: KvsInstance) -> list[str]:
    """Warnings for the full-surplus guarantee's preconditions: every bidder
    support contains 0 and the prior charges the entire support lattice."""
    warnings = []
    supports = bidder_supports(instance)
    for i, sup in enumerate(supports):
        if not any(abs(s) <= _TIE_TOL for s in sup):
            warnings.append(f"bidder {i+1} support lacks the value 0")
    lattice_size = 1
    for sup in supports:
        lattice_size *= len(sup)
    if lattice_size > 10**6:
        warnings.append("support lattice too large to verify full coverage")
        return warnings
    realized = {tuple(s.values) for s in instance.states if s.mass > 0}
    if len(realized) < lattice_size:
        warnings.append(
            f"prior charges {len(realized)} of {lattice_size} support-lattice profiles"
        )
    return warnings


def theorem5_bound(instance: KvsInstance, eps: float) -> float:
    """Revenue target of the private scheme: full surplus minus the
    unavoidable per-state loss where the strongest bidder's value exceeds
    every other bidder's best, minus eps."""
    masses = instance.masses
    values = instance.value_matrix
    _, i_star, rho_sstar, _ = strongest_bidders(instance)
    surplus = float(masses @ values.max(axis=1))
    excluded = float(masses @ np.maximum(values[:, i_star] - rho_sstar, 0.0))
    return surplus - excluded - eps


# ---------------------------------------------------------------------------
# The full per-state scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivateSchemePlan:
    """Designation for one realized profile: how its state is signaled and
    what revenue that certifies in the worst equilibrium."""

    state_id: str
    case_id: int | None
    choice: str  # "auxiliary" | "fallback" | "full_reveal"
    uninformed: int | None
    u: tuple[float, ...] | None
    delta: float | None
    worst_revenue: float
    worst_bid: float | None
    floor_target: float


@dataclass(frozen=True)
class PrivateSchemeResult:
    """``aggregate_revenue`` is the exact revenue of the scheme as played, lent
    mass included; ``simulated_revenue`` and ``simulated_se`` come from
    ``trials`` seeded draws from the same finite distribution.  ``registry``
    maps each lending profile to its (consumer state id, mass) grants."""

    plans: tuple[PrivateSchemePlan, ...]
    aggregate_revenue: float
    simulated_revenue: float
    simulated_se: float
    trials: int
    seed: int
    registry: dict


def _profile_key(values) -> tuple[float, ...]:
    return tuple(round(float(x), 12) for x in values)


def _profile_masses(instance: KvsInstance):
    """Each state's profile key in state order, and each profile's total mass."""
    keys = [_profile_key(state.values) for state in instance.states]
    totals: dict[tuple[float, ...], float] = {}
    for key, state in zip(keys, instance.states):
        totals[key] = totals.get(key, 0.0) + state.mass
    return keys, totals


def run_private_scheme(
    instance: KvsInstance,
    eps: float = 0.05,
    delta: float = 0.01,
    seed: int = 0,
    trials: int = 100_000,
) -> PrivateSchemeResult:
    """Design and price the per-state private scheme.

    For each realized profile the scheme either reveals the state to everyone
    (revenue: the profile's second value) or keeps one bidder uninformed
    against an auxiliary mixture, taking whichever certifies more revenue.
    Auxiliary ingredients are booked against their profiles' prior masses in
    state-id order, shrinking delta when a profile's budget runs short; when
    an ingredient has no prior mass at all, an existing support profile that
    forms a valid structure stands in.  A state without prior mass is
    revealed.  If no option certifies a state's per-state revenue target, the
    full-support assumption is violated and an error is raised.

    The reported revenue is the exact revenue of the scheme as played, lent
    mass included; the simulated revenue is a seeded draw of ``trials``
    outcomes from the same distribution.
    """
    problems = instance.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")

    rho_star, i_star, rho_sstar, i_sstar = strongest_bidders(instance)
    supports = bidder_supports(instance)
    keys, totals = _profile_masses(instance)
    # half of each profile's mass stays in its own information set
    capacity = {k: 0.5 * m for k, m in totals.items()}
    registry: dict[tuple[float, ...], list[tuple[str, float]]] = {}

    plans = []
    for state in sorted(instance.states, key=lambda s: s.id):
        v = np.asarray(state.values, dtype=float)
        v1 = float(v.max())
        target = v1 - max(v[i_star] - rho_sstar, 0.0) - eps
        best = PrivateSchemePlan(
            state.id, None, "full_reveal", None, None, None,
            max2(v) if instance.n >= 2 else 0.0, None, target,
        )
        if state.mass > 0.0 and v1 > _TIE_TOL and instance.n >= 2:
            case_id = classify_case(v, i_star, rho_sstar)
            candidate = None
            try:
                aux = build_auxiliary(
                    v, case_id, rho_star, i_star, rho_sstar, i_sstar, eps,
                    supports=supports,
                )
                k1, k2 = _profile_key(aux.w1), _profile_key(aux.w2)
                if capacity.get(k1, 0.0) > 0.0 and capacity.get(k2, 0.0) > 0.0:
                    candidate = _priced(
                        state, v, aux.u, aux.uninformed,
                        [(k1, aux.q), (k2, 1.0 - aux.q)],
                        capacity, delta, case_id, "auxiliary", target,
                    )
            except ValidationError:
                pass
            if candidate is None:
                candidate = _best_fallback(state, v, capacity, delta, case_id, target)

            if candidate is None:
                if best.worst_revenue < target - 1e-9:
                    raise FullSupportError(
                        f"state {state.id}: auxiliary ingredients have zero prior "
                        "mass and no support profile can stand in; the prior does "
                        "not cover the full support lattice"
                    )
            elif candidate[0].worst_revenue > best.worst_revenue:
                best, grants = candidate
                for key, amount in grants:
                    if amount > 0:
                        capacity[key] -= amount
                        registry.setdefault(key, []).append((state.id, amount))
        plans.append(best)

    weights, outcomes = _played(instance, keys, totals, plans, registry)
    p = weights / weights.sum()
    draws = np.random.default_rng(seed).choice(outcomes.size, size=trials, p=p)
    sample = outcomes[draws]
    se = float(sample.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    return PrivateSchemeResult(
        tuple(plans), float(weights @ outcomes / weights.sum()),
        float(sample.mean()), se, trials, seed,
        {k: list(v) for k, v in registry.items()},
    )


def _priced(state, v, u, j, ingredients, capacity, delta, case_id, choice, target):
    """(plan, grants) for keeping bidder j uninformed against auxiliary u.

    ``ingredients`` lists (profile key, share of u's mass).  Each ingredient
    takes at most half of what is left of its profile's capacity, shrinking
    delta when one runs short: the floor is delta-independent, so no budget is
    ever drained.
    """
    want = state.mass * delta / (1.0 - delta)
    wanted = [(key, share * want) for key, share in ingredients]
    scale = min(1.0, *(0.5 * capacity[key] / m for key, m in wanted))
    got = want * scale
    d_eff = got / (state.mass + got)
    rev, bid = worst_bne_revenue_and_bid(TwoProfileStructure(tuple(v), u, j, d_eff))
    plan = PrivateSchemePlan(state.id, case_id, choice, j, u, d_eff, rev, bid, target)
    return plan, [(key, m * scale) for key, m in wanted]


def _best_fallback(state, v, capacity, delta, case_id, target):
    """Stand-in auxiliary: an existing support profile in which some bidder
    other than the top holder of v has the unique maximum."""
    v1 = float(v.max())
    best = None
    for key, left in capacity.items():
        if left <= 0.0:
            continue
        u = np.asarray(key, dtype=float)
        j = int(np.argmax(u))
        u_others = np.delete(u, j)
        if not (u[j] > u_others.max() and u_others.max() < v1):
            continue
        if np.delete(v, j).max() < v1 - _TIE_TOL:
            continue  # j holds the unique top of v; keeping j dark is useless
        try:
            candidate = _priced(
                state, v, key, j, [(key, 1.0)], capacity, delta, case_id,
                "fallback", target,
            )
        except StructureError:
            continue
        if best is None or candidate[0].worst_revenue > best[0].worst_revenue:
            best = candidate
    return best


def _played(instance, keys, totals, plans, registry):
    """The scheme as played, as a finite distribution (weights, outcomes).

    Each state keeps the mass it does not lend, playing its own information
    set (the uninformed bidder at the worst best response, everyone else
    truthful).  Each grant on a profile is lent by that profile's states in
    proportion to their masses, and a lent slice plays its consumer's mixture
    game, where the remaining bidders bid the mixture profile u.
    """
    by_id = {plan.state_id: plan for plan in plans}
    weights = []
    outcomes = []
    for key, state in zip(keys, instance.states):
        plan = by_id[state.id]
        grants = registry.get(key, [])
        share = state.mass / totals[key] if grants else 0.0
        lent = [(by_id[consumer], amount * share) for consumer, amount in grants]
        weights.append(max(state.mass - sum(a for _, a in lent), 0.0))
        own = plan.worst_revenue
        if plan.choice != "full_reveal":
            own = _price_with_bid(state.values, plan.uninformed, plan.worst_bid)
        outcomes.append(own)
        for c, amount in lent:
            weights.append(amount)
            outcomes.append(_price_with_bid(c.u, c.uninformed, c.worst_bid))
    return np.asarray(weights), np.asarray(outcomes)
