import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signalcraft.auction import max2
from signalcraft.model import (
    KvsInstance,
    KvsState,
    ValidationError,
    make_example3,
)
from signalcraft.private import (
    AuxiliaryConstruction,
    DegenerateProfileError,
    FullSupportError,
    StructureError,
    TwoProfileStructure,
    _played,
    _profile_key,
    _profile_masses,
    build_auxiliary,
    check_theorem5_assumptions,
    classify_case,
    run_private_scheme,
    strongest_bidders,
    theorem5_bound,
    uninformed_best_response,
    worst_bne_revenue_and_bid,
)

EX1_POSTERIOR = [(0.5, (1.0, 2.0)), (0.5, (7.0, 7.0))]


def test_example1_best_response_set():
    analysis = uninformed_best_response(EX1_POSTERIOR, 0)
    assert analysis.best == ((0.0, 2.0),)
    assert analysis.max_utility == 0.0
    assert analysis.breakpoints == (2.0, 7.0)
    # bids between the two informed bids only win the low-value state
    by_lo = {lo: u for lo, _, u in analysis.intervals}
    assert by_lo[0.0] == 0.0
    assert by_lo[2.0] == pytest.approx(0.5 * (1.0 - 2.0))
    assert by_lo[7.0] == pytest.approx(-0.5)


def test_example1_worst_revenue_matches_grid_search():
    def revenue(b):
        return 0.5 * max2([b, 2.0]) + 0.5 * max2([b, 7.0])

    analysis = uninformed_best_response(EX1_POSTERIOR, 0)
    (lo, hi), = analysis.best
    worst = min(revenue(b) for b in np.arange(lo, hi, 1e-3))
    assert worst == pytest.approx(revenue(lo), abs=1e-9)
    assert worst == pytest.approx(0.5 * 0.0 + 0.5 * 0.0)


def test_point_posterior_best_response():
    analysis = uninformed_best_response([(1.0, (0.6, 0.4, 0.1))], 0)
    (lo, hi), = analysis.best
    assert lo == 0.4 and hi == math.inf  # contains the true value 0.6
    assert analysis.max_utility == pytest.approx(0.6 - 0.4)


def test_empty_posterior_rejected():
    with pytest.raises(ValidationError):
        uninformed_best_response([], 0)


def test_explicit_informed_bids_override():
    # informed bidders may bid something other than their true values
    analysis = uninformed_best_response(
        [(1.0, (0.6, 0.4, 0.1))], 0, informed_bids=[np.array([0.7, 0.1])]
    )
    assert analysis.breakpoints == (0.7,)
    (lo, hi), = analysis.best
    assert lo == 0.0 and hi == 0.7  # winning now costs 0.7 > 0.6, so abstain


def example3_structure(eps=0.1, delta=0.01):
    inst = make_example3(eps)
    return TwoProfileStructure(
        v=inst.states[0].values, u=inst.states[1].values, uninformed=0, delta=delta
    )


def test_example3_structure_forces_high_bids():
    analysis = uninformed_best_response(
        [(0.99, (0.2, 0.1, 1.0)), (0.01, (1.0, 0.9, 0.1))], 0
    )
    assert analysis.max_utility > 0
    for lo, _ in analysis.best:
        assert lo >= 0.9  # every best response bids at least 1 - eps


def test_example3_worst_bne_revenue():
    rev, bid = worst_bne_revenue_and_bid(example3_structure())
    assert rev == pytest.approx(0.9)
    assert bid == pytest.approx(0.9)


def test_worst_bne_delta_independence():
    # the revenue floor (the auxiliary second value) does not move with delta
    r_small = worst_bne_revenue_and_bid(example3_structure(delta=0.001))[0]
    r_large = worst_bne_revenue_and_bid(example3_structure(delta=0.5))[0]
    floor = example3_structure().floor
    assert floor == pytest.approx(0.9)
    assert r_small == pytest.approx(r_large) == pytest.approx(floor)


def test_structure_rejects_degenerate_gap():
    # auxiliary second value equal to the main top value: no forcing margin
    with pytest.raises(StructureError):
        TwoProfileStructure(
            v=(0.2, 0.1, 1.0), u=(1.1, 1.0, 0.1), uninformed=0, delta=0.1
        ).check()
    with pytest.raises(StructureError):
        worst_bne_revenue_and_bid(
            TwoProfileStructure(
                v=(0.2, 0.1, 1.0), u=(1.1, 1.0, 0.1), uninformed=0, delta=0.1
            )
        )


def test_structure_rejects_non_unique_auxiliary_max():
    with pytest.raises(StructureError):
        TwoProfileStructure(
            v=(1.0, 2.0), u=(7.0, 7.0), uninformed=0, delta=0.5
        ).check()


def test_structure_rejects_uninformed_top_holder():
    # the uninformed bidder may not hold the unique top value of v
    with pytest.raises(StructureError):
        TwoProfileStructure(
            v=(1.0, 0.2, 0.1), u=(0.9, 0.5, 0.1), uninformed=0, delta=0.1
        ).check()


def test_classify_case():
    # taking the strongest bidder to be bidder 3 of the two-profile instance
    assert classify_case((0.2, 0.1, 1.0), i_star=2, rho_sstar=1.0) == 2
    assert classify_case((0.5, 0.5, 0.1), i_star=0, rho_sstar=1.0) == 0
    assert classify_case((0.9, 0.2, 0.1), i_star=0, rho_sstar=0.5) == 3
    assert classify_case((0.2, 0.9, 0.1), i_star=0, rho_sstar=1.0) == 1
    with pytest.raises(DegenerateProfileError):
        classify_case((0.0, 0.0), i_star=0, rho_sstar=0.0)


def test_build_auxiliary_case0():
    aux = build_auxiliary(
        (0.5, 0.5, 0.1), 0, rho_star=1.0, i_star=0, rho_sstar=1.0, i_sstar=1,
        eps=0.05,
    )
    assert aux.u == pytest.approx((0.45, 0.5, 0.1))
    assert aux.uninformed == 1  # bidder 2, 1-indexed
    assert aux.q == pytest.approx(0.9)
    assert aux.w1 == (0.5, 0.5, 0.1)
    assert aux.w2 == (0.0, 0.5, 0.1)


def test_build_auxiliary_case3():
    aux = build_auxiliary(
        (0.9, 0.2, 0.1), 3, rho_star=0.9, i_star=0, rho_sstar=0.5, i_sstar=1,
        eps=0.05,
    )
    assert aux.q == pytest.approx(0.5)
    assert aux.u == pytest.approx((0.45, 0.5, 0.1))
    assert aux.uninformed == 1
    assert aux.w1 == pytest.approx((0.9, 0.5, 0.1))
    assert aux.w2 == pytest.approx((0.0, 0.5, 0.1))


def test_build_auxiliary_eps_too_large():
    with pytest.raises(ValidationError):
        build_auxiliary((0.5, 0.5, 0.1), 0, 1.0, 0, 1.0, 1, eps=0.5)


def test_build_auxiliary_support_check():
    supports = [[0.5], [0.0, 0.5], [0.0, 0.1]]  # bidder 1 cannot take value 0
    with pytest.raises(StructureError, match="outside"):
        build_auxiliary(
            (0.5, 0.5, 0.1), 0, 1.0, 0, 1.0, 1, eps=0.05, supports=supports
        )


def test_mixture_identity_enforced():
    with pytest.raises(StructureError):
        AuxiliaryConstruction(
            0, (1.0, 0.0), (0.0, 1.0), 0.5, (0.7, 0.5), 0
        ).check()


LATTICE = [0.0, 0.5, 1.0]


def lattice_instance(rng):
    profiles = list(itertools.product(LATTICE, repeat=3))
    masses = rng.dirichlet(np.ones(len(profiles)))
    states = tuple(
        KvsState(f"s{i:02d}", float(masses[i]), profiles[i])
        for i in range(len(profiles))
    )
    return KvsInstance(n=3, states=states)


def test_case_constructions_meet_their_floors():
    # cases 0-2 certify the top value minus eps; case 3 certifies the
    # runner-up support value minus eps
    rng = np.random.default_rng(3)
    inst = lattice_instance(rng)
    rho_star, i_star, rho_sstar, i_sstar = strongest_bidders(inst)
    eps = 0.05
    seen = set()
    for state in inst.states:
        v = np.asarray(state.values)
        if v.max() <= 0:
            continue
        case = classify_case(v, i_star, rho_sstar)
        seen.add(case)
        aux = build_auxiliary(
            v, case, rho_star, i_star, rho_sstar, i_sstar, eps
        )
        structure = TwoProfileStructure(
            tuple(v), aux.u, aux.uninformed, delta=0.01
        )
        rev = worst_bne_revenue_and_bid(structure)[0]
        if case in (0, 1, 2):
            assert rev >= v.max() - eps - 1e-9
        else:
            assert rev >= rho_sstar - eps - 1e-9
    assert {0, 1, 2} <= seen  # the full lattice exercises several cases


def test_case3_construction_floor():
    v = (0.9, 0.2, 0.1)
    aux = build_auxiliary(v, 3, 0.9, 0, 0.5, 1, eps=0.05)
    structure = TwoProfileStructure(v, aux.u, aux.uninformed, delta=0.2)
    assert worst_bne_revenue_and_bid(structure)[0] >= 0.5 - 0.05 - 1e-9


def test_theorem5_bound_example3():
    inst = make_example3(0.1)
    # both top support values equal 1, so nothing is excluded beyond eps
    rho_star, _, rho_sstar, _ = strongest_bidders(inst)
    assert rho_star == rho_sstar == 1.0
    surplus = sum(s.mass * max(s.values) for s in inst.states)
    assert theorem5_bound(inst, 0.05) == pytest.approx(surplus - 0.05)


def test_theorem5_bound_single_bidder():
    inst = KvsInstance(
        n=1, states=(KvsState("a", 0.5, (0.8,)), KvsState("b", 0.5, (0.0,)))
    )
    assert theorem5_bound(inst, 0.01) <= 0.0


def test_theorem5_bound_matches_enumeration():
    rng = np.random.default_rng(5)
    inst = lattice_instance(rng)
    bound = theorem5_bound(inst, 0.05)
    # independent recomputation by direct summation
    values = inst.value_matrix
    col_max = values.max(axis=0)
    i_star = int(np.argmax(col_max))
    rho_sstar = max(col_max[i] for i in range(3) if i != i_star)
    expected = 0.0
    for s, state in enumerate(inst.states):
        expected += state.mass * max(state.values)
        expected -= state.mass * max(state.values[i_star] - rho_sstar, 0.0)
    expected -= 0.05
    assert bound == pytest.approx(expected, abs=1e-12)


def test_theorem5_assumption_report():
    inst = make_example3(0.1)
    warnings = check_theorem5_assumptions(inst)
    assert any("lacks the value 0" in w for w in warnings)
    assert any("lattice" in w for w in warnings)
    rng = np.random.default_rng(1)
    assert check_theorem5_assumptions(lattice_instance(rng)) == []


def test_run_private_scheme_example3():
    result = run_private_scheme(make_example3(0.1), eps=0.05, delta=0.01,
                                seed=2, trials=5000)
    assert result.aggregate_revenue >= 0.9 - 1e-9
    plans = {p.state_id: p for p in result.plans}
    assert plans["A"].choice == "fallback"
    assert plans["A"].uninformed == 0  # bidder 1 is kept uninformed
    assert plans["B"].worst_revenue == pytest.approx(0.9)
    assert abs(result.simulated_revenue - result.aggregate_revenue) <= max(
        4 * result.simulated_se, 1e-6
    )


def test_run_private_scheme_meets_surplus_bound_on_lattices():
    rng = np.random.default_rng(10)
    for trial in range(3):
        inst = lattice_instance(rng)
        result = run_private_scheme(inst, eps=0.05, delta=0.01, seed=trial,
                                    trials=2000)
        bound = theorem5_bound(inst, 0.05)
        assert result.aggregate_revenue >= bound - 1e-6
        # per-state certification: every plan clears its own floor target
        for plan in result.plans:
            assert plan.worst_revenue >= plan.floor_target - 1e-9


def test_run_private_scheme_full_support_violation():
    # bidder supports are {0, 1} x {0, 1} but profile (0, 1) has no mass:
    # the profile (1, 0) then has no auxiliary and no stand-in
    inst = KvsInstance(
        n=2,
        states=(
            KvsState("00", 0.2, (0.0, 0.0)),
            KvsState("10", 0.4, (1.0, 0.0)),
            KvsState("11", 0.4, (1.0, 1.0)),
        ),
    )
    with pytest.raises(FullSupportError):
        run_private_scheme(inst, eps=0.05, delta=0.01, seed=0, trials=10)
    # a bad trial count is rejected before the design would fail
    with pytest.raises(ValidationError, match="trials"):
        run_private_scheme(inst, eps=0.05, delta=0.01, seed=0, trials=0)


def test_zero_mass_state_is_revealed():
    # C repeats A's profile without prior mass: its full-reveal revenue is
    # below its target, yet it lends nothing and consumes nothing
    base = make_example3(0.1)
    extra = KvsInstance(
        n=3, states=base.states + (KvsState("C", 0.0, base.states[0].values),)
    )
    want = run_private_scheme(base, eps=0.05, delta=0.01, seed=2, trials=500)
    got = run_private_scheme(extra, eps=0.05, delta=0.01, seed=2, trials=500)
    plans = {p.state_id: p for p in got.plans}
    assert [plans[p.state_id] for p in want.plans] == list(want.plans)
    assert plans["C"].choice == "full_reveal"
    assert plans["C"].worst_revenue < plans["C"].floor_target
    assert all(c != "C" for grants in got.registry.values() for c, _ in grants)
    assert got.aggregate_revenue == want.aggregate_revenue


def test_run_private_scheme_respects_registry_budget():
    rng = np.random.default_rng(4)
    inst = lattice_instance(rng)
    result = run_private_scheme(inst, eps=0.05, delta=0.2, seed=0, trials=100)
    masses = {}
    for s in inst.states:
        key = tuple(round(x, 12) for x in s.values)
        masses[key] = masses.get(key, 0.0) + s.mass
    for key, grants in result.registry.items():
        total = sum(amount for _, amount in grants)
        assert total <= 0.5 * masses[key] + 1e-12


def donations_by_scanning_states(instance, registry):
    """The donation split re-keying every state per registry key and again
    inside each share's denominator."""
    donated_out = {}
    for key, consumers in registry.items():
        for state in instance.states:
            if _profile_key(state.values) == key:
                share = state.mass / sum(
                    s.mass for s in instance.states if _profile_key(s.values) == key
                )
                for consumer, amount in consumers:
                    donated_out.setdefault(state.id, []).append(
                        (consumer, amount * share)
                    )
    return donated_out


def test_donations_match_per_key_state_scan():
    # extra states repeat lattice profiles, so a profile's grant is split
    rng = np.random.default_rng(21)
    split = 0
    for trial in range(4):
        profiles = list(itertools.product(LATTICE, repeat=3))
        profiles += [profiles[i] for i in rng.choice(len(profiles), size=10)]
        masses = rng.dirichlet(np.ones(len(profiles)))
        inst = KvsInstance(n=3, states=tuple(
            KvsState(f"s{i:02d}", float(masses[i]), profiles[i])
            for i in range(len(profiles))
        ))
        result = run_private_scheme(inst, eps=0.05, delta=0.01, seed=trial, trials=200)
        keys, totals = _profile_masses(inst)
        weights, _ = _played(inst, keys, totals, result.plans, result.registry)
        donated_out = donations_by_scanning_states(inst, result.registry)
        expected = []
        for state in inst.states:
            gifts = donated_out.get(state.id, [])
            expected.append(max(state.mass - sum(a for _, a in gifts), 0.0))
            expected.extend(a for _, a in gifts)
        assert weights.tolist() == expected
        shared = Counter(profiles)
        split += sum(shared[state.values] > 1 for state in inst.states
                     if state.id in donated_out)
    assert split > 0


def test_exact_revenue_matches_simulation_on_625_profiles():
    # the reported revenue once booked lent mass at the lender's own revenue
    # and read 8.9 se above this simulation of the scheme as played
    profiles = list(itertools.product([0.0, 0.25, 0.5, 0.75, 1.0], repeat=4))
    masses = np.random.default_rng(66).dirichlet(np.ones(len(profiles)))
    inst = KvsInstance(n=4, states=tuple(
        KvsState(f"s{i:03d}", float(masses[i]), profiles[i])
        for i in range(len(profiles))
    ))
    result = run_private_scheme(inst, eps=0.05, delta=0.01, seed=0, trials=4_000_000)
    gap = abs(result.aggregate_revenue - result.simulated_revenue)
    assert gap <= 4 * result.simulated_se


def played_revenue_by_grants(instance, result):
    """Exact revenue of the scheme as played, rebuilt per grant: each state
    keeps its mass less its share of the grants on its profile, and each
    grant's mass plays its consumer's mixture profile."""
    plans = {p.state_id: p for p in result.plans}

    def revenue(profile, plan):
        bids = list(profile)
        if plan.choice != "full_reveal":
            bids[plan.uninformed] = plan.worst_bid
        return sorted(bids)[-2]

    group_mass = Counter()
    for s in instance.states:
        group_mass[_profile_key(s.values)] += s.mass
    total = 0.0
    for s in instance.states:
        key = _profile_key(s.values)
        lent = 0.0
        if key in result.registry:
            lent = sum(a for _, a in result.registry[key]) * s.mass / group_mass[key]
        total += (s.mass - lent) * revenue(s.values, plans[s.id])
    for grants in result.registry.values():
        for consumer, amount in grants:
            total += amount * revenue(plans[consumer].u, plans[consumer])
    return total / sum(s.mass for s in instance.states)


@st.composite
def repeated_lattices(draw):
    n = draw(st.integers(2, 3))
    profiles = list(itertools.product(LATTICE, repeat=n))
    profiles += draw(st.lists(st.sampled_from(profiles), max_size=6))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(profiles),
                            max_size=len(profiles)))
    weights[draw(st.integers(0, len(profiles) - 1))] += 1  # some state has mass
    masses = np.array(weights, dtype=float) / sum(weights)
    return KvsInstance(n=n, states=tuple(
        KvsState(f"s{i:02d}", float(masses[i]), profiles[i])
        for i in range(len(profiles))
    ))


@settings(max_examples=40, deadline=None)
@given(repeated_lattices(), st.sampled_from([0.01, 0.1, 0.3]))
def test_reported_revenue_is_the_played_revenue(inst, delta):
    try:
        result = run_private_scheme(inst, eps=0.05, delta=delta, seed=0, trials=10)
    except FullSupportError:
        assume(False)  # a positive-mass state needs a profile without mass
    expected = played_revenue_by_grants(inst, result)
    assert result.aggregate_revenue == pytest.approx(expected, abs=1e-12)
