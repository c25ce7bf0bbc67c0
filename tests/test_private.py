import itertools
import math
from collections import Counter

import numpy as np
import pytest

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
    _donations,
    _profile_key,
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
        got = _donations(inst, result.registry)
        assert got == donations_by_scanning_states(inst, result.registry)
        shared = Counter(profiles)
        split += sum(shared[inst.states[inst.state_index[sid]].values] > 1 for sid in got)
    assert split > 0
