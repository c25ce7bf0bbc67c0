import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import signalcraft.lp as lp
from signalcraft.auction import kvs_public_revenue, max2
from signalcraft.lp import FEAS_TOL, SolverFailure, signal_space, solve_ordering_lp
from signalcraft.model import KvsInstance, KvsState, make_example3
from signalcraft.oracle import brute_force_public_optimal
from signalcraft.public_exact import solve_optimal_public
from signalcraft.public_mc import (
    McConfig,
    _FaceFamily,
    _prior_face,
    _slack,
    _solve_sampled,
    evaluate_mc_scheme,
    mc_signal,
    sample_count,
)

EX3 = make_example3(0.1)


def solve_example3(weights=None, slack=0.0):
    w = EX3.masses if weights is None else weights
    return solve_ordering_lp(EX3.value_matrix, w, slack)


def ordering_rows(values, weights, phi):
    """Weighted posterior gap of every ordering row, pair by pair."""
    n = values.shape[1]
    gaps = []
    for p, (i, j) in enumerate(signal_space(n)):
        post = (weights * phi[:, p]) @ values
        gaps.append(post[i] - post[j])
        gaps.extend(post[j] - post[k] for k in range(n) if k not in (i, j))
    return np.array(gaps)


def test_simple_optimal():
    phi, objective = solve_ordering_lp([[0.3, 0.8]], [1.0], 0.0)
    assert objective == pytest.approx(0.3)
    assert phi[0].tolist() == pytest.approx([0.0, 1.0])  # pair (1, 0)


def highs_only(monkeypatch):
    """Every native solve stops at its pivot cap, so every solve goes to HiGHS."""
    monkeypatch.setattr(lp, "simplex", lambda *args: None)


def stub_linprog(monkeypatch, **fields):
    monkeypatch.setattr(
        lp, "linprog", lambda *a, **k: OptimizeResult(x=None, fun=None, **fields)
    )


def test_infeasible(monkeypatch):
    highs_only(monkeypatch)
    stub_linprog(monkeypatch, status=2, message="The problem is infeasible.")
    with pytest.raises(SolverFailure, match="status 2"):
        solve_example3()


def test_unbounded(monkeypatch):
    highs_only(monkeypatch)
    stub_linprog(monkeypatch, status=3, message="The problem is unbounded.")
    with pytest.raises(SolverFailure, match="status 3"):
        solve_example3()


def test_reject_non_finite():
    # non-finite inputs never reach the native simplex: HiGHS rejects them
    with mock.patch.object(lp, "simplex", wraps=lp.simplex) as native:
        for weights in ([0.9, math.nan], [0.9, math.inf]):
            with pytest.raises(ValueError):
                solve_example3(weights=weights)
        values = EX3.value_matrix.copy()  # the instance's own matrix is read-only
        values[0, 0] = math.inf
        with pytest.raises(ValueError):
            solve_ordering_lp(values, EX3.masses, 0.0)
    assert native.call_count == 0


def test_lp1_matches_brute_force_oracle():
    _, objective = solve_example3()
    _, oracle_value = brute_force_public_optimal(EX3)
    assert objective == pytest.approx(oracle_value, abs=1e-7)


def test_objective_round_trip():
    phi, objective = solve_example3()
    pairs = signal_space(EX3.n)
    second = EX3.value_matrix[:, [j for _, j in pairs]]
    assert abs(float(EX3.masses @ (phi * second).sum(axis=1)) - objective) <= 1e-9


def test_objective_scaling():
    # the ordering rows are homogeneous in the weights at zero slack
    base_phi, base = solve_example3()
    phi, scaled = solve_example3(weights=3.0 * EX3.masses)
    assert scaled == pytest.approx(3.0 * base, rel=1e-9)
    # the base argmax stays feasible in the scaled problem
    assert ordering_rows(EX3.value_matrix, 3.0 * EX3.masses, base_phi).min() >= -1e-7


def test_feasibility_tolerance():
    phi, _ = solve_example3()
    assert phi.shape == (2, 6)
    assert np.all(phi >= 0) and np.all(phi <= 1 + 1e-7)
    assert np.abs(phi.sum(axis=1) - 1.0).max() <= 1e-7
    assert ordering_rows(EX3.value_matrix, EX3.masses, phi).min() >= -1e-7


@pytest.mark.parametrize("damage", ["row_sum", "ordering"])
def test_certificate_rejects_a_perturbed_solution(monkeypatch, damage):
    real = lp.linprog

    def perturbed(*args, **kwargs):
        res = real(*args, **kwargs)
        if damage == "row_sum":
            res.x[0] += 10 * FEAS_TOL
        else:
            # state A entirely on pair (1, 0), though v_1 < v_0 in both states
            res.x[:6] = np.eye(6)[signal_space(3).index((1, 0))]
        return res

    highs_only(monkeypatch)
    monkeypatch.setattr(lp, "linprog", perturbed)
    with pytest.raises(SolverFailure, match="misses"):
        solve_example3()


def full_reveal_example3():
    """Example 3's full-reveal phi: feasible at slack 0, and 0.27 against
    the optimum 0.28 at the prior masses."""
    pairs = signal_space(3)
    return np.concatenate([np.eye(6)[pairs.index((2, 0))], np.eye(6)[pairs.index((0, 1))]])


@pytest.mark.parametrize("off_again", [False, True])
def test_highs_point_below_the_optimum_is_refused_and_solved_again(monkeypatch, off_again):
    real, options = lp.linprog, []

    def below_optimum(*args, **kwargs):
        res = real(*args, **kwargs)
        options.append(kwargs["options"])
        if len(options) == 1 or off_again:
            res.x = full_reveal_example3()  # HiGHS's own duals stay
        return res

    assert max(lp._OrderingLp(EX3.value_matrix).residuals(
        EX3.masses, full_reveal_example3().reshape(2, 6), 0.0
    )) <= 0.0
    highs_only(monkeypatch)
    monkeypatch.setattr(lp, "linprog", below_optimum)
    if off_again:
        with pytest.raises(SolverFailure, match="its objective lies 0.01 below its dual bound"):
            solve_example3()
    else:
        _, objective = solve_example3()
        assert objective == pytest.approx(0.28, abs=1e-12)
    retry = dict.fromkeys(
        ["primal_feasibility_tolerance", "dual_feasibility_tolerance"], lp.HIGHS_RETRY_TOL
    )
    assert options == [None, retry]


# --- property tests on random small instances -------------------------------

LEVELS = (0.0, 0.25, 0.5, 1.0)  # a coarse grid, so values tie often


@st.composite
def instances(draw):
    n = draw(st.integers(2, 4))
    num_states = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 3), min_size=num_states, max_size=num_states))
    counts[draw(st.integers(0, num_states - 1))] += 1  # some state has mass
    values = [
        draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
        for _ in range(num_states)
    ]
    total = sum(counts)
    return KvsInstance(
        n=n,
        states=tuple(
            KvsState(f"s{s}", c / total, tuple(v))
            for s, (c, v) in enumerate(zip(counts, values))
        ),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(instances())
def test_exact_objective_matches_oracle(inst):
    _, objective = solve_ordering_lp(inst.value_matrix, inst.masses, 0.0)
    scheme, oracle_value = brute_force_public_optimal(inst)
    assert objective == pytest.approx(oracle_value, abs=1e-7)
    for row in scheme.table.values():
        assert all(math.isfinite(q) for q in row.values())
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_emitted_scheme_earns_the_objective(inst):
    scheme, revenue = solve_optimal_public(inst)
    assert kvs_public_revenue(inst, scheme) == pytest.approx(revenue, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(instances(), st.sampled_from([0.0, 0.01, 0.1]))
def test_support_solve_matches_all_states_solve(inst, slack):
    w = inst.masses
    support = np.flatnonzero(w)
    phi, on_support = solve_ordering_lp(inst.value_matrix[support], w[support], slack)
    _, on_all = solve_ordering_lp(inst.value_matrix, w, slack)
    assert on_support == pytest.approx(on_all, abs=1e-9)
    assert ordering_rows(inst.value_matrix[support], w[support], phi).min() >= -slack - 1e-7


def test_relaxed_single_state():
    values = (0.9, 0.5, 0.1)
    # the slack lets out-of-order pairs carry mass s / gap each, so the
    # optimum sits just above max2 and collapses to it as eps shrinks
    slack = 0.1 / 18.0
    _, objective = solve_ordering_lp([values], [1.0], slack)
    bonus = slack / 0.4 * 0.4 + slack / 0.8 * 0.4  # pairs (1,0) and (2,0)
    assert objective == pytest.approx(max2(values) + bonus, abs=1e-7)

    _, tight = solve_ordering_lp([values], [1.0], 1e-6 / 18.0)
    assert tight == pytest.approx(0.5, abs=1e-5)


def test_relaxed_vacuous_slack_picks_top_values():
    # slack 1 dwarfs values in [0, 1]: ordering constraints die and the
    # optimum assigns each state the signal whose j is its argmax
    _, objective = solve_ordering_lp(
        [(0.9, 0.5, 0.1), (0.2, 0.8, 0.3)], [1 / 3, 2 / 3], 1.0
    )
    assert objective == pytest.approx((0.9 + 0.8 + 0.8) / 3.0, abs=1e-6)


def test_relaxed_exact_proportions_close_to_exact_lp():
    eps = 0.2
    _, relaxed = solve_example3(weights=[0.9, 0.1], slack=eps / 18.0)
    _, exact = solve_example3()
    assert relaxed >= exact - 1e-9  # relaxation
    assert relaxed <= exact + eps / 2.0 * 6


# --- certified face reuse ----------------------------------------------------


@st.composite
def sampled_draws(draw):
    """Value profiles (ties likely), four weight vectors on all of them,
    each from K prior slots, with K small or the formula's count, the slack
    and K."""
    n = draw(st.integers(2, 4))
    num_states = draw(st.integers(1, 8))
    values = np.array([
        draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
        for _ in range(num_states)
    ])
    masses = np.array(draw(st.lists(
        st.integers(1, 4), min_size=num_states, max_size=num_states
    )), dtype=float)
    eps = draw(st.sampled_from([0.06, 0.15, 0.25]))
    k = draw(st.sampled_from([num_states + 30, sample_count(n, eps)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = [
        (rng.multinomial(k - num_states, masses / masses.sum()) + 1) / k for _ in range(4)
    ]
    return values, draws, _slack(eps, n), k


def drifting_weights():
    """``sampled_draws`` without K."""
    return sampled_draws().map(lambda case: case[:3])


def counting_solves():
    """Counts cold solves, by either route: each goes through
    ``_OrderingLp.solve``."""
    return mock.patch.object(
        lp._OrderingLp, "solve", autospec=True, side_effect=lp._OrderingLp.solve
    )


@settings(max_examples=60, deadline=None)
@given(drifting_weights())
def test_reused_face_matches_a_cold_solve(case):
    # the face of the first draw's optimum, reused on the later draws
    values, draws, slack = case
    face = lp.optimal_face(values, draws[0], slack)
    reused = 0
    for w in draws[1:]:
        found = face.certify(w)
        if found is None:
            continue
        reused += 1
        phi, objective = found
        _, cold = solve_ordering_lp(values, w, slack)
        assert objective == pytest.approx(cold, abs=1e-9)
        assert max(lp._OrderingLp(values).residuals(w, phi, slack)) <= FEAS_TOL
        assert ordering_rows(values, w, phi).min() >= -slack - FEAS_TOL
    event(f"reused {reused} of 3")


@settings(max_examples=60, deadline=None)
@given(drifting_weights(), st.sampled_from(["perturbed", "foreign"]), st.booleans(), st.data())
def test_face_with_a_wrong_dual_is_rejected(case, wrong, missing, data):
    values, draws, slack = case
    w = draws[0].copy()
    if missing:  # certified on the states of positive weight only
        assume(len(w) >= 2)
        w[data.draw(st.integers(0, len(w) - 1))] = 0.0
    support = np.flatnonzero(w)
    phi, cold, z = lp._OrderingLp(values[support]).solve(w[support], slack)
    if wrong == "perturbed":
        z = z + np.array(data.draw(st.lists(
            st.floats(-0.5, 0.5), min_size=len(z), max_size=len(z)
        )))
    else:  # the duals of another instance with as many bidders
        other = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(LEVELS), min_size=values.shape[1], max_size=values.shape[1]),
            min_size=1, max_size=8,
        )))
        z = lp._OrderingLp(other).solve(np.full(len(other), 1 / len(other)), slack)[2]
    # the face's point is this solve's own optimum, so only the dual can fail
    ordering = lp._OrderingLp(values)
    x = np.zeros((len(w), phi.shape[1]))
    x[support] = w[support, None] * phi
    face = lp._Face(ordering, x, z, slack)
    assume(w @ face.y + face.slack_price < -cold - 1e-6)
    assert face.certify(w) is None
    event(f"{wrong} dual, a state at weight 0: {missing}")
    if missing:
        return

    # as the only face of a sampled draw on every state, it leaves the draw
    # to a cold solve
    inst, k = instance_of(values, w), len(w)
    inst.prior_faces[slack] = face
    inst.face_families[slack, k] = None
    with counting_solves() as solver:
        _, _, objective = _solve_sampled(inst, w, k, slack)
    assert solver.call_count == 1
    assert objective == pytest.approx(cold, abs=1e-9)


# --- the prior face of the sampled signaler ---------------------------------


def instance_of(values, masses):
    return KvsInstance(n=values.shape[1], states=tuple(
        KvsState(f"s{s}", float(m), tuple(v)) for s, (m, v) in enumerate(zip(masses, values))
    ))


def serving_face(inst, w, k, slack):
    """The first of the instance's faces built so far, the prior face and
    then its family in order, that certifies w; None when none does."""
    family = inst.face_families.get((slack, k))
    faces = family.faces if family else [inst.prior_faces[slack]]
    return next((face for face in faces if face.certify(w) is not None), None)


def build_every_face(inst, k, slack):
    """The prior face and its whole family, as draws that every face
    refutes would build them; returns the faces in the order they are
    tried."""
    prior = _prior_face(inst, slack)
    family = _FaceFamily.open(inst.value_matrix, inst.masses, prior, k, slack)
    inst.face_families[slack, k] = family
    while family is not None and family._grow():
        pass
    return family.faces if family else [prior]


@settings(max_examples=60, deadline=None)
@given(sampled_draws())
def test_prior_face_point_is_feasible_and_optimal(case):
    # the first draw is the prior; the later ones sample every state
    values, draws, slack, k = case
    inst = instance_of(values, draws[0])
    _solve_sampled(inst, draws[0], k, slack)  # builds the prior face
    served = 0
    for w in draws[1:]:
        support, phi, objective = _solve_sampled(inst, w, k, slack)
        assert support.tolist() == list(range(len(w)))
        assert max(lp._OrderingLp(values).residuals(w, phi, slack)) <= FEAS_TOL
        _, cold = solve_ordering_lp(values, w, slack)
        assert objective == pytest.approx(cold, abs=1e-9)
        face = serving_face(inst, w, k, slack)
        if face is not None:  # served by that face: check its duality gap
            served += 1
            assert np.array_equal(face.certify(w)[0], phi)
            assert -objective <= w @ face.y + face.slack_price + 1e-9
    event(f"a face served {served} of 3")


@settings(max_examples=40, deadline=None)
@given(sampled_draws(), st.data())
def test_draw_missing_a_state_is_certified_or_solved_cold(case, data):
    values, draws, slack, k = case
    assume(len(values) >= 2)
    inst = instance_of(values, draws[0])
    faces = build_every_face(inst, k, slack)
    w = draws[1].copy()
    w[data.draw(st.integers(0, len(w) - 1))] = 0.0
    refuted = all(face.certify(w) is None for face in faces)
    with counting_solves() as solver:
        support, phi, objective = _solve_sampled(inst, w, k, slack)
    assert solver.call_count == refuted
    assert support.tolist() == np.flatnonzero(w).tolist()
    assert objective == pytest.approx(solve_ordering_lp(values[support], w[support], slack)[1], abs=1e-9)
    assert max(lp._OrderingLp(values[support]).residuals(w[support], phi, slack)) <= FEAS_TOL
    event("solved cold" if refuted else "certified")


@settings(max_examples=20, deadline=None)
@given(drifting_weights(), st.data())
def test_zero_mass_state_never_builds_a_prior_face(case, data):
    values, draws, _ = case
    assume(len(values) >= 2)
    config = McConfig(epsilon=0.2, seed=data.draw(st.integers(0, 2**16)), k_override=5_000)
    masses = draws[0].copy()
    masses[data.draw(st.integers(0, len(masses) - 1))] = 0.0
    for prior, builds in ((draws[0], True), (masses / masses.sum(), False)):
        inst = instance_of(values, prior)
        for state in inst.states:
            if state.mass > 0:
                mc_signal(inst, state.id, config)
        evaluate_mc_scheme(inst, config, trials=5)
        # K = 5,000 samples hit every state of positive mass
        assert bool(inst.prior_faces) == builds


def dense_face_point(ordering, x, slack, w):
    """The face's point from the pseudo-inverse of its whole system: every
    row sum, then every tight ordering row, over every face column."""
    num_states, num_pairs = x.shape
    cols = np.flatnonzero(x.ravel() > 0)
    states, pairs = np.divmod(cols, num_pairs)
    tight = np.flatnonzero(ordering.order_rows(x) >= slack - FEAS_TOL)
    system = np.zeros((num_states + len(tight), len(cols)))
    system[states, np.arange(len(cols))] = 1.0
    system[num_states:] = -ordering.diffs[states][:, tight].T * (
        ordering.row_pair[tight, None] == pairs
    )
    point = np.zeros(x.shape)
    point.flat[cols] = np.linalg.pinv(system) @ np.concatenate([w, np.full(len(tight), slack)])
    return point


@settings(max_examples=60, deadline=None)
@given(drifting_weights())
def test_reduced_face_point_matches_the_dense_one(case):
    values, draws, slack = case
    ordering = lp._OrderingLp(values)
    phi, _, z = ordering.solve(draws[0], slack)
    x = draws[0][:, None] * phi
    face = lp._Face(ordering, x, z, slack)
    # where the face system is consistent both are its minimum-norm solution
    for w in draws:
        if w is draws[0] or face.certify(w) is not None:
            assert np.abs(face.point(w) - dense_face_point(ordering, x, slack, w)).max() <= 1e-12


# --- the native simplex -------------------------------------------------------


def dual_bound(values, w, z, slack):
    """w.y + slack * sum(z) for ordering-row duals z <= 0, with each profile's
    price y_s the least reduced cost of its columns, built row by row from
    the LP's definition: a lower bound on every feasible c.x."""
    n = values.shape[1]
    rows = [
        (p, a, b)
        for p, (i, j) in enumerate(signal_space(n))
        for a, b in [(i, j)] + [(j, k) for k in range(n) if k not in (i, j)]
    ]
    reduced = np.array([
        [-v[j] for _, j in signal_space(n)] for v in values
    ])
    for (p, a, b), dual in zip(rows, z):
        reduced[:, p] += (values[:, a] - values[:, b]) * dual
    return float(w @ reduced.min(axis=1) + slack * z.sum())


SKEWED = (0.0, 0.001, 0.01, 0.1, 1.0)  # values over three orders of magnitude


@st.composite
def native_lps(draw):
    """Value profiles that tie or are skewed, positive weights, and a slack
    of 0 or eps/(2n^2), with at most NATIVE_MAX_COLUMNS phi columns."""
    n = draw(st.integers(2, 4))
    num_states = draw(st.integers(1, lp.NATIVE_MAX_COLUMNS // (n * (n - 1))))
    levels = draw(st.sampled_from([LEVELS, SKEWED]))
    values = np.array([
        draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        for _ in range(num_states)
    ])
    counts = np.array(draw(st.lists(
        st.integers(1, 9), min_size=num_states, max_size=num_states
    )), dtype=float)
    slack = draw(st.sampled_from([0.0, _slack(draw(st.sampled_from([0.06, 0.2, 0.5])), n)]))
    return values, counts / counts.sum(), slack


@settings(max_examples=150, deadline=None)
@given(native_lps())
def test_native_point_passes_both_checks_and_matches_highs(case):
    values, w, slack = case
    with mock.patch.object(lp, "linprog", wraps=lp.linprog) as highs:
        phi, objective, z = lp._OrderingLp(values).solve(w, slack)
    event("HiGHS" if highs.call_count else "native")
    if highs.call_count:
        return
    assert phi.min() >= 0.0
    assert np.abs(phi.sum(axis=1) - 1.0).max() <= FEAS_TOL
    assert ordering_rows(values, w, phi).min() >= -slack - FEAS_TOL
    assert z.max() <= 0.0
    assert -objective <= dual_bound(values, w, z, slack) + 1e-9
    second = values[:, [j for _, j in signal_space(values.shape[1])]]
    assert objective == pytest.approx(float((w[:, None] * phi * second).sum()), abs=1e-12)
    _, highs_objective, _ = lp._OrderingLp(values)._solve_highs(w, slack)
    assert objective == pytest.approx(highs_objective, abs=1e-9)


def relaxed_example3():
    """An example-3 LP whose simplex pivots: slack eps/18 at weights (0.9, 0.1)."""
    return lp._OrderingLp(EX3.value_matrix), np.array([0.9, 0.1]), _slack(0.2, 3)


@pytest.mark.parametrize("damage", ["row_sum", "ordering", "dual", "pivot_cap"])
def test_refused_native_point_falls_through_to_highs(monkeypatch, damage):
    ordering, w, slack = relaxed_example3()
    real, returned = lp.simplex, []

    def damaged(*args):
        solved = real(*args)
        if solved is not None:
            x, z = solved
            if damage == "row_sum":
                x = x + np.eye(*x.shape)[0] * 10 * FEAS_TOL
            elif damage == "ordering":
                # state A entirely on pair (1, 0), though v_1 < v_0 in both states
                x = x.copy()
                x[0] = w[0] * np.eye(6)[signal_space(3).index((1, 0))]
            elif damage == "dual":
                z = np.zeros_like(z)  # the bound of no ordering rows: unattainable here
            solved = x, z
        returned.append(solved)
        return solved

    if damage == "pivot_cap":
        monkeypatch.setattr(lp, "NATIVE_MAX_PIVOTS", 1)
    monkeypatch.setattr(lp, "simplex", damaged)
    with mock.patch.object(lp, "linprog", wraps=lp.linprog) as highs:
        phi, objective, z = ordering.solve(w, slack)
    assert len(returned) == 1 and highs.call_count == 1
    assert (returned[0] is None) == (damage == "pivot_cap")
    want = ordering._solve_highs(w, slack)
    assert np.array_equal(phi, want[0]) and objective == want[1]
    assert np.array_equal(z, want[2])


def test_native_route_pivots_and_matches_highs():
    # the case above, undamaged: the simplex leaves its start and is kept
    ordering, w, slack = relaxed_example3()
    with mock.patch.object(lp, "linprog", wraps=lp.linprog) as highs:
        _, objective, _ = ordering.solve(w, slack)
    assert highs.call_count == 0
    assert objective == pytest.approx(ordering._solve_highs(w, slack)[1], abs=1e-9)


def test_zero_weights_large_lps_and_negative_slack_take_the_highs_route():
    with mock.patch.object(lp, "simplex", wraps=lp.simplex) as native:
        with mock.patch.object(lp, "linprog", wraps=lp.linprog) as highs:
            _, objective = solve_example3(weights=[0.9, 0.0])
        assert highs.call_count == 1
        assert objective == pytest.approx(0.9 * max2(EX3.value_matrix[0]))
        big = np.tile(EX3.value_matrix, (lp.NATIVE_MAX_COLUMNS // 12 + 1, 1))
        _, objective = solve_ordering_lp(big, np.full(len(big), 1 / len(big)), 0.0)
        assert objective == pytest.approx(solve_example3(weights=[0.5, 0.5])[1], abs=1e-9)
        with pytest.raises(SolverFailure):  # no phi meets rows of slack -1
            solve_example3(slack=-1.0)
    assert native.call_count == 1  # only the [0.5, 0.5] solve
