import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import signalcraft.lp as lp
from signalcraft.auction import kvs_public_revenue, max2
from signalcraft.lp import FEAS_TOL, SolverFailure, signal_space, solve_ordering_lp
from signalcraft.model import KvsInstance, KvsState, make_example3
from signalcraft.oracle import brute_force_public_optimal
from signalcraft.public_exact import solve_optimal_public

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


def stub_linprog(monkeypatch, **fields):
    monkeypatch.setattr(
        lp, "linprog", lambda *a, **k: OptimizeResult(x=None, fun=None, **fields)
    )


def test_infeasible(monkeypatch):
    stub_linprog(monkeypatch, status=2, message="The problem is infeasible.")
    with pytest.raises(SolverFailure, match="status 2"):
        solve_example3()


def test_unbounded(monkeypatch):
    stub_linprog(monkeypatch, status=3, message="The problem is unbounded.")
    with pytest.raises(SolverFailure, match="status 3"):
        solve_example3()


def test_reject_non_finite():
    with pytest.raises(ValueError):
        solve_example3(weights=[0.9, math.nan])
    values = EX3.value_matrix.copy()  # the instance's own matrix is read-only
    values[0, 0] = math.inf
    with pytest.raises(ValueError):
        solve_ordering_lp(values, EX3.masses, 0.0)


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

    monkeypatch.setattr(lp, "linprog", perturbed)
    with pytest.raises(SolverFailure, match="misses"):
        solve_example3()


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
