import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import signalcraft.lp as lp
from signalcraft import oracle
from signalcraft.auction import kvs_public_revenue, max2
from signalcraft.model import (
    BvsInstance,
    IidPrior,
    KvsInstance,
    KvsState,
    PublicScheme,
    ValidationError,
    ValueDistribution,
    make_example1,
    make_example3,
    make_theorem2_instance,
)
from signalcraft.oracle import (
    EXACT_MAX_COLUMNS,
    PartitionScheme,
    best_partition_welfare,
    binomial_cond_expectation,
    brute_force_public_optimal,
    exact_ordering_lp,
    theorem2_fullinfo_revenue,
)
from signalcraft.public_exact import solve_optimal_public
from signalcraft.public_mc import McConfig, _slack, mc_signal


def test_brute_force_example3():
    scheme, revenue = brute_force_public_optimal(make_example3(0.1))
    assert 0.27 - 1e-9 <= revenue <= 0.3 + 1e-6
    assert kvs_public_revenue(make_example3(0.1), scheme) == pytest.approx(
        revenue, abs=1e-6
    )


def test_brute_force_zero_mass_state_gets_a_valid_row():
    # the optimal LP vertex puts the zero-mass state's whole row on signals
    # nobody else uses, so all of them are dropped
    inst = KvsInstance(
        n=3,
        states=(KvsState("s0", 1.0, (0.5, 0.5, 1.0)), KvsState("s1", 0.0, (0.25, 1.0, 0.5))),
    )
    scheme, revenue = brute_force_public_optimal(inst)
    for row in scheme.table.values():
        assert all(math.isfinite(q) and q >= 0 for q in row.values())
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
    assert revenue == pytest.approx(0.5, abs=1e-9)


def test_brute_force_example1():
    _, revenue = brute_force_public_optimal(make_example1())
    assert revenue >= 4.0 - 1e-7


def test_brute_force_single_state():
    inst = KvsInstance(n=4, states=(KvsState("s", 1.0, (0.1, 0.9, 0.4, 0.2)),))
    _, revenue = brute_force_public_optimal(inst)
    assert revenue == pytest.approx(max2((0.1, 0.9, 0.4, 0.2)), abs=1e-7)


def test_brute_force_handles_thousands_of_states():
    rng = np.random.default_rng(8)
    num_states = 2000
    masses = rng.dirichlet(np.ones(num_states))
    states = tuple(
        KvsState(f"s{i:04d}", float(masses[i]), tuple(rng.random(3)))
        for i in range(num_states)
    )
    inst = KvsInstance(n=3, states=states)
    _, truth = brute_force_public_optimal(inst)
    _, ours = solve_optimal_public(inst)
    assert ours == pytest.approx(truth, abs=1e-6)
    full = kvs_public_revenue(inst, PublicScheme.full_information())
    assert truth >= full - 1e-6


def test_brute_force_agrees_with_production_solver():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        num_states = int(rng.integers(1, 7))
        masses = rng.dirichlet(np.ones(num_states))
        states = tuple(
            KvsState(f"s{i}", float(masses[i]), tuple(rng.random(n)))
            for i in range(num_states)
        )
        inst = KvsInstance(n=n, states=states)
        _, ours = solve_optimal_public(inst)
        _, truth = brute_force_public_optimal(inst)
        assert ours == pytest.approx(truth, abs=1e-5)


# --- the exact ordering LP -----------------------------------------------------

TIES = (0.0, 0.5, 1.0)  # every profile ties some pair of bidders often
GRID = (0.0, 0.25, 0.5, 1.0)


def instance_of(values, weights):
    return KvsInstance(n=values.shape[1], states=tuple(
        KvsState(f"s{s}", float(w), tuple(v)) for s, (w, v) in enumerate(zip(weights, values))
    ))


@st.composite
def tiny_lps(draw, positive=False):
    """Values on a tie-heavy grid, weights from integer counts (positive
    ones, or any with some mass), and a slack of 0 or eps/(2n^2)."""
    n = draw(st.integers(2, 3))
    num_states = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([TIES, GRID]))
    values = np.array([
        draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        for _ in range(num_states)
    ])
    counts = np.array(draw(st.lists(
        st.integers(1 if positive else 0, 5), min_size=num_states, max_size=num_states
    )), dtype=float)
    assume(counts.sum() > 0)
    slack = draw(st.sampled_from([0.0, _slack(0.1, n), _slack(0.3, n)]))
    return values, counts / counts.sum(), slack


def exact_rows(values, weights, slack, phi):
    """The exact row sums and the largest exact ordering row less the
    slack, built from the LP's definition signal by signal."""
    n = values.shape[1]
    w = [Fraction(x) for x in weights.tolist()]
    v = [[Fraction(x) for x in row] for row in values.tolist()]
    worst = -Fraction(slack)
    for p, (i, j) in enumerate(lp.signal_space(n)):
        post = [sum(w[s] * phi[s][p] * v[s][b] for s in range(len(w))) for b in range(n)]
        for a, b in [(i, j)] + [(j, k) for k in range(n) if k not in (i, j)]:
            worst = max(worst, post[b] - post[a] - Fraction(slack))
    return [sum(row) for row in phi], worst


@settings(max_examples=120, deadline=None)
@given(tiny_lps(positive=True))
def test_exact_lp_matches_the_native_route(case):
    values, w, slack = case
    optimum, phi = exact_ordering_lp(values, w, slack)
    row_sums, worst = exact_rows(values, w, slack, phi)
    assert row_sums == [1] * len(w) and worst <= 0
    assert min(min(row) for row in phi) >= 0
    second = [j for _, j in lp.signal_space(values.shape[1])]
    assert optimum == sum(
        Fraction(w[s]) * phi[s][p] * Fraction(values[s, j])
        for s in range(len(w)) for p, j in enumerate(second)
    )
    with mock.patch.object(lp, "linprog", wraps=lp.linprog) as highs:
        _, objective = lp.solve_ordering_lp(values, w, slack)
    assert highs.call_count == 0
    assert abs(objective - float(optimum)) <= 1e-12


@st.composite
def continuous_lps(draw):
    """Values u ~ U[0,1] or u**6 (badly scaled: entries spread over many
    orders of magnitude), drawn by a generator of a drawn seed, positive
    weights from integer counts, and a slack of 0 or eps/(2n^2), with at
    most EXACT_MAX_COLUMNS phi columns."""
    n = draw(st.integers(2, 4))
    num_states = draw(st.integers(1, EXACT_MAX_COLUMNS // (n * (n - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random((num_states, n)) ** draw(st.sampled_from([1, 6]))
    counts = np.array(draw(st.lists(
        st.integers(1, 9), min_size=num_states, max_size=num_states
    )), dtype=float)
    slack = draw(st.sampled_from([0.0, _slack(draw(st.sampled_from([0.1, 0.3])), n)]))
    return values, counts / counts.sum(), slack


@settings(max_examples=60, deadline=None)
@given(continuous_lps())
def test_native_route_matches_the_exact_lp_on_continuous_values(case):
    values, w, slack = case
    with mock.patch.object(lp, "linprog", wraps=lp.linprog) as highs:
        _, objective = lp.solve_ordering_lp(values, w, slack)
    assert highs.call_count == 0
    assert abs(objective - float(exact_ordering_lp(values, w, slack)[0])) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(tiny_lps())
def test_exact_lp_matches_the_exact_public_scheme(case):
    values, w, _ = case
    _, revenue = solve_optimal_public(instance_of(values, w))
    event("zero mass" if (w == 0).any() else "positive masses")
    assert abs(revenue - float(exact_ordering_lp(values, w, 0)[0])) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(tiny_lps(positive=True), st.sampled_from([0.1, 0.3]), st.integers(0, 2**16))
def test_exact_lp_matches_face_certified_signals(case, eps, seed):
    values, w, _ = case
    inst = instance_of(values, w)
    config = McConfig(eps, seed, k_override=12)  # K >= |states|: faces serve
    real, cold = lp._OrderingLp.solve, []

    def counted(self, *args):
        cold.append(1)
        return real(self, *args)

    rng = np.random.default_rng(seed)
    served = 0
    with mock.patch.object(lp._OrderingLp, "solve", counted):
        for _ in range(4):
            before = len(cold)
            details = mc_signal(inst, "s0", config, rng=rng, detail=True)
            served += len(cold) == before
            optimum, _ = exact_ordering_lp(values, details.weights, _slack(eps, inst.n))
            assert abs(details.lp_objective - float(optimum)) <= 1e-12
    event(f"faces served {served} of 4")


@pytest.mark.parametrize("levels", ["grid", "uniform"])
def test_highs_branch_of_the_oracle_matches_its_exact_branch(monkeypatch, levels):
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        num_states = int(rng.integers(1, EXACT_MAX_COLUMNS // (n * (n - 1)) + 1))
        values = rng.random((num_states, n))
        if levels == "grid":
            values = np.array(GRID)[rng.integers(len(GRID), size=values.shape)]
        inst = instance_of(values, rng.dirichlet(np.ones(num_states)))
        _, exact = brute_force_public_optimal(inst)
        with monkeypatch.context() as m:
            m.setattr(oracle, "EXACT_MAX_COLUMNS", 0)
            with mock.patch.object(oracle, "linprog", wraps=oracle.linprog) as highs:
                _, by_highs = brute_force_public_optimal(inst)
        assert highs.call_count == 1
        assert abs(by_highs - exact) <= 1e-9


def test_exact_lp_above_its_cap_is_refused():
    copies = EXACT_MAX_COLUMNS // 12 + 1  # example 3 has 12 columns
    values = np.tile(make_example3(0.1).value_matrix, (copies, 1))
    states = len(values)
    with pytest.raises(ValidationError, match="limited to"):
        exact_ordering_lp(values, np.full(states, 1 / states), 0.0)
    # the oracle itself solves it by HiGHS
    with mock.patch.object(oracle, "linprog", wraps=oracle.linprog) as highs:
        _, revenue = brute_force_public_optimal(instance_of(values, np.full(states, 1 / states)))
    assert highs.call_count == 1
    half = float(exact_ordering_lp(make_example3(0.1).value_matrix, [0.5, 0.5], 0.0)[0])
    assert revenue == pytest.approx(half, abs=1e-9)
    with pytest.raises(ValidationError):
        exact_ordering_lp(values[:2], [0.5, 0.5], -0.1)


def test_exact_lp_gives_zero_mass_states_a_valid_row():
    # the second and fourth states carry no weight but keep a row of phi
    values = np.array([[0.5, 0.5, 1.0], [0.25, 1.0, 0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 1.0]])
    for slack in (0.0, _slack(0.2, 3)):
        optimum, phi = exact_ordering_lp(values, [0.6, 0.0, 0.4, 0.0], slack)
        assert [sum(row) for row in phi] == [1, 1, 1, 1]
        assert all(q >= 0 for row in phi for q in row)
        _, positive = lp.solve_ordering_lp(values[[0, 2]], np.array([0.6, 0.4]), slack)
        assert abs(float(optimum) - positive) <= 1e-12


def test_example3_exact_oracle_matches_highs():
    for eps in (0.05, 0.1, 0.2, 0.3):
        inst = make_example3(eps)
        optimum, _ = exact_ordering_lp(inst.value_matrix, inst.masses, 0.0)
        _, revenue = brute_force_public_optimal(inst)
        assert revenue == float(optimum)
        _, by_highs = lp._OrderingLp(inst.value_matrix)._solve_highs(inst.masses, 0.0)[:2]
        assert abs(revenue - by_highs) <= 1e-12


def theorem2_like(n=4, eps=0.1):
    return make_theorem2_instance(n, eps)


def full_information_welfare(n, eps, p):
    return sum(
        math.comb(n, k) * eps**k * (1 - eps) ** (n - k) * (1 - (1 - p) ** k)
        for k in range(n + 1)
    )


def no_information_welfare(n, eps, p):
    # all marginals equal eps: every targeted-probability is eps, so the best
    # bid among bidders with a successful draw is eps
    return eps * (1 - (1 - p) ** n)


def test_partition_welfare_extremes():
    inst = theorem2_like()
    p = 0.5
    _, w1 = best_partition_welfare(inst, 1)
    assert w1 == pytest.approx(no_information_welfare(4, 0.1, p), abs=1e-12)
    part, w_all = best_partition_welfare(inst, 16)
    assert len(part.blocks) == 16
    assert w_all == pytest.approx(full_information_welfare(4, 0.1, p), abs=1e-12)


def test_partition_welfare_monotone_and_below_full():
    inst = theorem2_like()
    _, w1 = best_partition_welfare(inst, 1)
    _, w2 = best_partition_welfare(inst, 2)
    _, w3 = best_partition_welfare(inst, 3)
    _, w_all = best_partition_welfare(inst, 16)
    assert w1 <= w2 + 1e-12
    assert w2 <= w3 + 1e-12
    assert w3 < w_all  # two or three signals cannot reach full revelation


def test_partition_welfare_covers_and_disjoint():
    inst = theorem2_like()
    part, _ = best_partition_welfare(inst, 3)
    all_states = [bits for bits, _ in inst.prior.entries] if hasattr(
        inst.prior, "entries"
    ) else [tuple((i >> b) & 1 for b in range(4)) for i in range(16)]
    assert part.validate(all_states) == []


def test_partition_scheme_validate_catches_overlap():
    part = PartitionScheme(blocks=(((0, 1),), ((0, 1), (1, 0))))
    assert part.validate([(0, 1), (1, 0)]) != []


def test_partition_welfare_input_limits():
    inst = theorem2_like()
    with pytest.raises(ValidationError):
        best_partition_welfare(inst, 5)  # between 4 and |states|
    big = make_theorem2_instance(8, 0.1)
    with pytest.raises(ValidationError):
        best_partition_welfare(big, 2)
    cont = BvsInstance(
        n=4,
        prior=IidPrior(4, 0.1),
        high=ValueDistribution.uniform(0, 1),
        low=ValueDistribution.point(0.0),
    )
    with pytest.raises(ValidationError):
        best_partition_welfare(cont, 2)


def test_theorem2_revenue_bounds():
    exact, lower = theorem2_fullinfo_revenue(100, 0.3)
    hand_lower = 1 - math.exp(-3.0) - 3.0 * math.exp(-0.3 * 99 / 10.0)
    assert lower == pytest.approx(hand_lower, abs=1e-12)
    assert exact >= lower

    exact, _ = theorem2_fullinfo_revenue(16, 0.0)
    assert exact == 0.0

    with pytest.raises(ValidationError):
        theorem2_fullinfo_revenue(2, 0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(st.integers(4, 64), st.floats(0.0, 1.0, exclude_max=True))
@example(6, 0.25)
@example(4, 0.0)
@example(64, 0.0)
def test_theorem2_exact_by_direct_enumeration(n, eps):
    p = 1 / math.sqrt(n)
    expected = 0.0
    for i in range(n + 1):
        prob = math.comb(n, i) * eps**i * (1 - eps) ** (n - i)
        at_least_two = 1 - (1 - p) ** i - i * p * (1 - p) ** (i - 1) if i >= 1 else 0.0
        expected += prob * at_least_two
    exact, _ = theorem2_fullinfo_revenue(n, eps)
    assert math.isfinite(exact)
    assert exact == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_binomial_cond_expectation_matches_exact_fraction(data):
    m = data.draw(st.integers(1, 200))
    p = data.draw(st.floats(1e-6, 0.5, exclude_max=True))
    k = data.draw(st.integers(0, m))
    # p = a / d exactly, so each term C(m, i) p^i (1-p)^(m-i) is an integer
    # over the common denominator d^m, which cancels in the ratio
    a, d = p.as_integer_ratio()
    terms = [(i, math.comb(m, i) * a**i * (d - a) ** (m - i)) for i in range(k, m + 1)]
    tail = sum(t for _, t in terms)
    assume(Fraction(tail, d**m) > Fraction(1, 10**290))  # clear of the 1e-300 guard
    exact = Fraction(sum(i * t for i, t in terms), tail)
    assert binomial_cond_expectation(m, p, k) == pytest.approx(float(exact), rel=1e-12)


def test_binomial_cond_expectation_limits():
    assert binomial_cond_expectation(100, 0.3, 0) == pytest.approx(30.0, abs=1e-9)
    assert binomial_cond_expectation(50, 0.3, 50) == pytest.approx(50.0, abs=1e-9)
    with pytest.raises(ValidationError):
        binomial_cond_expectation(100, 0.7, 10)
    with pytest.raises(ValidationError):
        binomial_cond_expectation(100, 0.3, 101)


def test_binomial_cond_expectation_monotone_in_k():
    values = [binomial_cond_expectation(200, 0.2, k) for k in (0, 10, 40, 80)]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_binomial_tail_bound_holds_beyond_boundary_scale():
    # at m = 2e4 the threshold pm + m^(3/4) sits well below 2mp and the
    # conditional mean stays under it
    m, p = 20_000, 0.1
    k = math.ceil(p * m + m**0.75)
    value = binomial_cond_expectation(m, p, k)
    assert k < 2 * m * p
    assert value < 2 * m * p
    # the conditional mean always dominates the threshold itself
    assert value >= k


def test_binomial_cond_expectation_underflow_guard():
    with pytest.raises(ValidationError, match="1e-300"):
        binomial_cond_expectation(1_000_000, 0.4, 1_000_000)
