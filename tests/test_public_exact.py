import numpy as np
import pytest

from signalcraft.auction import _signal_posteriors, kvs_public_revenue, max2
from signalcraft.model import (
    KvsInstance,
    KvsState,
    PublicScheme,
    ValidationError,
    make_example1,
    make_example3,
)
from signalcraft.public_exact import signal_space, solve_optimal_public


def test_signal_space():
    pairs = signal_space(3)
    assert len(pairs) == 6
    assert (0, 1) in pairs and (1, 0) in pairs
    assert len(set(pairs)) == 6
    with pytest.raises(ValidationError):
        signal_space(1)


def test_single_state_collapses_to_max2():
    inst = KvsInstance(n=3, states=(KvsState("only", 1.0, (0.3, 0.8, 0.5)),))
    _, revenue = solve_optimal_public(inst)
    assert revenue == pytest.approx(max2((0.3, 0.8, 0.5)), abs=1e-7)


def test_duplicated_state_matches_single_state():
    single = KvsInstance(n=3, states=(KvsState("s", 1.0, (0.3, 0.8, 0.5)),))
    double = KvsInstance(
        n=3,
        states=(
            KvsState("s1", 0.5, (0.3, 0.8, 0.5)),
            KvsState("s2", 0.5, (0.3, 0.8, 0.5)),
        ),
    )
    _, r1 = solve_optimal_public(single)
    _, r2 = solve_optimal_public(double)
    assert r1 == pytest.approx(r2, abs=1e-7)


def test_example3_optimum_below_three_eps():
    _, revenue = solve_optimal_public(make_example3(0.1))
    assert revenue <= 0.3 + 1e-6
    assert revenue >= 0.27 - 1e-9  # full information is feasible


def test_example1_optimum_dominates_full_information():
    inst = make_example1()
    _, revenue = solve_optimal_public(inst)
    full_rev = kvs_public_revenue(inst, PublicScheme.full_information())
    assert full_rev == pytest.approx(4.0)
    assert revenue >= 4.0 - 1e-7


def random_instance(rng, n, num_states):
    masses = rng.dirichlet(np.ones(num_states))
    states = tuple(
        KvsState(f"s{i}", float(masses[i]), tuple(rng.random(n)))
        for i in range(num_states)
    )
    return KvsInstance(n=n, states=states)


def test_optimum_dominates_baselines_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(25):
        inst = random_instance(rng, int(rng.integers(2, 4)), int(rng.integers(1, 6)))
        _, revenue = solve_optimal_public(inst)
        full = kvs_public_revenue(inst, PublicScheme.full_information())
        none = kvs_public_revenue(inst, PublicScheme.no_information())
        assert revenue >= full - 1e-6
        assert revenue >= none - 1e-6


def test_scheme_matches_lp_objective_and_rows_sum():
    inst = make_example3(0.1)
    scheme, revenue = solve_optimal_public(inst)
    assert kvs_public_revenue(inst, scheme) == pytest.approx(revenue, abs=1e-6)
    for state_id, row in scheme.table.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0 for p in row.values())


def test_posterior_ordering_of_used_signals():
    rng = np.random.default_rng(33)
    for _ in range(10):
        inst = random_instance(rng, 3, 4)
        scheme, _ = solve_optimal_public(inst)
        for sig, alpha, post in _signal_posteriors(inst, scheme):
            i, j = sig.payload
            if alpha <= 1e-9:
                continue
            assert post[i] >= post[j] - 1e-7
            for k in range(inst.n):
                if k not in (i, j):
                    assert post[j] >= post[k] - 1e-7
