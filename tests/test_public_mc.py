import numpy as np
import pytest
from scipy.stats import chisquare

from signalcraft.lp import solve_ordering_lp
from signalcraft.model import KvsInstance, KvsState, Signal, ValidationError, make_example3
from signalcraft.oracle import brute_force_public_optimal
from signalcraft.public_exact import signal_space
from signalcraft.public_mc import (
    McConfig,
    _draw_pair,
    _empirical_weights,
    _slack,
    evaluate_mc_scheme,
    mc_signal,
    sample_count,
)


def test_sample_count_frozen_values():
    # ceil(8 n^4 / eps^2 * ln(4 n^3 / eps)), natural logarithm
    assert sample_count(3, 0.2) == 101_924
    assert sample_count(2, 1.0) == 444


def test_sample_count_rejects_bad_eps():
    with pytest.raises(ValidationError):
        sample_count(3, 0.0)
    with pytest.raises(ValidationError):
        sample_count(3, -0.1)
    with pytest.raises(ValidationError):
        sample_count(1, 0.5)


def test_mc_signal_single_state_prior():
    # vanishing slack: the signal names the state's true top-two bidders
    inst = KvsInstance(n=3, states=(KvsState("only", 1.0, (0.9, 0.5, 0.1)),))
    config = McConfig(epsilon=1e-6, seed=2, k_override=50)
    for seed in range(5):
        sig = mc_signal(inst, "only", config, rng=np.random.default_rng(seed))
        i, j = sig.payload
        assert j == 1  # the second-highest-value bidder


def test_mc_signal_k_override_one():
    inst = make_example3(0.1)
    config = McConfig(epsilon=1e-6, seed=0, k_override=1)
    # with K = 1 the empirical LP sees only the realized state
    sig = mc_signal(inst, "B", config, rng=np.random.default_rng(1))
    i, j = sig.payload
    assert j == 1  # second-highest bidder of (1, 0.9, 0.1)


def test_mc_signal_unknown_state():
    inst = make_example3(0.1)
    with pytest.raises(ValidationError):
        mc_signal(inst, "nope", McConfig(0.1, 0, 10))


def signal_by_scanning_states(instance, state_id, config, rng):
    """mc_signal rebuilding the masses, the state lookup and the support's
    values from the state objects on every call."""
    state_idx = next(i for i, s in enumerate(instance.states) if s.id == state_id)
    masses = np.array([s.mass for s in instance.states])
    weights = _empirical_weights(masses, state_idx, config.k_for(instance.n), rng)
    support = np.flatnonzero(weights)
    values = np.array([instance.states[s].values for s in support], dtype=float)
    phi, _ = solve_ordering_lp(values, weights[support], _slack(config.epsilon, instance.n))
    return Signal.pair(*signal_space(instance.n)[_draw_pair(phi, support, state_idx, rng)])


def test_mc_signal_matches_per_call_state_scan():
    rng = np.random.default_rng(11)
    instances = []
    for num_states in (5, 60, 400):
        masses = rng.dirichlet(np.ones(num_states))
        values = rng.choice([0.0, 0.25, 0.5, 1.0], size=(num_states, 3))  # ties
        instances.append(KvsInstance(n=3, states=tuple(
            KvsState(f"s{s}", float(m), tuple(map(float, v)))
            for s, (m, v) in enumerate(zip(masses, values))
        )))
    config = McConfig(epsilon=0.2, seed=0, k_override=100)
    for call in range(200):
        inst = instances[call % 3]
        state_id = inst.states[int(rng.integers(len(inst.states)))].id
        got = mc_signal(inst, state_id, config, rng=np.random.default_rng(call))
        want = signal_by_scanning_states(inst, state_id, config, np.random.default_rng(call))
        assert got == want


def test_planted_slot_preserves_prior_distribution():
    # over many invocations with the input drawn from the prior, the K slots
    # are jointly K i.i.d. prior draws: chi-square on pooled slot counts
    masses = np.array([0.5, 0.3, 0.2])
    inst = KvsInstance(
        n=2,
        states=(
            KvsState("a", 0.5, (0.2, 0.4)),
            KvsState("b", 0.3, (0.7, 0.1)),
            KvsState("c", 0.2, (0.5, 0.9)),
        ),
    )
    k = 10
    config = McConfig(epsilon=0.5, seed=0, k_override=k)
    rng = np.random.default_rng(99)
    totals = np.zeros(3)
    invocations = 400
    for _ in range(invocations):
        s_idx = int(rng.choice(3, p=masses))
        details = mc_signal(
            inst, inst.states[s_idx].id, config, rng=rng, detail=True
        )
        totals += details.weights * k
    assert totals.sum() == pytest.approx(invocations * k)
    result = chisquare(totals, masses * invocations * k)
    assert result.pvalue > 0.001


def test_emitted_signal_satisfies_slackened_ordering():
    inst = make_example3(0.1)
    eps = 0.2
    slack = eps / (2 * 9)
    config = McConfig(epsilon=eps, seed=0, k_override=200)
    pairs = signal_space(3)
    values = inst.value_matrix
    for seed in range(10):
        details = mc_signal(
            inst, "A", config, rng=np.random.default_rng(seed), detail=True
        )
        w = details.weights
        phi = details.phi
        for p, (i, j) in enumerate(pairs):
            post = np.array(
                [float((w * phi[:, p]) @ values[:, b]) for b in range(3)]
            )
            assert post[i] >= post[j] - slack - 1e-7
            for kk in range(3):
                if kk not in (i, j):
                    assert post[j] >= post[kk] - slack - 1e-7


def test_evaluator_plays_the_signalers_scheme():
    # replay each spawned trial through mc_signal and redo the bookkeeping
    rng = np.random.default_rng(8)
    masses = rng.dirichlet(np.ones(30))
    values = rng.choice([0.0, 0.5, 1.0], size=(30, 3))  # ties
    tied = KvsInstance(n=3, states=tuple(
        KvsState(f"s{s}", float(m), tuple(map(float, v)))
        for s, (m, v) in enumerate(zip(masses, values))
    ))
    pairs = signal_space(3)
    for inst, config in (
        (make_example3(0.1), McConfig(epsilon=0.2, seed=5, k_override=300)),
        (tied, McConfig(epsilon=0.2, seed=6, k_override=100)),
    ):
        trials = 120
        result = evaluate_mc_scheme(inst, config, trials)
        emitted = []
        for seed in np.random.SeedSequence(config.seed).spawn(trials):
            trial_rng = np.random.default_rng(seed)
            s_idx = int(trial_rng.choice(len(inst.states), p=inst.masses))
            sig = mc_signal(inst, inst.states[s_idx].id, config, rng=trial_rng)
            emitted.append((s_idx, pairs.index(sig.payload)))
        posterior_sum = {}
        for s_idx, p in emitted:
            total, count = posterior_sum.get(p, (np.zeros(3), 0))
            posterior_sum[p] = (total + inst.value_matrix[s_idx], count + 1)
        revenue = {
            p: sorted(total / count)[-2] for p, (total, count) in posterior_sum.items()
        }
        per_trial = np.array([revenue[p] for _, p in emitted])
        assert result.estimate == pytest.approx(per_trial.mean(), abs=1e-12)
        assert result.std_error == pytest.approx(
            per_trial.std(ddof=1) / np.sqrt(trials), abs=1e-12
        )


def test_evaluate_rejects_zero_trials():
    with pytest.raises(ValidationError):
        evaluate_mc_scheme(make_example3(0.1), McConfig(0.2, 0, 100), 0)


def test_evaluate_example3_meets_guarantee():
    inst = make_example3(0.1)
    config = McConfig(epsilon=0.2, seed=12, k_override=5000)
    result = evaluate_mc_scheme(inst, config, trials=1000)
    _, opt = brute_force_public_optimal(inst)
    assert opt == pytest.approx(0.28, abs=1e-9)
    assert result.estimate >= opt - 0.2 - 3 * result.std_error
    assert result.guarantee is False  # K was overridden


def test_evaluate_converges_with_large_k_small_eps():
    inst = make_example3(0.1)
    config = McConfig(epsilon=0.02, seed=3, k_override=20_000)
    result = evaluate_mc_scheme(inst, config, trials=300)
    _, opt = brute_force_public_optimal(inst)
    assert abs(result.estimate - opt) <= 0.02 + 4 * result.std_error


def test_evaluate_example3_with_formula_sample_count():
    # the full sample budget for eps = 0.2 (101924 draws per invocation)
    inst = make_example3(0.1)
    config = McConfig(epsilon=0.2, seed=4)
    result = evaluate_mc_scheme(inst, config, trials=1000)
    assert result.k == 101_924
    assert result.guarantee is True
    _, opt = brute_force_public_optimal(inst)
    assert result.estimate >= opt - 0.2 - 3 * result.std_error

