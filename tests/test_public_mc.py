import numpy as np
import pytest
from scipy.stats import chisquare

from signalcraft.model import KvsInstance, KvsState, ValidationError, make_example3
from signalcraft.oracle import brute_force_public_optimal
from signalcraft.public_exact import signal_space
from signalcraft.public_mc import McConfig, evaluate_mc_scheme, mc_signal, sample_count


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

