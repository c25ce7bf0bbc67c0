import numpy as np
import pytest

from signalcraft.auction import (
    bvs_public_revenue_mc,
    conditional_values,
    kvs_public_revenue,
    kvs_public_welfare,
    max2,
)
from signalcraft.bvs_pool import make_tail_pooling_scheme
from signalcraft.model import (
    BvsInstance,
    IidPrior,
    KvsInstance,
    KvsState,
    PublicScheme,
    Signal,
    ValidationError,
    ValueDistribution,
    make_example2,
    make_example3,
    make_theorem2_instance,
)
from signalcraft.oracle import theorem2_fullinfo_revenue


def second_largest_by_sorting(values):
    return sorted(values, reverse=True)[1]


def test_max2():
    assert max2([1, 2, 3]) == 2
    assert max2([5, 5, 1]) == 5
    assert max2([0.2, 0.1, 1.0]) == second_largest_by_sorting([0.2, 0.1, 1.0]) == 0.2
    with pytest.raises(ValidationError):
        max2([1.0])


def test_max2_matches_sorting_on_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.random(rng.integers(2, 8))
        assert max2(v) == second_largest_by_sorting(v.tolist())


def test_conditional_values_no_information():
    inst = make_example3(0.1)
    scheme = PublicScheme.no_information()
    alpha, post = conditional_values(inst, scheme, Signal.opaque(0))
    assert alpha == pytest.approx(1.0)
    assert post == pytest.approx([0.28, 0.18, 0.91])


def test_conditional_values_full_information():
    inst = make_example3(0.1)
    alpha, post = conditional_values(
        inst, PublicScheme.full_information(), Signal.revealed("A")
    )
    assert alpha == pytest.approx(0.9)
    assert post == pytest.approx([0.2, 0.1, 1.0])


def test_conditional_values_split_state():
    inst = make_example3(0.1)
    s0, s1 = Signal.opaque(0), Signal.opaque(1)
    table = {"A": {s0: 0.5, s1: 0.5}, "B": {s0: 0.5, s1: 0.5}}
    scheme = PublicScheme.explicit(table)
    a0, p0 = conditional_values(inst, scheme, s0)
    a1, p1 = conditional_values(inst, scheme, s1)
    assert a0 == pytest.approx(0.5) and a1 == pytest.approx(0.5)
    assert p0 == pytest.approx(p1)

    # splitting just state A keeps both posteriors degenerate at A's values
    table = {"A": {s0: 0.5, s1: 0.5}, "B": {Signal.opaque(2): 1.0}}
    scheme = PublicScheme.explicit(table)
    a0, p0 = conditional_values(inst, scheme, s0)
    a1, p1 = conditional_values(inst, scheme, s1)
    assert a0 == pytest.approx(0.45) and a1 == pytest.approx(0.45)
    assert p0 == pytest.approx([0.2, 0.1, 1.0])
    assert p0 == pytest.approx(p1)

    with pytest.raises(ValidationError, match="zero probability"):
        conditional_values(inst, scheme, Signal.opaque(9))


def test_kvs_revenue_and_welfare_examples():
    inst = make_example3(0.1)
    full, none = PublicScheme.full_information(), PublicScheme.no_information()
    assert kvs_public_revenue(inst, full) == pytest.approx(0.27)
    assert kvs_public_revenue(inst, none) == pytest.approx(0.28)
    assert kvs_public_welfare(inst, full) == pytest.approx(1.0)
    assert kvs_public_welfare(inst, none) == pytest.approx(0.91)


def test_revenue_equals_welfare_when_values_tie():
    inst = KvsInstance(
        n=2,
        states=(KvsState("a", 0.3, (0.4, 0.4)), KvsState("b", 0.7, (0.8, 0.8))),
    )
    for scheme in (PublicScheme.full_information(), PublicScheme.no_information()):
        assert kvs_public_revenue(inst, scheme) == pytest.approx(
            kvs_public_welfare(inst, scheme)
        )


def random_instance(rng, n, num_states):
    masses = rng.dirichlet(np.ones(num_states))
    states = tuple(
        KvsState(f"s{i}", float(masses[i]), tuple(rng.random(n)))
        for i in range(num_states)
    )
    return KvsInstance(n=n, states=states)


def random_explicit_scheme(rng, inst, num_signals):
    signals = [Signal.opaque(i) for i in range(num_signals)]
    table = {}
    for s in inst.states:
        row = rng.dirichlet(np.ones(num_signals))
        table[s.id] = {signals[i]: float(row[i]) for i in range(num_signals)}
    return PublicScheme.explicit(table)


def test_welfare_revenue_ordering_on_random_schemes():
    rng = np.random.default_rng(7)
    full = PublicScheme.full_information()
    for _ in range(100):
        inst = random_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        scheme = random_explicit_scheme(rng, inst, int(rng.integers(1, 5)))
        wf = kvs_public_welfare(inst, full)
        ws = kvs_public_welfare(inst, scheme)
        rs = kvs_public_revenue(inst, scheme)
        assert wf >= ws - 1e-9
        assert ws >= rs - 1e-9


def test_merging_identical_posteriors_keeps_revenue():
    inst = make_example3(0.1)
    s0, s1, s2 = Signal.opaque(0), Signal.opaque(1), Signal.opaque(2)
    # signals 0 and 1 carry the same posterior (both split states evenly)
    split = {"A": {s0: 0.3, s1: 0.3, s2: 0.4}, "B": {s0: 0.3, s1: 0.3, s2: 0.4}}
    merged = {"A": {s0: 0.6, s2: 0.4}, "B": {s0: 0.6, s2: 0.4}}
    rev_split = kvs_public_revenue(inst, PublicScheme.explicit(split))
    rev_merged = kvs_public_revenue(inst, PublicScheme.explicit(merged))
    assert rev_split == pytest.approx(rev_merged, abs=1e-12)


def test_bvs_full_information_matches_binomial_formula():
    inst = make_theorem2_instance(4, 0.1)
    exact, _ = theorem2_fullinfo_revenue(4, 0.1)
    est = bvs_public_revenue_mc(inst, PublicScheme.full_information(), 100_000, seed=3)
    assert abs(est.estimate - exact) <= 3 * est.std_error


def test_bvs_no_information_with_equal_distributions():
    # equal high/low makes the signal irrelevant: revenue is the second order
    # statistic of n i.i.d. uniforms
    dist = ValueDistribution.uniform(0.0, 1.0)
    inst = BvsInstance(n=4, prior=IidPrior(4, 0.5), high=dist, low=dist)
    est = bvs_public_revenue_mc(inst, PublicScheme.no_information(), 100_000, seed=4)
    expected = 3.0 / 5.0  # (n-1)/(n+1) for n=4 uniforms
    assert abs(est.estimate - expected) <= 3 * est.std_error


def test_bvs_tail_pooling_example2_conditional_revenue():
    inst = make_example2(4)
    scheme, ok = make_tail_pooling_scheme(inst)
    assert ok and scheme.kind == "tail_pooling"
    est = bvs_public_revenue_mc(inst, scheme, 200_000, seed=5, detail=True)
    pooled_mean, pooled_se, pooled_count = est.pooled
    assert pooled_count == 200_000  # every state of this instance is a tail state
    assert abs(pooled_mean - 1.0 / 6.0) <= 3 * pooled_se


def test_bvs_std_error_scaling():
    inst = make_theorem2_instance(6, 0.2)
    full = PublicScheme.full_information()
    small = bvs_public_revenue_mc(inst, full, 20_000, seed=6)
    large = bvs_public_revenue_mc(inst, full, 40_000, seed=7)
    ratio = large.std_error / small.std_error
    assert abs(ratio - 1.0 / np.sqrt(2.0)) <= 0.2 / np.sqrt(2.0)


def test_bvs_rejects_unsupported_scheme():
    inst = make_theorem2_instance(4, 0.1)
    with pytest.raises(ValidationError):
        bvs_public_revenue_mc(inst, PublicScheme.explicit({}), 10, seed=0)
    with pytest.raises(ValidationError):
        bvs_public_revenue_mc(inst, PublicScheme.full_information(), 0, seed=0)
