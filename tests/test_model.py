import json

import numpy as np
import pytest

from signalcraft.model import (
    BvsInstance,
    ExplicitPrior,
    IidPrior,
    KvsInstance,
    KvsState,
    SamplerPrior,
    Signal,
    ValidationError,
    ValueDistribution,
    instance_from_json_dict,
    load_instance,
    make_example1,
    make_example2,
    make_example3,
    make_theorem2_instance,
    save_instance,
    validate,
)


def test_validate_well_formed():
    inst = KvsInstance(
        n=2,
        states=(KvsState("a", 0.4, (0.1, 0.2)), KvsState("b", 0.6, (0.9, 0.3))),
    )
    assert validate(inst) == []


def test_validate_mass_sum():
    inst = KvsInstance(
        n=2,
        states=(KvsState("a", 0.6, (0.1, 0.2)), KvsState("b", 0.6, (0.9, 0.3))),
    )
    report = validate(inst)
    assert any("sum" in msg for msg in report)

    # NaN passes both "mass < 0" and "|total - 1| > tol" unnoticed
    nan = float("nan")
    inst = KvsInstance(
        n=2,
        states=(KvsState("a", nan, (0.1, 0.2)), KvsState("b", 1.0, (0.9, 0.3))),
    )
    assert any("not a finite" in msg for msg in validate(inst))
    prior = ExplicitPrior(n=2, entries=(((0, 1), nan), ((1, 0), 1.0)))
    assert any("not a finite" in msg for msg in prior.validate())


def test_validate_mean_ordering():
    inst = BvsInstance(
        n=3,
        prior=IidPrior(3, 0.2),
        high=ValueDistribution.point(0.2),
        low=ValueDistribution.point(0.5),
    )
    report = validate(inst)
    assert any("mean ordering" in msg for msg in report)


def test_validate_duplicate_ids_and_value_range():
    inst = KvsInstance(
        n=2,
        states=(KvsState("a", 0.5, (0.1, 1.4)), KvsState("a", 0.5, (0.9, 0.3))),
    )
    report = validate(inst)
    assert any("unique" in msg for msg in report)
    assert any("outside" in msg for msg in report)


def test_make_example3():
    inst = make_example3(0.1)
    assert inst.n == 3
    assert [s.mass for s in inst.states] == [0.9, 0.1]
    assert inst.states[0].values == pytest.approx((0.2, 0.1, 1.0))
    assert inst.states[1].values == pytest.approx((1.0, 0.9, 0.1))
    assert validate(inst) == []

    inst = make_example3(0.25)
    assert [s.mass for s in inst.states] == [0.75, 0.25]

    with pytest.raises(ValidationError):
        make_example3(0.5)
    with pytest.raises(ValidationError):
        make_example3(0.0)


def test_make_example1():
    inst = make_example1()
    assert inst.n == 2
    assert [s.mass for s in inst.states] == [0.5, 0.5]
    assert inst.states[0].values == (1.0, 2.0)
    assert inst.states[1].values == (7.0, 7.0)
    assert sum(s.mass for s in inst.states) == 1.0
    assert inst.value_scale == 7.0
    assert validate(inst) == []


def test_make_theorem2_instance():
    inst = make_theorem2_instance(4, 0.1)
    assert inst.high == ValueDistribution.bernoulli(1.0, 0.5)
    assert inst.low == ValueDistribution.point(0.0)
    assert isinstance(inst.prior, IidPrior) and inst.prior.eps == 0.1
    assert validate(inst) == []

    inst = make_theorem2_instance(100, 0.3)
    assert inst.high.params[1] == pytest.approx(0.1)

    with pytest.raises(ValidationError):
        make_theorem2_instance(2, 0.1)


def test_make_example2():
    inst = make_example2(4)
    assert len(inst.prior.entries) == 4
    assert all(m == 0.25 for _, m in inst.prior.entries)
    assert all(sum(bits) == 1 for bits, _ in inst.prior.entries)
    assert validate(inst) == []

    inst = make_example2(2)
    assert [m for _, m in inst.prior.entries] == [0.5, 0.5]

    with pytest.raises(ValidationError):
        make_example2(3)
    with pytest.raises(ValidationError):
        make_example2(0)


def test_iid_pmf_formula():
    inst = make_theorem2_instance(6, 0.2)
    for bits in [(0,) * 6, (1, 0, 1, 0, 0, 1), (1,) * 6]:
        k = sum(bits)
        expected = 0.2**k * 0.8 ** (6 - k)
        assert abs(inst.prior.pmf(bits) - expected) <= 1e-12


def test_prior_sampling_frequencies():
    # binned frequencies within 4 standard errors of the pmf
    rng = np.random.default_rng(11)
    trials = 100_000

    explicit = make_example2(4).prior
    samples = explicit.sample(rng, trials)
    for bits, mass in explicit.entries:
        freq = np.mean(np.all(samples == np.asarray(bits), axis=1))
        se = np.sqrt(mass * (1 - mass) / trials)
        assert abs(freq - mass) <= 4 * se

    iid = IidPrior(3, 0.3)
    samples = iid.sample(rng, trials)
    for idx in range(8):
        bits = tuple((idx >> b) & 1 for b in range(3))
        mass = iid.pmf(bits)
        freq = np.mean(np.all(samples == np.asarray(bits), axis=1))
        se = np.sqrt(mass * (1 - mass) / trials)
        assert abs(freq - mass) <= 4 * se

    base = IidPrior(3, 0.3)
    sampler = SamplerPrior(
        3, lambda r: tuple(base.sample(r)), base.pmf
    )
    samples = sampler.sample(rng, 20_000)
    for idx in range(8):
        bits = tuple((idx >> b) & 1 for b in range(3))
        mass = sampler.pmf(bits)
        freq = np.mean(np.all(samples == np.asarray(bits), axis=1))
        se = np.sqrt(mass * (1 - mass) / 20_000)
        assert abs(freq - mass) <= 4 * se


def test_distribution_functions():
    u = ValueDistribution.uniform(0.0, 2.0)
    assert u.mean() == 1.0
    assert u.cdf(1.0) == 0.5
    assert u.ppf(0.25) == 0.5
    assert u.has_mhr and not u.is_discrete

    b = ValueDistribution.bernoulli(1.0, 0.3)
    assert b.mean() == pytest.approx(0.3)
    assert b.ppf(0.69) == 0.0 and b.ppf(0.71) == 1.0
    assert b.is_discrete and not b.has_mhr

    e = ValueDistribution.exponential(2.0)
    assert e.mean() == 0.5
    assert e.cdf(e.ppf(0.9)) == pytest.approx(0.9)
    assert e.upper_cutoff() > e.ppf(0.999)

    assert ValueDistribution.uniform(1.0, 0.5).validate()
    assert ValueDistribution.point(-1.0).validate()
    assert ValueDistribution.exponential(0.0).validate()
    assert ValueDistribution.bernoulli(1.0, 1.5).validate()


def test_signal_payloads():
    sig = Signal.pair(0, 2)
    assert sig.label == "top1_second3"
    with pytest.raises(ValidationError):
        Signal.pair(1, 1)
    with pytest.raises(ValidationError):
        Signal.pooled((1, 0), (1, 0))
    assert Signal.pooled((1, 0), (0, 1)).label == "pool_10_01"
    assert Signal.revealed("A").label == "state_A"


def test_json_round_trip_kvs(tmp_path):
    inst = make_example3(0.1)
    path = tmp_path / "kvs.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back == inst

    scaled = make_example1()
    save_instance(scaled, path)
    assert load_instance(path) == scaled


def test_json_round_trip_bvs(tmp_path):
    for inst in (make_theorem2_instance(4, 0.1), make_example2(4)):
        path = tmp_path / "bvs.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_json_unknown_fields_rejected():
    doc = make_example3(0.1).to_json_dict()
    doc["surprise"] = 1
    with pytest.raises(ValidationError, match="unknown fields"):
        instance_from_json_dict(doc)

    doc = make_example3(0.1).to_json_dict()
    doc["states"][0]["extra"] = 2
    with pytest.raises(ValidationError, match="unknown fields"):
        instance_from_json_dict(doc)


def test_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="malformed JSON"):
        load_instance(path)
    with pytest.raises(ValidationError):
        instance_from_json_dict({"kind": "mystery"})


def test_explicit_scheme_table_validation():
    from signalcraft.model import PublicScheme

    good = PublicScheme.explicit(
        {"A": {Signal.pair(0, 1): 0.5, Signal.pair(1, 0): 0.5}}
    )
    assert good.validate() == []
    bad = PublicScheme.explicit({"A": {Signal.pair(0, 1): 0.7}})
    assert any("sums to" in msg for msg in bad.validate())
