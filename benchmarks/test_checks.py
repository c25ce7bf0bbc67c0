"""Tests of the benchmark's own output checks.

Each check must pass the package's real output and reject a deliberately
wrong value.  Run from the repository root:

    python3 -m pytest benchmarks/test_checks.py -q
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from signalcraft import oracle, private, public_mc  # noqa: E402
from signalcraft.model import KvsInstance, KvsState, make_example3  # noqa: E402


def random_instance(seed, num_states=12, n=3):
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(num_states))
    values = rng.random((num_states, n))
    states = tuple(
        KvsState(f"s{i}", float(masses[i]), tuple(float(x) for x in values[i]))
        for i in range(num_states)
    )
    return KvsInstance(n=n, states=states), masses, values


def lattice_instance(seed, levels=(0.0, 0.5, 1.0), n=3):
    profiles = np.array(list(itertools.product(levels, repeat=n)))
    masses = np.random.default_rng(seed).dirichlet(np.ones(len(profiles)))
    ids = [f"p{i}" for i in range(len(profiles))]
    states = tuple(
        KvsState(ids[i], float(masses[i]), tuple(float(x) for x in profiles[i]))
        for i in range(len(profiles))
    )
    return KvsInstance(n=n, states=states), masses, profiles, ids


# ---------------------------------------------------------------------------
# Public signaling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_own_lp_matches_oracle(seed):
    inst, masses, values = random_instance(seed)
    _, brute = oracle.brute_force_public_optimal(inst)
    assert abs(checks.ordering_lp_optimum(values, masses, 0.0) - brute) <= 1e-9
    assert checks.ordering_lp_optimum(values, masses, 0.01) >= brute - 1e-12


def sampled_call(seed, k_override=None):
    inst, masses, values = random_instance(seed)
    config = public_mc.McConfig(epsilon=0.2, seed=0, k_override=k_override)
    rng = np.random.default_rng(seed)
    d = public_mc.mc_signal(inst, "s3", config, rng=rng, detail=True)
    return d, values


def test_lp_objective_check_passes_real_output_and_rejects_offsets():
    d, values = sampled_call(4, k_override=150)
    assert checks.check_lp_objective(d.lp_objective, values, d.weights, 0.2) == []
    assert checks.check_lp_objective(d.lp_objective + 1e-3, values, d.weights, 0.2)
    assert checks.check_lp_objective(d.lp_objective - 1e-3, values, d.weights, 0.2)


def test_lp_objective_check_rejects_value_below_unrelaxed_optimum():
    d, values = sampled_call(5, k_override=150)
    exact = checks.ordering_lp_optimum(values, d.weights, 0.0)
    problems = checks.check_lp_objective(exact - 1e-3, values, d.weights, 0.2)
    assert any("unrelaxed" in p for p in problems)


def test_weights_check():
    d, _ = sampled_call(6, k_override=150)
    assert checks.check_empirical_weights(d.weights, 3, 150, 12) == []
    shifted = d.weights.copy()
    shifted[0] += 1e-4
    assert checks.check_empirical_weights(shifted, 3, 150, 12)
    moved = d.weights.copy()
    moved[4] += moved[3]
    moved[3] = 0.0
    assert checks.check_empirical_weights(moved, 3, 150, 12)
    assert checks.check_empirical_weights(d.weights, 3, 151, 12)


def test_pair_signal_check():
    d, _ = sampled_call(7, k_override=100)
    assert checks.check_pair_signal(d.signal.kind, d.signal.payload, 3) == []
    assert checks.check_pair_signal("pair", (1, 1), 3)
    assert checks.check_pair_signal("pair", (0, 3), 3)
    assert checks.check_pair_signal("revealed_state", ("s1",), 3)
    assert checks.check_pair_label("signal: top2_second1  (K=5)", 3) == []
    assert checks.check_pair_label("signal: top2_second2  (K=5)", 3)
    assert checks.check_pair_label("signal: top4_second1  (K=5)", 3)


def test_empirical_revenue_of_full_information_draws():
    # pair signals that name each state's own top two reveal it when the
    # states have distinct orders, so the revenue is the mean second value
    values = np.array([[0.9, 0.5, 0.1], [0.2, 0.8, 0.4]])
    states = [0, 1, 1, 0, 1]
    pairs = [(0, 1), (1, 2), (1, 2), (0, 1), (1, 2)]
    estimate, _ = checks.empirical_public_revenue(values, states, pairs)
    assert estimate == pytest.approx((2 * 0.5 + 3 * 0.4) / 5)


def test_public_revenue_check():
    assert checks.check_public_revenue(0.5, 0.0, 0.6, 0.2) == []
    assert checks.check_public_revenue(0.4 - 1e-3, 0.0, 0.6, 0.2)
    assert checks.check_public_revenue(0.39, 0.01, 0.6, 0.2) == []


# ---------------------------------------------------------------------------
# Private scheme
# ---------------------------------------------------------------------------


def test_own_theorem5_bound_matches_package():
    inst, masses, profiles, _ = lattice_instance(11)
    assert checks.theorem5_bound(masses, profiles, 0.05) == pytest.approx(
        private.theorem5_bound(inst, 0.05), abs=1e-12
    )


@pytest.mark.parametrize("seed", range(20))
def test_own_best_response_enumeration_matches_package(seed):
    # an informed bidder holds the top of v, and j the unique top of u
    rng = np.random.default_rng(seed)
    j = int(rng.integers(4))
    v = [float(x) for x in rng.choice([0.0, 0.25, 0.5, 0.75], 4)]
    v[(j + 1) % 4] = 1.0
    u = list(rng.uniform(0, 0.5, 4))
    u[j] = 0.9
    delta = float(rng.uniform(0.001, 0.3))
    want, _ = private.worst_bne_revenue_and_bid(
        private.TwoProfileStructure(tuple(v), tuple(u), j, delta)
    )
    assert checks.worst_uninformed_revenue(v, u, j, delta) == pytest.approx(want, abs=1e-12)


def test_winners_curse_example():
    # criterion 9: best responses of bidder 1 are the bids in [0, 2)
    assert checks.worst_uninformed_revenue((1.0, 2.0), (7.0, 7.0), 0, 0.5) == 0.0


@pytest.fixture(scope="module")
def private_design():
    inst, masses, profiles, ids = lattice_instance(66)
    result = private.run_private_scheme(inst, eps=0.05, delta=0.01, seed=3, trials=20_000)
    return result, masses, profiles, ids


def test_private_design_check_passes_real_output(private_design):
    result, masses, profiles, ids = private_design
    assert checks.check_private_design(result, masses, profiles, ids, 0.05) == []


def test_private_design_check_rejects_a_plan_off_by_1e4(private_design):
    result, masses, profiles, ids = private_design
    for choice in ("auxiliary", "full_reveal"):
        k = next(k for k, p in enumerate(result.plans) if p.choice == choice)
        plans = list(result.plans)
        plans[k] = dataclasses.replace(plans[k], worst_revenue=plans[k].worst_revenue + 1e-4)
        bad = dataclasses.replace(result, plans=tuple(plans))
        assert checks.check_private_design(bad, masses, profiles, ids, 0.05)


def test_private_design_check_rejects_revenue_below_bound(private_design):
    result, masses, profiles, ids = private_design
    bound = checks.theorem5_bound(masses, profiles, 0.05)
    low = dataclasses.replace(result, aggregate_revenue=bound - 1e-3)
    assert checks.check_private_design(low, masses, profiles, ids, 0.05)
    low = dataclasses.replace(result, simulated_revenue=bound - 4 * result.simulated_se - 1e-3)
    assert checks.check_private_design(low, masses, profiles, ids, 0.05)
    dropped = dataclasses.replace(result, plans=result.plans[1:])
    assert checks.check_private_design(dropped, masses, profiles, ids, 0.05)


# ---------------------------------------------------------------------------
# Closed formulas and command-line output
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,eps", [(16, 0.3), (25, 0.1), (64, 0.05)])
def test_theorem2_formula(n, eps):
    exact, _ = oracle.theorem2_fullinfo_revenue(n, eps)
    assert checks.close(checks.theorem2_exact(n, eps), exact, 1e-12)
    assert not checks.close(checks.theorem2_exact(n, eps) + 1e-4, exact)


@pytest.mark.parametrize("m,p,k", [(10_000, 0.1, 2000), (5_000, 0.3, 1700)])
def test_binomial_tail_formula(m, p, k):
    want = oracle.binomial_cond_expectation(m, p, k)
    assert checks.close(checks.binomial_tail_mean(m, p, k), want, 1e-11)
    assert not checks.close(checks.binomial_tail_mean(m, p, k) * (1 + 1e-6), want)


def cli_check(command, stdout, argv=None, written=None):
    """Run the check of one cli_short op against example 3 at eps 0.1."""
    cli = worker.CliWorkload("cli_short", 0, Path("."), None)
    i = worker.CLI_COMMANDS.index(command)
    ex3 = make_example3(0.1).to_json_dict()
    argv = argv or cli.argv(i, np.random.default_rng(0))
    return cli.check_op(i, {"argv": argv, "stdout": stdout, "ex3": ex3, "ex3_written": written})


def test_cli_checks_on_example3():
    optimum = checks.ordering_lp_optimum(np.array([[0.2, 0.1, 1.0], [1.0, 0.9, 0.1]]),
                                         np.array([0.9, 0.1]), 0.0)
    assert optimum == pytest.approx(0.28)
    good = f"{optimum:.12g}"
    bad = f"{optimum + 1e-3:.12g}"
    assert cli_check("solve-public-exact", f"optimal public revenue: {good}\n") == []
    assert cli_check("solve-public-exact", f"optimal public revenue: {bad}\n")
    assert cli_check("oracle-public-optimal", f"brute-force optimal public revenue: {good}\n") == []
    assert cli_check("oracle-public-optimal", f"brute-force optimal public revenue: {bad}\n")
    table = " private: 0.9\n    none: 0.28\n optimal: {}\n    full: 0.27\n"
    assert cli_check("compare", table.format(good)) == []
    assert cli_check("compare", table.format(bad))
    assert cli_check("compare", table.replace("none: 0.28", "none: 0.2812").format(good))
    eval_out = "estimated revenue: {} +- 0.001 (200 trials, K=101924)\n"
    assert cli_check("eval-public-mc", eval_out.format(0.2)) == []
    assert cli_check("eval-public-mc", eval_out.format(0.28 - 0.2 - 0.004 - 1e-3))
    assert cli_check("sign-public-mc", "signal: top3_second1  (K=101924)\n") == []
    assert cli_check("sign-public-mc", "signal: top3_second3  (K=101924)\n")


def test_cli_checks_on_formulas_and_bayesian_commands():
    argv = ["oracle", "theorem2", "--n", "16", "--epsilon", "0.3"]
    exact = checks.theorem2_exact(16, 0.3)
    assert cli_check("oracle-theorem2", f"exact={exact:.12g} lower_bound=0.3", argv) == []
    assert cli_check("oracle-theorem2", f"exact={exact + 1e-4:.12g} lower_bound=0.3", argv)
    argv = ["oracle", "binom-tail", "--m", "10000", "--p", "0.1", "--k", "2000"]
    mean = checks.binomial_tail_mean(10_000, 0.1, 2000)
    assert cli_check("oracle-binom-tail", f"E[X | X >= 2000] = {mean:.12g}", argv) == []
    assert cli_check("oracle-binom-tail", f"E[X | X >= 2000] = {mean + 1e-4:.12g}", argv)
    assert cli_check("bvs-check-lemma6", "branch=pooled ratio=0.33 bound=0.125 ok=True") == []
    assert cli_check("bvs-check-lemma6", "branch=pooled ratio=0.1 bound=0.125 ok=False")
    argv = ["bvs-pool", "--instance", "ex2.json", "--state", "0100", "--seed", "3"]
    assert cli_check("bvs-pool", "signal: pool_0100_0010  (pooling guarantee: True)", argv) == []
    assert cli_check("bvs-pool", "signal: pool_0100_0100  (pooling guarantee: True)", argv)
    assert cli_check("bvs-pool", "signal: state_0100  (pooling guarantee: False)", argv)


def test_binom_tail_arguments_stay_well_conditioned():
    cli = worker.CliWorkload("cli_short", 0, Path("."), None)
    i = worker.CLI_COMMANDS.index("oracle-binom-tail")
    for seed in range(300):
        argv = cli.argv(i, np.random.default_rng(seed))
        oracle.binomial_cond_expectation(int(argv[3]), float(argv[5]), int(argv[7]))


def test_example3_check():
    argv = ["gen-instance", "example3", "--epsilon", "0.1", "--out", "ex3.json"]
    doc = make_example3(0.1).to_json_dict()
    assert cli_check("gen-instance", "", argv, written=doc) == []
    doc["states"][1]["values"][1] += 1e-4
    assert cli_check("gen-instance", "", argv, written=doc)


def test_benchmark_spec_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # private_lattice stays runnable by hand but is not listed (see README)
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.WORKLOADS if w != "private_lattice"
    ]
