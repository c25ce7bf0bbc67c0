from unittest import mock

import numpy as np
import pytest
from scipy.stats import chisquare

import signalcraft.lp as lp
from signalcraft.lp import solve_ordering_lp
from signalcraft.model import KvsInstance, KvsState, Signal, ValidationError, make_example3
from signalcraft.oracle import brute_force_public_optimal
from signalcraft.public_exact import signal_space
import signalcraft.public_mc as public_mc
from signalcraft.public_mc import (
    FAMILY,
    FAMILY_FACES,
    FAMILY_SEED,
    McConfig,
    _draw_pair,
    _empirical_weights,
    _FaceFamily,
    _family_draws,
    _prior_face,
    _slack,
    evaluate_mc_scheme,
    mc_signal,
    sample_count,
)


def counting_solves():
    """Counts cold solves, by either route: each goes through
    ``_OrderingLp.solve``."""
    return mock.patch.object(
        lp._OrderingLp, "solve", autospec=True, side_effect=lp._OrderingLp.solve
    )


def highs_only(monkeypatch):
    """Every native solve stops at its pivot cap, so every solve goes to
    HiGHS, as it did for these instances when the native cap was 120
    columns."""
    monkeypatch.setattr(lp, "simplex", lambda *args: None)


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
    """mc_signal rebuilding the masses, the state lookup, the prior face, its
    family and the support's values from the state objects on every call.
    Like mc_signal, when K >= |Theta| and every state has mass, a draw takes
    the point of the first certified face, the prior face and then its
    family; any other draw is solved cold."""
    state_idx = next(i for i, s in enumerate(instance.states) if s.id == state_id)
    masses = np.array([s.mass for s in instance.states])
    values = np.array([s.values for s in instance.states], dtype=float)
    slack, k = _slack(config.epsilon, instance.n), config.k_for(instance.n)
    weights = _empirical_weights(masses, state_idx, k, rng)
    support = np.flatnonzero(weights)
    found = None
    if k >= len(masses) and masses.all():
        prior = lp.optimal_face(values, masses, slack)
        found = prior.certify(weights)
        if found is None:
            family = _FaceFamily.open(values, masses, prior, k, slack)
            found = family and family.certify(weights)
    phi, _ = found or solve_ordering_lp(values[support], weights[support], slack)
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
    # K = 100: draws on the 5- and 60-state instances try the faces, also
    # when they miss a state; draws on the 400-state one are solved cold
    config = McConfig(epsilon=0.2, seed=0, k_override=100)
    for call in range(200):
        inst = instances[call % 3]
        state_id = inst.states[int(rng.integers(len(inst.states)))].id
        got = mc_signal(inst, state_id, config, rng=np.random.default_rng(call))
        want = signal_by_scanning_states(inst, state_id, config, np.random.default_rng(call))
        assert got == want


def tied_instance(seed, num_states):
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(num_states))
    values = rng.choice([0.0, 0.5, 1.0], size=(num_states, 3))  # ties
    return KvsInstance(n=3, states=tuple(
        KvsState(f"s{s}", float(m), tuple(map(float, v)))
        for s, (m, v) in enumerate(zip(masses, values))
    ))


def test_mc_signal_does_not_depend_on_call_history():
    # formula K: every draw hits all 30 states, so each call may be served by
    # the instance's prior face, which must not remember earlier calls
    inst = tied_instance(3, 30)
    calls = [(inst.states[s].id, McConfig(epsilon=0.2, seed=s)) for s in range(8)]
    first = [
        mc_signal(tied_instance(3, 30), state_id, config, detail=True)
        for state_id, config in calls
    ]
    rng = np.random.default_rng(4)
    for call in range(50):
        state_id = inst.states[int(rng.integers(30))].id
        mc_signal(inst, state_id, McConfig(epsilon=(0.2, 0.3)[call % 2], seed=100 + call))
    assert len(inst.prior_faces) == 2
    with counting_solves() as solver:
        later = [mc_signal(inst, state_id, config, detail=True) for state_id, config in calls]
    assert solver.call_count < len(calls)  # some calls were served by the face
    for a, b in zip(first, later):
        assert len(a.support) == 30
        assert (a.signal, a.lp_objective) == (b.signal, b.lp_objective)


def test_face_family_does_not_depend_on_call_history():
    # formula K on a tie-heavy instance: the prior face refutes some draws,
    # and the family's faces serve them
    slack, k = _slack(0.2, 3), sample_count(3, 0.2)
    calls = [(f"s{s % 40}", McConfig(epsilon=0.2, seed=s)) for s in range(40)]
    first = [
        mc_signal(tied_instance(7, 40), state_id, config, detail=True)
        for state_id, config in calls
    ]

    inst = tied_instance(7, 40)
    rng = np.random.default_rng(9)
    for call in range(50):
        state_id = inst.states[int(rng.integers(40))].id
        mc_signal(inst, state_id, McConfig(epsilon=0.2, seed=500 + call))
    after_others = [mc_signal(inst, state_id, config, detail=True) for state_id, config in calls]

    family = inst.face_families[slack, k]
    while family._grow():  # every family draw settled: the whole family built
        pass
    assert 2 < len(family.faces) <= 1 + FAMILY_FACES
    assert all(face.lp is family.faces[0].lp for face in family.faces)
    after_all = [mc_signal(inst, state_id, config, detail=True) for state_id, config in calls]

    # the second family face or a later one served a call: every earlier
    # face refuted it
    assert any(
        all(face.certify(d.weights) is None for face in family.faces[:2])
        and any(face.certify(d.weights) is not None for face in family.faces[2:])
        for d in first
    )
    for a, b, c in zip(first, after_others, after_all):
        assert (a.signal, a.lp_objective) == (b.signal, b.lp_objective)
        assert (a.signal, a.lp_objective) == (c.signal, c.lp_objective)

    # the rule itself (a family draw gets a face only when every earlier
    # face refutes it, up to FAMILY_FACES faces), each face with its own
    # ordering LP, two fresh instances and the instance that served the
    # calls above all hold the same faces in the same order
    fresh = tied_instance(7, 40)
    faces = [lp.optimal_face(fresh.value_matrix, fresh.masses, slack)]
    for draw in _family_draws(fresh.masses, k):
        if len(faces) <= FAMILY_FACES and all(face.certify(draw) is None for face in faces):
            faces.append(lp.optimal_face(fresh.value_matrix, draw, slack))
    # faces that share one ordering LP serve every call as faces that do not
    for d in first:
        mine, theirs = first_certified(faces, d.weights), first_certified(family.faces, d.weights)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert np.array_equal(mine[0], theirs[0]) and mine[1] == theirs[1]
    families = [faces, family.faces]
    for _ in range(2):
        fresh = tied_instance(7, 40)
        built = _FaceFamily.open(fresh.value_matrix, fresh.masses, _prior_face(fresh, slack), k, slack)
        while built._grow():
            pass
        families.append(built.faces)
    columns = [[(f.fixed_cols.tolist(), f.split_cols.tolist()) for f in faces] for faces in families]
    assert all(c == columns[0] for c in columns)


def first_certified(faces, weights):
    """(phi, objective) from the first of ``faces`` that certifies
    ``weights``, or None."""
    return next((f for f in (face.certify(weights) for face in faces) if f is not None), None)


def test_face_family_holds_at_most_family_faces(monkeypatch):
    # with HiGHS faces, some of these calls are served by no face; native
    # faces serve them all
    highs_only(monkeypatch)
    # uncapped, this family holds three faces behind the prior face
    monkeypatch.setattr(public_mc, "FAMILY_FACES", 2)
    slack, k = _slack(0.2, 3), sample_count(3, 0.2)
    calls = [(f"s{s % 40}", McConfig(epsilon=0.2, seed=s)) for s in range(40)]
    first = [
        mc_signal(tied_instance(7, 40), state_id, config, detail=True)
        for state_id, config in calls
    ]

    inst = tied_instance(7, 40)
    rng = np.random.default_rng(9)
    for call in range(50):
        state_id = inst.states[int(rng.integers(40))].id
        mc_signal(inst, state_id, McConfig(epsilon=0.2, seed=500 + call))
    family = inst.face_families[slack, k]
    with counting_solves() as solver:
        while family._grow():
            pass
        assert solver.call_count == 0 and len(family.faces) == 3
        later = [mc_signal(inst, state_id, config, detail=True) for state_id, config in calls]
    assert len(family.faces) == 3
    # a full family builds no face: only the calls that no face serves solve
    assert solver.call_count == sum(
        first_certified(family.faces, d.weights) is None for d in later
    ) > 0
    for a, b in zip(first, later):
        assert (a.signal, a.lp_objective) == (b.signal, b.lp_objective)


def test_family_draws_are_drawn_lazily_from_the_constant_seed_stream(monkeypatch):
    masses, k = tied_instance(7, 40).masses, sample_count(3, 0.2)
    stream = np.random.default_rng(FAMILY_SEED)
    want = [stream.multinomial(k, masses) / k for _ in range(FAMILY)]
    got = list(_family_draws(masses, k))
    assert len(got) == FAMILY
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the first 8 draws are those of the former eight-draw family
    stream = np.random.default_rng(FAMILY_SEED)
    former = [stream.multinomial(k, masses) / k for _ in range(8)]
    assert all(np.array_equal(a, b) for a, b in zip(got[:8], former))

    # the open gate draws up to the first draw the prior face certifies, and
    # the family draws only up to the draw that gets its next face
    pulled = []  # draws taken from each stream, in the order the streams began

    def counted(masses, k):
        pulled.append(0)
        stream = len(pulled) - 1

        def draws():
            for draw in _family_draws(masses, k):
                pulled[stream] += 1
                yield draw
        return draws()

    monkeypatch.setattr(public_mc, "_family_draws", counted)
    inst = tied_instance(7, 40)
    slack = _slack(0.2, 3)
    prior = _prior_face(inst, slack)
    family = _FaceFamily.open(inst.value_matrix, masses, prior, k, slack)
    first_certified_draw = next(i for i, d in enumerate(want) if prior.certify(d) is not None)
    assert pulled == [first_certified_draw + 1, 0]
    assert family._grow() and len(family.faces) == 2
    first_refuted_draw = next(i for i, d in enumerate(want) if prior.certify(d) is None)
    assert pulled == [first_certified_draw + 1, first_refuted_draw + 1]
    assert max(pulled) < FAMILY


def random_instance(seed, num_states):
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(num_states))
    values = rng.random((num_states, 3))
    return KvsInstance(n=3, states=tuple(
        KvsState(f"s{s}", float(m), tuple(v)) for s, (m, v) in enumerate(zip(masses, values))
    ))


def test_more_states_than_samples_never_tries_a_face():
    inst = random_instance(1, 300)
    config = McConfig(epsilon=0.2, seed=0, k_override=200)
    rng = np.random.default_rng(3)
    for call in range(5):
        with counting_solves() as solver:
            mc_signal(inst, f"s{int(rng.integers(300))}", config, rng=np.random.default_rng(call))
        assert solver.call_count == 1
    assert inst.prior_faces == {} and inst.face_families == {}


def test_prior_face_that_certifies_no_family_draw_opens_no_family():
    # K = |Theta| = 50: every K-sample draw misses many states
    inst = random_instance(0, 50)
    slack, k = _slack(0.2, 3), 50
    prior = _prior_face(inst, slack)
    assert all(prior.certify(d) is None for d in _family_draws(inst.masses, k))
    config = McConfig(epsilon=0.2, seed=0, k_override=k)
    with counting_solves() as solver:
        for call in range(5):
            mc_signal(inst, "s0", config, rng=np.random.default_rng(call))
    assert inst.face_families == {(slack, k): None}
    assert solver.call_count == 5  # one cold solve per call, none for faces


def test_family_serves_an_instance_whose_prior_face_certifies_the_first_draws():
    # instance 1 of signal_narrow on benchmark seed 3008: the prior face
    # certifies the first 8 family draws but only about two thirds of the
    # real draws, so an 8-draw family built no face and 166 of 500 calls
    # solved cold
    rng = np.random.default_rng([3008, 1, 0])
    for _ in range(2):
        masses = rng.dirichlet(np.ones(50))
        values = rng.random((50, 3))
    inst = KvsInstance(n=3, states=tuple(
        KvsState(f"s{s}", float(m), tuple(v)) for s, (m, v) in enumerate(zip(masses, values))
    ))
    config = McConfig(epsilon=0.2, seed=0)
    with counting_solves() as solver:
        for i in range(500):
            rng = np.random.default_rng([7, i])
            state = int(rng.choice(50, p=inst.masses))
            mc_signal(inst, f"s{state}", config, rng=rng)
    assert solver.call_count <= 12  # the prior face, the family's faces and the rest


def test_first_call_on_many_states_builds_a_linear_size_face():
    num_states = 2000
    values = np.random.default_rng(5).random((num_states, 3))
    inst = KvsInstance(n=3, states=tuple(
        KvsState(f"s{s}", 1.0 / num_states, tuple(v)) for s, v in enumerate(values)
    ))
    with counting_solves() as solver:
        got = mc_signal(inst, "s0", McConfig(epsilon=0.2, seed=0), detail=True)
    assert len(got.support) == num_states
    assert solver.call_count <= 2  # the prior LP, then a cold solve if refuted
    face = inst.prior_faces[_slack(0.2, 3)]
    stored = sum(a.size for a in vars(face).values() if isinstance(a, np.ndarray))
    assert stored <= 30 * num_states  # a dense face system would hold millions


def test_prior_lp_failure_leaves_every_draw_to_a_cold_solve(monkeypatch):
    highs_only(monkeypatch)  # the stub below fails a HiGHS solve
    inst = tied_instance(3, 30)
    real, calls = lp.linprog, []

    def first_fails(*args, **kwargs):  # the first solve is the prior LP's
        res = real(*args, **kwargs)
        calls.append(res)
        if len(calls) == 1:
            res.status, res.message = 4, "numerical difficulties"
        return res

    monkeypatch.setattr(lp, "linprog", first_fails)
    slack = _slack(0.2, 3)
    for seed in range(2):
        got = mc_signal(inst, "s0", McConfig(epsilon=0.2, seed=seed), detail=True)
        assert len(got.support) == 30
        _, cold = solve_ordering_lp(inst.value_matrix, got.weights, slack)
        assert got.lp_objective == pytest.approx(cold, abs=1e-9)
    assert inst.prior_faces == {slack: None}
    assert len(calls) == 1 + 2 * 2  # the failed prior solve, then a cold solve and the check's


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
        assert np.array_equal(phi[details.support], details.support_phi)
        assert not phi[w == 0].any()
        for p, (i, j) in enumerate(pairs):
            post = np.array(
                [float((w * phi[:, p]) @ values[:, b]) for b in range(3)]
            )
            assert post[i] >= post[j] - slack - 1e-7
            for kk in range(3):
                if kk not in (i, j):
                    assert post[j] >= post[kk] - slack - 1e-7


def test_evaluator_plays_the_signalers_scheme():
    # replay the spawned trials in order through mc_signal, check every
    # trial's LP optimum against a cold solve, and redo the bookkeeping
    rng = np.random.default_rng(8)
    masses = rng.dirichlet(np.ones(30))
    values = rng.choice([0.0, 0.5, 1.0], size=(30, 3))  # ties
    tied = KvsInstance(n=3, states=tuple(
        KvsState(f"s{s}", float(m), tuple(map(float, v)))
        for s, (m, v) in enumerate(zip(masses, values))
    ))
    for inst, config in (
        (make_example3(0.1), McConfig(epsilon=0.2, seed=5, k_override=300)),
        (tied, McConfig(epsilon=0.2, seed=6, k_override=100)),
    ):
        trials = 120
        result = evaluate_mc_scheme(inst, config, trials)
        k, slack = config.k_for(3), _slack(config.epsilon, 3)
        emitted = []
        for seed in np.random.SeedSequence(config.seed).spawn(trials):
            trial_rng = np.random.default_rng(seed)
            s_idx = int(trial_rng.choice(len(inst.states), p=inst.masses))
            d = mc_signal(inst, inst.states[s_idx].id, config, rng=trial_rng, detail=True)
            assert d.k == k
            _, cold = solve_ordering_lp(
                inst.value_matrix[d.support], d.weights[d.support], slack
            )
            assert d.lp_objective == pytest.approx(cold, abs=1e-9)
            emitted.append((s_idx, signal_space(3).index(d.signal.payload)))
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



def test_evaluator_reuses_certified_faces():
    inst = make_example3(0.15)
    config = McConfig(epsilon=0.15, seed=21)  # formula sample count
    with counting_solves() as solver:
        result = evaluate_mc_scheme(inst, config, trials=200)
    assert solver.call_count <= 3
    _, opt = brute_force_public_optimal(inst)
    assert result.estimate >= opt - 0.15 - 3 * result.std_error

    # the second instance of acceptance criterion 2: a face that holds only
    # the rows with a nonzero dual, not every tight row, never certifies here
    rng = np.random.default_rng(2024)
    for _ in range(2):
        masses = rng.dirichlet(np.ones(50))
        values = rng.random((50, 3))
    inst = KvsInstance(n=3, states=tuple(
        KvsState(f"s{s}", float(m), tuple(v)) for s, (m, v) in enumerate(zip(masses, values))
    ))
    with counting_solves() as solver:
        evaluate_mc_scheme(inst, McConfig(epsilon=0.2, seed=7001), trials=300)
    assert solver.call_count <= 10
