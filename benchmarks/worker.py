"""One benchmark workload in a fresh interpreter.

Started by ``run.py``.  The worker sets up (imports, input generation, the
instance JSON save -> ``load_instance`` round-trip, one untimed warm-up op),
prints ``READY``, runs whole rounds of ops in a closed loop for the requested
seconds, checks every output, and prints one JSON line.  Everything else the
worker or the package prints goes to stderr, so stdout carries only those two
lines.

Op *i* draws all its randomness from ``default_rng([seed, workload, 1, i])``,
so it gets the same state and generator whatever the run length.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from tracing import CLI_COMMANDS, Tracer, layer_metrics

WORKLOAD_TAGS = {"signal_narrow": 1, "signal_wide": 2, "private_lattice": 3, "cli_short": 4}
WARMUP = 0  # generator stream of the warm-up op; ops use stream 1
SIGNAL_EPS = 0.2
PRIVATE_EPS = 0.05
PRIVATE_DELTA = 0.01
PRIVATE_TRIALS = 100_000
CLI_TIMEOUT_S = 120


def op_rng(seed: int, workload: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_TAGS[workload], 1, i])


def write_kvs(path: Path, masses, values, ids) -> None:
    doc = {
        "kind": "kvs",
        "n": int(values.shape[1]),
        "states": [
            {"id": sid, "mass": float(m), "values": [float(x) for x in row]}
            for sid, m, row in zip(ids, masses, values)
        ],
    }
    path.write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """What the timed loop needs from a workload, with the common defaults.

    ``setup`` prepares everything before the timed phase; ``run_op`` runs op
    i and returns what its checks need; ``check_op`` lists the problems of
    one op and ``check_all`` those of the whole run.
    """

    round_size = 1

    def __init__(self, name, seed, workdir, tracer):
        self.name, self.seed, self.workdir, self.tracer = name, seed, workdir, tracer

    def label(self, i):
        return None

    def after_op(self, i, rec, traced):
        pass

    def check_all(self, records):
        return []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SignalWorkload(Workload):
    """Sampled-LP public signaling: one ``mc_signal`` call per op.

    ``signal_narrow``: four 3-bidder instances with 50 states and the formula
    sample count at eps = 0.2.  ``signal_wide``: one 3-bidder instance with
    2,000 states and K overridden to 200.  Masses are Dirichlet(1) and values
    U[0, 1]; each op signals a state drawn from the prior.
    """

    def __init__(self, name, seed, workdir, tracer):
        super().__init__(name, seed, workdir, tracer)
        wide = name == "signal_wide"
        self.num_instances = 1 if wide else 4
        self.num_states = 2000 if wide else 50
        self.n = 3
        self.k_override = 200 if wide else None
        self.check_every = 4 if wide else 16  # ops whose LP is re-solved by the checks
        self.revenue_check = not wide  # an overridden K voids the eps guarantee
        self.round_size = self.num_instances

    def setup(self):
        from signalcraft import model, public_mc

        self.public_mc = public_mc
        if self.tracer:
            self.tracer.install()
        rng = np.random.default_rng([self.seed, WORKLOAD_TAGS[self.name], 0])
        self.masses, self.values, self.ids, self.instances = [], [], [], []
        for k in range(self.num_instances):
            masses = rng.dirichlet(np.ones(self.num_states))
            values = rng.random((self.num_states, self.n))
            ids = [f"s{s:04d}" for s in range(self.num_states)]
            path = self.workdir / f"instance{k}.json"
            write_kvs(path, masses, values, ids)
            self.masses.append(masses)
            self.values.append(values)
            self.ids.append(ids)
            self.instances.append(model.load_instance(path))
        self.config = public_mc.McConfig(
            epsilon=SIGNAL_EPS, seed=self.seed, k_override=self.k_override
        )
        warm = np.random.default_rng([self.seed, WORKLOAD_TAGS[self.name], WARMUP])
        public_mc.mc_signal(
            self.instances[0], self.ids[0][0], self.config, rng=warm, detail=True
        )

    def expected_k(self) -> int:
        if self.k_override is not None:
            return self.k_override
        n, eps = self.n, SIGNAL_EPS
        return math.ceil(8 * n**4 / eps**2 * math.log(4 * n**3 / eps))

    def run_op(self, i):
        inst = i % self.num_instances
        rng = op_rng(self.seed, self.name, i)
        s = int(rng.choice(self.num_states, p=self.masses[inst]))
        d = self.public_mc.mc_signal(
            self.instances[inst], self.ids[inst][s], self.config, rng=rng, detail=True
        )
        record = {"inst": inst, "state": s, "kind": d.signal.kind, "payload": d.signal.payload}
        if i % self.check_every == 0:
            record.update(weights=np.array(d.weights), objective=d.lp_objective, k=d.k)
        return record

    def check_op(self, i, rec):
        problems = checks.check_pair_signal(rec["kind"], rec["payload"], self.n)
        if "weights" in rec:
            if rec["k"] != self.expected_k():
                problems.append(f"K={rec['k']}, expected {self.expected_k()}")
            problems += checks.check_empirical_weights(
                rec["weights"], rec["state"], self.expected_k(), self.num_states
            )
            problems += checks.check_lp_objective(
                rec["objective"], self.values[rec["inst"]], rec["weights"], SIGNAL_EPS
            )
        return problems

    def check_all(self, records):
        if not self.revenue_check:
            return []
        from signalcraft import oracle

        problems = []
        for inst in range(self.num_instances):
            optimum = checks.ordering_lp_optimum(self.values[inst], self.masses[inst], 0.0)
            _, brute = oracle.brute_force_public_optimal(self.instances[inst])
            if abs(optimum - brute) > checks.OBJECTIVE_TOL:
                problems.append(
                    f"instance {inst}: own optimum {optimum:.12g} != oracle {brute:.12g}"
                )
            mine = [r for r in records.values() if r["inst"] == inst]
            estimate, se = checks.empirical_public_revenue(
                self.values[inst], [r["state"] for r in mine], [r["payload"] for r in mine]
            )
            problems += [
                f"instance {inst}: {p}"
                for p in checks.check_public_revenue(estimate, se, optimum, SIGNAL_EPS)
            ]
        return problems


class PrivateWorkload(Workload):
    """Private scheme on full support lattices: 4 bidders, values in
    {0, .25, .5, .75, 1} (625 profiles), Dirichlet(1) masses; six instances
    taken in turn, one ``run_private_scheme`` design per op.  Design time
    differs by up to a half between instances, so a round spans several."""

    LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
    round_size = num_instances = 6

    def setup(self):
        import itertools

        from signalcraft import model, private

        self.private = private
        if self.tracer:
            self.tracer.install()
        profiles = np.array(list(itertools.product(self.LEVELS, repeat=4)))
        rng = np.random.default_rng([self.seed, WORKLOAD_TAGS[self.name], 0])
        self.masses, self.ids, self.instances = [], [], []
        self.values = profiles
        ids = [f"p{s:03d}" for s in range(len(profiles))]
        for k in range(self.num_instances):
            masses = rng.dirichlet(np.ones(len(profiles)))
            path = self.workdir / f"lattice{k}.json"
            write_kvs(path, masses, profiles, ids)
            self.masses.append(masses)
            self.ids.append(ids)
            self.instances.append(model.load_instance(path))
        self._design(0, seed=0)

    def _design(self, inst, seed):
        return self.private.run_private_scheme(
            self.instances[inst], eps=PRIVATE_EPS, delta=PRIVATE_DELTA,
            seed=seed, trials=PRIVATE_TRIALS,
        )

    def run_op(self, i):
        inst = i % self.num_instances
        seed = int(op_rng(self.seed, self.name, i).integers(2**31))
        return {"inst": inst, "result": self._design(inst, seed)}

    def check_op(self, i, rec):
        inst = rec["inst"]
        return checks.check_private_design(
            rec["result"], self.masses[inst], self.values, self.ids[inst], PRIVATE_EPS
        )


class CliWorkload(Workload):
    """The README command list, one ``python -m signalcraft.cli`` subprocess
    per op, in a fixed cyclic order inside a scratch directory.

    ``gen-instance`` opens each round by writing example 3 at an epsilon drawn
    for that op; the commands after it read that file.  The Bayesian
    instances (example 2 with four bidders, and the separation instance with
    four bidders) are written once at set-up.
    """

    round_size = len(CLI_COMMANDS)

    def __init__(self, name, seed, workdir, tracer):
        super().__init__(name, seed, workdir, tracer)
        self.procdir = workdir / "proc"
        self.inproc = workdir / "inproc"  # in-process replays of traced ops
        self.replay_from = None

    def setup(self):
        ex2 = {
            "kind": "bvs", "n": 4, "high": {"uniform": [0.0, 1.0]}, "low": {"point": 0.0},
            "prior": {"explicit": [
                {"bits": "".join("1" if b == i else "0" for b in range(4)), "mass": 0.25}
                for i in range(4)
            ]},
        }
        t2 = {
            "kind": "bvs", "n": 4, "high": {"bernoulli": [1.0, 0.5]}, "low": {"point": 0.0},
            "prior": {"iid": 0.1},
        }
        dirs = [self.procdir] + ([self.inproc] if self.tracer else [])
        for d in dirs:
            d.mkdir()
            (d / "ex2.json").write_text(json.dumps(ex2))
            (d / "t2.json").write_text(json.dumps(t2))
        if self.tracer:
            import signalcraft.cli
            from signalcraft import model

            self.cli = signalcraft.cli
            self.tracer.install()
            for f in ("ex2.json", "t2.json"):
                model.load_instance(self.procdir / f)
        warm = self.argv(WARMUP, np.random.default_rng([self.seed, WORKLOAD_TAGS[self.name], WARMUP]))
        proc = self._run_process(warm)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up {' '.join(warm)} exited {proc.returncode}")
        self.ex3 = json.loads((self.procdir / "ex3.json").read_text())
        if self.tracer:
            self._dispatch(warm, "gen-instance")

    def argv(self, i, rng):
        """Arguments of op i.  Only inputs vary with the seed, not the work."""
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        seed = str(int(rng.integers(10**6)))
        if command == "gen-instance":
            eps = round(float(rng.uniform(0.05, 0.3)), 6)
            return ["gen-instance", "example3", "--epsilon", str(eps), "--out", "ex3.json"]
        if command == "solve-public-exact":
            return ["solve-public-exact", "--instance", "ex3.json", "--out", "scheme.json"]
        if command == "sign-public-mc":
            return ["sign-public-mc", "--instance", "ex3.json", "--state", str(rng.choice(["A", "B"])),
                    "--epsilon", str(SIGNAL_EPS), "--seed", seed]
        if command == "eval-public-mc":
            return ["eval-public-mc", "--instance", "ex3.json", "--epsilon", str(SIGNAL_EPS),
                    "--trials", "200", "--seed", seed, "--record", f"eval{i}"]
        if command == "compare":
            return ["compare", "--instance", "ex3.json", "--schemes", "full,none,optimal,private",
                    "--out", "compare.csv"]
        if command == "bvs-pool":
            own = int(rng.integers(4))
            bits = "".join("1" if b == own else "0" for b in range(4))
            return ["bvs-pool", "--instance", "ex2.json", "--state", bits, "--seed", seed]
        if command == "bvs-check-lemma6":
            return ["bvs-check-lemma6", "--n", "22", "--high", "uniform:0,1", "--low", "point:0",
                    "--theta-weight", "1", "--seed", seed]
        if command == "private-scheme":
            return ["private-scheme", "--instance", "ex3.json", "--epsilon", str(PRIVATE_EPS),
                    "--delta", str(PRIVATE_DELTA), "--seed", seed, "--report", "per_state.csv"]
        if command == "oracle-public-optimal":
            return ["oracle", "public-optimal", "--instance", "ex3.json"]
        if command == "oracle-partition-welfare":
            # the search cost grows steeply with the signal budget, so it stays fixed
            return ["oracle", "partition-welfare", "--instance", "t2.json", "--max-signals", "2"]
        if command == "oracle-theorem2":
            n = int(rng.choice([16, 25, 36, 64]))
            return ["oracle", "theorem2", "--n", str(n), "--epsilon", str(round(float(rng.uniform(0.05, 0.3)), 6))]
        # 1 to 4 standard deviations above the mean keeps the tail far above
        # the 1e-300 probability floor under which the command refuses
        m = int(rng.integers(5_000, 20_001))
        p = round(float(rng.uniform(0.05, 0.45)), 6)
        k = int(m * p + rng.uniform(1.0, 4.0) * math.sqrt(m * p * (1.0 - p)))
        return ["oracle", "binom-tail", "--m", str(m), "--p", str(p), "--k", str(k)]

    def _run_process(self, argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "signalcraft.cli", *argv],
            cwd=cwd or self.procdir, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def _dispatch(self, argv, command):
        idx = self.tracer.open("cli.dispatch", command=command)
        cwd = os.getcwd()
        sink = io.StringIO()
        try:
            os.chdir(self.inproc)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(list(argv))
        finally:
            os.chdir(cwd)
            self.tracer.close(idx)
        if code != 0:
            raise RuntimeError(f"in-process {command} exited {code}: {sink.getvalue()}")

    def label(self, i):
        return CLI_COMMANDS[i % len(CLI_COMMANDS)]

    def run_op(self, i):
        argv = self.argv(i, op_rng(self.seed, self.name, i))
        proc = self._run_process(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
        return {"argv": argv, "stdout": proc.stdout}

    def after_op(self, i, rec, traced):
        """Untimed bookkeeping: note the example-3 file in force, keep a copy
        for the replay check, and replay the op in-process when traced."""
        command = self.label(i)
        if rec is not None:
            if command == "gen-instance":
                self.ex3 = json.loads((self.procdir / "ex3.json").read_text())
                rec["ex3_written"] = self.ex3
            rec["ex3"] = self.ex3
            if command == "eval-public-mc" and self.replay_from is None:
                replay = self.workdir / "replay"
                replay.mkdir()
                shutil.copy(self.procdir / "ex3.json", replay / "ex3.json")
                self.replay_from = (rec["argv"], self.procdir / f"eval{i}.csv")
        if traced:
            self._dispatch(self.argv(i, op_rng(self.seed, self.name, i)), command)

    def check_op(self, i, rec):
        command = self.label(i)
        out = rec["stdout"]
        argv = rec["argv"]
        if command == "gen-instance":
            return _check_example3(rec["ex3_written"], float(argv[3]))
        masses = np.array([s["mass"] for s in rec["ex3"]["states"]])
        values = np.array([s["values"] for s in rec["ex3"]["states"]])
        if command in ("solve-public-exact", "oracle-public-optimal", "compare", "eval-public-mc"):
            optimum = checks.ordering_lp_optimum(values, masses, 0.0)
        if command == "solve-public-exact":
            got = checks.parse_number(r"optimal public revenue: NUM", out)
            return [] if abs(got - optimum) <= checks.OBJECTIVE_TOL else [f"{got} != {optimum}"]
        if command == "oracle-public-optimal":
            got = checks.parse_number(r"brute-force optimal public revenue: NUM", out)
            return [] if abs(got - optimum) <= checks.OBJECTIVE_TOL else [f"{got} != {optimum}"]
        if command == "compare":
            table = checks.parse_compare(out)
            problems = []
            if abs(table["optimal"] - optimum) > checks.OBJECTIVE_TOL:
                problems.append(f"compare optimal {table['optimal']} != {optimum}")
            for other in ("full", "none"):
                if table["optimal"] < table[other] - checks.OBJECTIVE_TOL:
                    problems.append(f"optimal {table['optimal']} < {other} {table[other]}")
            return problems
        if command == "sign-public-mc":
            return checks.check_pair_label(out, 3)
        if command == "eval-public-mc":
            estimate = checks.parse_number(r"estimated revenue: NUM", out)
            se = checks.parse_number(r"\+- NUM", out)
            return checks.check_public_revenue(estimate, se, optimum, SIGNAL_EPS)
        if command == "bvs-pool":
            own = argv[4]
            label = out.split("signal:")[1].split()[0] if "signal:" in out else ""
            parts = label.split("_")
            if len(parts) != 3 or parts[0] != "pool" or parts[1] != own or parts[2] == own \
                    or sorted(parts[2]) != sorted(own):
                return [f"bvs-pool signal {label!r} does not pool {own} with another tail state"]
            return []
        if command == "bvs-check-lemma6":
            return [] if "ok=True" in out else [f"lemma 6 check not ok: {out.strip()}"]
        if command == "oracle-theorem2":
            got = checks.parse_number(r"exact=NUM", out)
            want = checks.theorem2_exact(int(argv[3]), float(argv[5]))
            return [] if checks.close(got, want) else [f"theorem2 {got} != {want}"]
        if command == "oracle-binom-tail":
            got = checks.parse_number(r"\] = NUM", out)
            want = checks.binomial_tail_mean(int(argv[3]), float(argv[5]), int(argv[7]))
            return [] if checks.close(got, want) else [f"binom-tail {got} != {want}"]
        return []

    def check_all(self, records):
        """Replaying the first seeded ``--record`` command gives the same CSV."""
        if self.replay_from is None:
            return ["no eval-public-mc op ran, so nothing was replayed"]
        argv, original = self.replay_from
        argv = argv[: argv.index("--record")] + ["--record", "replayed"]
        replay = self.workdir / "replay"
        proc = self._run_process(argv, cwd=replay)
        if proc.returncode != 0:
            return [f"replay exited {proc.returncode}: {proc.stderr.strip()}"]
        if (replay / "replayed.csv").read_bytes() != original.read_bytes():
            return ["replayed --record CSV differs from the original"]
        return []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _check_example3(doc, eps: float) -> list[str]:
    """Example 3 as documented: A (mass 1-e, values 2e, e, 1) and
    B (mass e, values 1, 1-e, e)."""
    want = {"A": (1 - eps, (2 * eps, eps, 1.0)), "B": (eps, (1.0, 1 - eps, eps))}
    got = {s["id"]: (s["mass"], tuple(s["values"])) for s in doc["states"]}
    if set(got) != set(want) or doc.get("n") != 3:
        return [f"example 3 has states {sorted(got)} and n={doc.get('n')}"]
    problems = []
    for sid, (mass, values) in want.items():
        if abs(got[sid][0] - mass) > 1e-12 or max(
            abs(a - b) for a, b in zip(got[sid][1], values)
        ) > 1e-12:
            problems.append(f"example 3 state {sid} is {got[sid]}, expected {(mass, values)}")
    return problems


WORKLOADS = {
    "signal_narrow": SignalWorkload,
    "signal_wide": SignalWorkload,
    "private_lattice": PrivateWorkload,
    "cli_short": CliWorkload,
}


# ---------------------------------------------------------------------------
# Timed closed loop
# ---------------------------------------------------------------------------


def timed_loop(workload, seconds, tracer):
    """Whole rounds until ``seconds`` have passed.  With a tracer, even rounds
    run with the hooks installed and odd rounds without, so the overhead of
    tracing is the difference between their op latencies; at least one round
    of each kind runs."""
    records, failed = {}, set()
    latency = {True: [], False: []}
    traced_ops, traced_wall = set(), 0.0
    i = rnd = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rnd % 2 == 0
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        round_start = time.perf_counter()
        for _ in range(workload.round_size):
            if traced:
                tracer.op_id = i
                traced_ops.add(i)
                span = tracer.open("op", command=workload.label(i))
            t0 = time.perf_counter()
            rec = None
            try:
                rec = workload.run_op(i)
            except Exception:
                failed.add(i)
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.close(span)
            if rec is not None:
                records[i] = rec
                latency[traced].append(elapsed * 1e3)
            try:
                workload.after_op(i, rec, traced)
            except Exception:
                failed.add(i)
                records.pop(i, None)
                traceback.print_exc()
            i += 1
        if traced:
            traced_wall += time.perf_counter() - round_start
        rnd += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or rnd >= 2):
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return records, failed, i, wall, latency, traced_ops, traced_wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.workload, args.seed, args.workdir, tracer)
    workload.setup()
    print("READY", file=protocol, flush=True)
    if args.setup_only:
        return 0

    records, failed, attempted, wall, latency, traced_ops, traced_wall = timed_loop(
        workload, args.seconds, tracer
    )
    rss = workload.peak_rss_mb()

    problems = []
    for i in sorted(records):
        try:
            found = workload.check_op(i, records[i])
        except Exception as e:  # a check that cannot read the output fails the op
            found = [f"check raised {e!r}"]
        if found:
            failed.add(i)
            problems += [f"op {i}: {p}" for p in found]
            del records[i]
    aggregate = workload.check_all(records)
    problems += aggregate
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    result = {
        "attempted": attempted,
        "failed": len(failed),
        "correct": not aggregate,
        "problems": problems[:20],
    }
    if tracer is None:
        result.update(
            completed=attempted - len(failed), wall_s=wall, latencies_ms=latency[False],
            peak_rss_mb=rss,
        )
    else:
        metrics = layer_metrics(tracer.spans, traced_ops, traced_wall)
        on, off = latency[True], latency[False]
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(on) / statistics.median(off) - 1.0) if on and off else 0.0
        )
        result["metrics"] = metrics
        result["absent_hooks"] = tracer.absent
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
