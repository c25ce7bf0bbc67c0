"""Command-line surface and experiment records.

One binary, subcommand style.  Every run can emit a replayable experiment
record: the CSV holds only seed-determined fields, so replaying a command
with the same instance and seed reproduces it byte for byte (wall time lives
in the JSON sidecar only).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import auction, bvs_pool, oracle, private, public_exact, public_mc
from .lp import SolverFailure
from .model import (
    BvsInstance,
    KvsInstance,
    PublicScheme,
    Signal,
    ValidationError,
    ValueDistribution,
    load_instance,
    make_example1,
    make_example2,
    make_example3,
    make_theorem2_instance,
    save_instance,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass
class ExperimentRecord:
    command: str
    instance_hash: str
    seed: int | None
    parameters: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def flat(self) -> dict:
        row = {
            "command": self.command,
            "instance_hash": self.instance_hash,
            "seed": "" if self.seed is None else self.seed,
        }
        for k in sorted(self.parameters):
            row[f"param:{k}"] = self.parameters[k]
        for k in sorted(self.metrics):
            row[f"metric:{k}"] = self.metrics[k]
        return row


def emit_report(records: list[ExperimentRecord], base: str) -> tuple[str, str]:
    """Write records to BASE.csv and BASE.json; stable column order, floats
    at 12 significant digits, seeds included."""
    if not records:
        raise ValidationError("need at least one record to report")
    columns: list[str] = []
    for r in records:
        for k in r.flat():
            if k not in columns:
                columns.append(k)
    csv_path, json_path = base + ".csv", base + ".json"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for r in records:
            flat = r.flat()
            writer.writerow([fmt(flat.get(c, "")) for c in columns])
    with open(json_path, "w") as f:
        json.dump(
            [
                {
                    "command": r.command,
                    "instance_hash": r.instance_hash,
                    "seed": r.seed,
                    "parameters": r.parameters,
                    "metrics": r.metrics,
                    "wall_time": r.wall_time,
                }
                for r in records
            ],
            f,
            indent=2,
        )
        f.write("\n")
    return csv_path, json_path


def _hash_instance(instance) -> str:
    payload = json.dumps(instance.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _load(path) -> KvsInstance | BvsInstance:
    return load_instance(path)


def _require_kvs(instance) -> KvsInstance:
    if not isinstance(instance, KvsInstance):
        raise ValidationError("this command needs a known-valuation instance")
    return instance


def _require_bvs(instance) -> BvsInstance:
    if not isinstance(instance, BvsInstance):
        raise ValidationError("this command needs a Bayesian-valuation instance")
    return instance


def parse_distribution(text: str) -> ValueDistribution:
    """Parse 'family:params', e.g. uniform:0,1 or point:0 or bernoulli:1,0.5."""
    if ":" not in text:
        raise ValidationError(f"distribution {text!r} must look like family:params")
    family, _, raw = text.partition(":")
    try:
        params = tuple(float(x) for x in raw.split(",") if x != "")
    except ValueError:
        raise ValidationError(f"bad distribution parameters in {text!r}") from None
    dist = ValueDistribution(family, params)
    problems = dist.validate()
    if problems:
        raise ValidationError("; ".join(problems))
    return dist


def scheme_to_json_dict(scheme) -> dict:
    if scheme.kind != "explicit":
        return {"kind": scheme.kind}
    return {
        "kind": "explicit",
        "table": {
            state: {sig.label: prob for sig, prob in sorted(row.items(), key=lambda kv: kv[0].label)}
            for state, row in sorted(scheme.table.items())
        },
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_instance(args) -> list[ExperimentRecord]:
    if args.generator == "example1":
        instance = make_example1()
    elif args.generator == "example3":
        instance = make_example3(args.epsilon)
    elif args.generator == "example2":
        instance = make_example2(args.n)
    elif args.generator == "theorem2":
        instance = make_theorem2_instance(args.n, args.epsilon)
    else:
        raise UsageError(f"unknown generator {args.generator!r}")
    save_instance(instance, args.out)
    print(f"wrote {args.out}")
    if isinstance(instance, KvsInstance):
        num_states = len(instance.states)
    else:
        num_states = len(getattr(instance.prior, "entries", ())) or 2**instance.n
    return [
        ExperimentRecord(
            "gen-instance",
            _hash_instance(instance),
            None,
            {"generator": args.generator, "epsilon": args.epsilon, "n": args.n},
            {"states": num_states},
        )
    ]


def cmd_solve_public_exact(args) -> list[ExperimentRecord]:
    instance = _require_kvs(_load(args.instance))
    scheme, revenue = public_exact.solve_optimal_public(instance)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(scheme_to_json_dict(scheme), f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"optimal public revenue: {fmt(revenue)}")
    return [
        ExperimentRecord(
            "solve-public-exact",
            _hash_instance(instance),
            None,
            {},
            {"revenue": revenue, "signals": len(scheme.signals())},
        )
    ]


def cmd_sign_public_mc(args) -> list[ExperimentRecord]:
    instance = _require_kvs(_load(args.instance))
    config = public_mc.McConfig(args.epsilon, args.seed, args.override_k)
    details = public_mc.mc_signal(instance, args.state, config, detail=True)
    print(f"signal: {details.signal.label}  (K={details.k})")
    return [
        ExperimentRecord(
            "sign-public-mc",
            _hash_instance(instance),
            args.seed,
            {"state": args.state, "epsilon": args.epsilon,
             "k": details.k, "guarantee": config.guarantee},
            {"signal": details.signal.label, "lp_objective": details.lp_objective},
        )
    ]


def cmd_eval_public_mc(args) -> list[ExperimentRecord]:
    instance = _require_kvs(_load(args.instance))
    config = public_mc.McConfig(args.epsilon, args.seed, args.override_k)
    result = public_mc.evaluate_mc_scheme(instance, config, args.trials)
    print(
        f"estimated revenue: {fmt(result.estimate)} +- {fmt(result.std_error)} "
        f"({result.trials} trials, K={result.k})"
    )
    return [
        ExperimentRecord(
            "eval-public-mc",
            _hash_instance(instance),
            args.seed,
            {"epsilon": args.epsilon, "trials": args.trials,
             "k": result.k, "guarantee": result.guarantee},
            {"estimate": result.estimate, "std_error": result.std_error},
        )
    ]


def cmd_bvs_pool(args) -> list[ExperimentRecord]:
    instance = _require_bvs(_load(args.instance))
    scheme, guarantee_ok = bvs_pool.make_tail_pooling_scheme(instance)
    rng = np.random.default_rng(args.seed)
    if len(args.state) != instance.n or set(args.state) - {"0", "1"}:
        raise ValidationError(
            f"state {args.state!r} is not {instance.n} characters of 0/1"
        )
    bits = tuple(int(c) for c in args.state)
    if scheme.kind == "tail_pooling":
        signal = bvs_pool.tail_pool_signal(bits, scheme.pooling, rng)
    else:
        # unbalanced tail: the scheme degraded to full revelation
        signal = Signal.revealed(bits)
    if args.out and scheme.kind == "tail_pooling":
        with open(args.out, "w") as f:
            json.dump(scheme.pooling.to_json_dict(), f, indent=2)
            f.write("\n")
    print(f"signal: {signal.label}  (pooling guarantee: {guarantee_ok})")
    return [
        ExperimentRecord(
            "bvs-pool",
            _hash_instance(instance),
            args.seed,
            {"state": args.state},
            {"signal": signal.label, "guarantee": guarantee_ok},
        )
    ]


def cmd_bvs_check_lemma6(args) -> list[ExperimentRecord]:
    high = parse_distribution(args.high)
    low = parse_distribution(args.low)
    report = bvs_pool.check_lemma6(
        high, low, args.n, args.theta_weight, trials=args.trials, seed=args.seed
    )
    ratio_txt = "n/a" if report.ratio is None else fmt(report.ratio)
    print(
        f"branch={report.branch} revenue={fmt(report.revenue)} "
        f"welfare={fmt(report.welfare)} ratio={ratio_txt} "
        f"bound={fmt(report.bound)} ok={report.ok}"
    )
    return [
        ExperimentRecord(
            "bvs-check-lemma6",
            "-",
            args.seed,
            {"n": args.n, "theta_weight": args.theta_weight,
             "high": args.high, "low": args.low, "trials": args.trials},
            {
                "revenue": report.revenue,
                "welfare": report.welfare,
                "bound": report.bound,
                "ok": report.ok,
            },
        )
    ]


def cmd_private_scheme(args) -> list[ExperimentRecord]:
    instance = _require_kvs(_load(args.instance))
    result = private.run_private_scheme(
        instance, eps=args.epsilon, delta=args.delta, seed=args.seed,
        trials=args.trials,
    )
    print(
        f"aggregate worst-equilibrium revenue: {fmt(result.aggregate_revenue)} "
        f"(simulated {fmt(result.simulated_revenue)} +- {fmt(result.simulated_se)})"
    )
    if args.report_csv:
        with open(args.report_csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["state", "case", "choice", "uninformed", "delta",
                 "worst_revenue", "floor_target"]
            )
            for plan in result.plans:
                writer.writerow(
                    [
                        plan.state_id,
                        "" if plan.case_id is None else plan.case_id,
                        plan.choice,
                        "" if plan.uninformed is None else plan.uninformed + 1,
                        "" if plan.delta is None else fmt(plan.delta),
                        fmt(plan.worst_revenue),
                        fmt(plan.floor_target),
                    ]
                )
    return [
        ExperimentRecord(
            "private-scheme",
            _hash_instance(instance),
            args.seed,
            {"epsilon": args.epsilon, "delta": args.delta, "trials": args.trials},
            {
                "aggregate": result.aggregate_revenue,
                "simulated": result.simulated_revenue,
                "simulated_se": result.simulated_se,
            },
        )
    ]


def cmd_oracle(args) -> list[ExperimentRecord]:
    if args.oracle_command == "partition-welfare":
        instance = _require_bvs(_load(args.instance))
        partition, welfare = oracle.best_partition_welfare(instance, args.max_signals)
        print(f"best {args.max_signals}-signal welfare: {fmt(welfare)} "
              f"({len(partition.blocks)} blocks)")
        return [
            ExperimentRecord(
                "oracle/partition-welfare",
                _hash_instance(instance),
                None,
                {"max_signals": args.max_signals},
                {"welfare": welfare, "blocks": len(partition.blocks)},
            )
        ]
    if args.oracle_command == "public-optimal":
        instance = _require_kvs(_load(args.instance))
        _, revenue = oracle.brute_force_public_optimal(instance)
        print(f"brute-force optimal public revenue: {fmt(revenue)}")
        return [
            ExperimentRecord(
                "oracle/public-optimal", _hash_instance(instance), None, {},
                {"revenue": revenue},
            )
        ]
    if args.oracle_command == "theorem2":
        exact, lower = oracle.theorem2_fullinfo_revenue(args.n, args.epsilon)
        print(f"exact={fmt(exact)} lower_bound={fmt(lower)}")
        return [
            ExperimentRecord(
                "oracle/theorem2", "-", None,
                {"n": args.n, "epsilon": args.epsilon},
                {"exact": exact, "lower_bound": lower},
            )
        ]
    if args.oracle_command == "binom-tail":
        value = oracle.binomial_cond_expectation(args.m, args.p, args.k)
        print(f"E[X | X >= {args.k}] = {fmt(value)}")
        return [
            ExperimentRecord(
                "oracle/binom-tail", "-", None,
                {"m": args.m, "p": args.p, "k": args.k},
                {"value": value},
            )
        ]
    raise UsageError(f"unknown oracle command {args.oracle_command!r}")


def cmd_compare(args) -> list[ExperimentRecord]:
    instance = _require_kvs(_load(args.instance))
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    rows = []
    for name in names:
        if name == "full":
            rev = auction.kvs_public_revenue(instance, PublicScheme.full_information())
        elif name == "none":
            rev = auction.kvs_public_revenue(instance, PublicScheme.no_information())
        elif name == "optimal":
            _, rev = public_exact.solve_optimal_public(instance)
        elif name == "private":
            rev = private.run_private_scheme(
                instance, eps=args.epsilon, delta=args.delta, seed=args.seed,
                trials=1,
            ).aggregate_revenue
        else:
            raise ValidationError(f"unknown scheme {name!r} in --schemes")
        rows.append((name, rev))
    rows.sort(key=lambda r: -r[1])
    out = args.out or "compare.csv"
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["scheme", "revenue"])
        for name, rev in rows:
            writer.writerow([name, fmt(rev)])
    for name, rev in rows:
        print(f"{name:>8}: {fmt(rev)}")
    return [
        ExperimentRecord(
            "compare",
            _hash_instance(instance),
            args.seed,
            {"schemes": args.schemes, "epsilon": args.epsilon, "delta": args.delta},
            {name: rev for name, rev in rows},
        )
    ]


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="signalcraft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="write a bundled instance to JSON")
    p.add_argument("generator", choices=["example1", "example2", "example3", "theorem2"])
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("solve-public-exact", help="exact optimal public scheme")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None, help="write the scheme table as JSON")
    p.set_defaults(func=cmd_solve_public_exact)

    p = sub.add_parser("sign-public-mc", help="one sampled-LP signaling call")
    p.add_argument("--instance", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--override-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sign_public_mc)

    p = sub.add_parser("eval-public-mc", help="estimate the sampled scheme's revenue")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--override-k", type=int, default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval_public_mc)

    p = sub.add_parser("bvs-pool", help="tail-pooling signal for one state")
    p.add_argument("--instance", required=True)
    p.add_argument("--state", required=True, help="bitvector, e.g. 0100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the pairing as JSON")
    p.set_defaults(func=cmd_bvs_pool)

    p = sub.add_parser("bvs-check-lemma6", help="revenue-vs-welfare bound check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--high", required=True, help="e.g. uniform:0,1")
    p.add_argument("--low", required=True, help="e.g. point:0")
    p.add_argument("--theta-weight", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bvs_check_lemma6)

    p = sub.add_parser("private-scheme", help="per-state private scheme and pricing")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--report", dest="report_csv", default=None)
    p.set_defaults(func=cmd_private_scheme)

    p = sub.add_parser("oracle", help="brute-force ground-truth computations")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    oracle_parsers = []
    q = osub.add_parser("partition-welfare")
    q.add_argument("--instance", required=True)
    q.add_argument("--max-signals", type=int, required=True)
    oracle_parsers.append(q)
    q = osub.add_parser("public-optimal")
    q.add_argument("--instance", required=True)
    oracle_parsers.append(q)
    q = osub.add_parser("theorem2")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--epsilon", type=float, required=True)
    oracle_parsers.append(q)
    q = osub.add_parser("binom-tail")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    oracle_parsers.append(q)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="revenue table across schemes")
    p.add_argument("--instance", required=True)
    p.add_argument("--schemes", default="full,none,optimal,private")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    def add_record_flag(sp):
        sp.add_argument(
            "--record", dest="report_base", default=None,
            help="write BASE.csv and BASE.json experiment records",
        )

    for name, sp in sub.choices.items():
        if name != "oracle":
            add_record_flag(sp)
    for sp in oracle_parsers:
        add_record_flag(sp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        records = args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverFailure as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    elapsed = time.perf_counter() - start
    for r in records:
        r.wall_time = elapsed
    base = getattr(args, "report_base", None)
    if base:
        csv_path, json_path = emit_report(records, base)
        print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
