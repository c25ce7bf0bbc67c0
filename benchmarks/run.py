"""Benchmark of signalcraft: four workloads, each checked, end-to-end or traced.

Run from the root of a checkout (the directory holding ``src/signalcraft``):

    python3 benchmarks/run.py --workload signal_narrow --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of five
fresh interpreters, each timed from its start to the end of one untimed
warm-up op), and ``ops_per_s``, ``latency_p50_ms`` and ``peak_rss_mb`` from
the timed closed loops that those interpreters share.  ``--trace 1`` runs the same
workload with spans around the calls into each layer and prints the
per-layer metrics instead, plus the import times of ``signalcraft.cli`` from
``python -X importtime``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result and,
when traced, the spans are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import CLI_COMMANDS  # noqa: E402

WORKLOADS = ("signal_narrow", "signal_wide", "private_lattice", "cli_short")
SETUPS = 5  # fresh interpreters per end-to-end run; setup_s is their median
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
IMPORTS = {
    "import.signalcraft_cli_ms": "signalcraft.cli",
    "import.scipy_optimize_ms": "scipy.optimize",
    "import.scipy_stats_ms": "scipy.stats",
    "import.scipy_integrate_ms": "scipy.integrate",
}
PER_LAYER = {
    **{name: "ms" for name in IMPORTS},
    "model.load_validate_ms": "ms",
    "public_mc.signal_ms": "ms",
    "public_mc.outside_solver_ms": "ms",
    "lp.solve_ms": "ms",
    "lp.solves_per_op": "count",
    "lp.iterations_per_solve": "count",
    "lp.columns_per_solve": "count",
    "lp.matrix_mb_per_solve": "MB",
    "private.design_ms": "ms",
    "private.best_response_ms": "ms",
    "private.best_response_calls": "count",
    "private.rest_ms": "ms",
    **{f"cli.{c}.{kind}_ms": "ms" for c in CLI_COMMANDS for kind in ("process", "dispatch")},
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


class WorkerError(RuntimeError):
    pass


def run_worker(root: Path, env: dict, args: list[str]) -> tuple[float, dict | None]:
    """Start a worker, time it from launch to its READY line, and return
    (set-up seconds, its result or None for a set-up-only worker)."""
    with tempfile.TemporaryDirectory(prefix="work-", dir=root / "benchmarks" / "out") as workdir:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", workdir, *args]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {code} (set-up {'done' if ready else 'not done'})")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def common_args(workload: str, seed: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed)]


def measure(root: Path, env: dict, common: list[str], seconds: float) -> dict:
    """End-to-end run: SETUPS fresh interpreters in turn, each timed to the
    end of its warm-up op.  They share the measured seconds: each runs whole
    rounds until its share of what is left has passed, so per-process effects
    average out.  Once the seconds are used up (one cli_short round outlasts
    them), the remaining interpreters only set up."""
    setups, parts = [], []
    left = seconds
    for k in range(SETUPS):
        share = left / (SETUPS - k)
        extra = ["--seconds", str(share)] if share > 0 else ["--setup-only"]
        setup_s, part = run_worker(root, env, common + extra)
        setups.append(setup_s)
        if part is not None:
            parts.append(part)
            left -= part["wall_s"]
    latencies = [x for p in parts for x in p["latencies_ms"]]
    return {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "problems": [x for p in parts for x in p["problems"]],
        "setups_s": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": sum(p["completed"] for p in parts) / sum(p["wall_s"] for p in parts),
            "latency_p50_ms": statistics.median(latencies),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        },
    }


def import_times_ms(root: Path, env: dict, repeats: int = 3) -> dict:
    """Cumulative import time of each module in IMPORTS when importing
    ``signalcraft.cli``, median of ``repeats`` fresh interpreters; a module
    that is not imported reads 0."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import signalcraft.cli"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise WorkerError(f"importing signalcraft.cli failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, module = line[len("import time:"):].split("|")
            module = module.strip()
            if module not in cumulative and cum.strip().isdigit():
                cumulative[module] = int(cum) / 1000.0
        for name, module in IMPORTS.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(xs) for name, xs in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "signalcraft" / "__init__.py").is_file():
        print(f"error: no src/signalcraft under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.pop("SIGNALCRAFT_THREADS", None)  # one process, no thread pool
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            imports = import_times_ms(root, env)
            spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
            _, result = run_worker(root, env, common_args(args.workload, args.seed) + [
                "--seconds", str(args.seconds), "--trace", "1", "--spans", str(spans)])
            result["metrics"].update(imports)
            units = PER_LAYER
        else:
            result = measure(root, env, common_args(args.workload, args.seed), args.seconds)
            units = END_TO_END
    except (WorkerError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    (out / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
