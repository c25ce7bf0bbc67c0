"""Steadiness check: run the benchmark once per seed and report, for each
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, against the bound in BENCHMARK.json.

Run from the repository root, one run at a time:

    python3 benchmarks/steadiness.py --runs 10 --first-seed 100 [--workload NAME ...]

Each spread except that of ``setup_s`` should stay below a third of its
metric's bound.  The table is printed and written to
``benchmarks/out/steadiness-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append", default=None,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {}
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
                if not k.startswith("cli.")
            ), flush=True)
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": m.get("bound"),
            }
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "attempted": [r["attempted"] for r in runs],
            "metrics": rows,
        }
        print(f"\n{workload}: correct={report[workload]['correct']} "
              f"failed share={report[workload]['failed_share']}")
        for name, row in rows.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            bound = row["bound"]
            flag = "" if bound is None or row["spread"] is None or name == "setup_s" \
                or row["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:32s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {spread}  bound {bound}{flag}")
        print(flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.first_seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
