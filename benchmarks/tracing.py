"""Spans around the calls into each layer, recorded from outside the package.

A hook replaces a name that a ``signalcraft`` module binds (``linprog`` in
``public_mc``, ``lp`` and ``oracle``; ``worst_bne_revenue_and_bid`` in
``private``; the public entry points the workloads call) with a wrapper that
opens a span around the original.  Callers that look the name up at call
time, inside the package or in the benchmark, then pass through the wrapper.
A hook whose module or name no longer exists is reported as absent, so a
later change to the package cannot break the benchmark; the metrics that
depend on it read 0.

Spans (name, start, end, parent, op id, attributes) stay in memory until the
run ends.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module, bound name, span name)
HOOKS = (
    ("signalcraft.model", "load_instance", "model.load_instance"),
    ("signalcraft.public_mc", "mc_signal", "public_mc.mc_signal"),
    ("signalcraft.public_mc", "linprog", "lp.solve"),
    ("signalcraft.lp", "linprog", "lp.solve"),
    ("signalcraft.oracle", "linprog", "lp.solve"),
    ("signalcraft.private", "run_private_scheme", "private.design"),
    ("signalcraft.private", "worst_bne_revenue_and_bid", "private.best_response"),
)

CLI_COMMANDS = (
    "gen-instance",
    "solve-public-exact",
    "sign-public-mc",
    "eval-public-mc",
    "compare",
    "bvs-pool",
    "bvs-check-lemma6",
    "private-scheme",
    "oracle-public-optimal",
    "oracle-partition-welfare",
    "oracle-theorem2",
    "oracle-binom-tail",
)


def _matrix_bytes(m) -> int:
    """Bytes of a constraint matrix as handed over: a dense array's buffer,
    or a sparse matrix's value and index arrays."""
    if m is None:
        return 0
    if hasattr(m, "nnz"):
        parts = (getattr(m, name, None) for name in ("data", "indices", "indptr", "row", "col"))
        return sum(int(p.nbytes) for p in parts if hasattr(p, "nbytes"))
    return int(getattr(m, "nbytes", 0))


def _linprog_attrs(args, kwargs, result) -> dict:
    c = args[0] if args else kwargs.get("c")
    a_ub = args[1] if len(args) > 1 else kwargs.get("A_ub")
    a_eq = args[3] if len(args) > 3 else kwargs.get("A_eq")
    return {
        "nit": int(getattr(result, "nit", 0) or 0),
        "columns": int(len(c)) if c is not None else 0,
        "matrix_bytes": _matrix_bytes(a_ub) + _matrix_bytes(a_eq),
    }


_ATTRS = {"lp.solve": _linprog_attrs}


class Tracer:
    """In-memory span recorder with installable hooks."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op_id = "setup"
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "op": self.op_id,
            "attrs": attrs,
        })
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        extra = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if extra is not None:
                self.spans[idx]["attrs"].update(extra(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hook target that exists; record the rest as absent."""
        if self._saved:
            return
        self.absent = []
        for module_name, attr, span_name in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _mean(xs) -> float:
    return float(sum(xs) / len(xs)) if xs else 0.0


def layer_metrics(spans: list[dict], traced_ops: set, traced_wall_s: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    ``traced_ops`` holds the op ids of those rounds and ``traced_wall_s`` their
    wall time.  Times are per call or per op in ms; a layer the workload does
    not reach reads 0.
    """
    dur = [(s["end"] - s["start"]) * 1e3 if s["end"] is not None else 0.0 for s in spans]
    child_ms = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            child_ms[s["parent"]] += dur[k]

    def pick(name, ops_only=True):
        return [
            k for k, s in enumerate(spans)
            if s["name"] == name and (not ops_only or s["op"] in traced_ops)
        ]

    ops = pick("op")
    n_ops = max(len(ops), 1)
    signal = pick("public_mc.mc_signal")
    solves = pick("lp.solve")
    design = pick("private.design")
    best = pick("private.best_response")
    loads = pick("model.load_instance", ops_only=False)

    best_by_design = {k: [0.0, 0] for k in design}
    for k in best:
        parent = spans[k]["parent"]
        if parent in best_by_design:
            best_by_design[parent][0] += dur[k]
            best_by_design[parent][1] += 1

    metrics = {
        "model.load_validate_ms": _mean([dur[k] for k in loads]),
        "public_mc.signal_ms": _median([dur[k] for k in signal]),
        "public_mc.outside_solver_ms": _median([dur[k] - child_ms[k] for k in signal]),
        "lp.solve_ms": _median([dur[k] for k in solves]),
        "lp.solves_per_op": len(solves) / n_ops,
        "lp.iterations_per_solve": _mean([spans[k]["attrs"].get("nit", 0) for k in solves]),
        "lp.columns_per_solve": _mean([spans[k]["attrs"].get("columns", 0) for k in solves]),
        "lp.matrix_mb_per_solve": _mean(
            [spans[k]["attrs"].get("matrix_bytes", 0) / 2**20 for k in solves]
        ),
        "private.design_ms": _median([dur[k] for k in design]),
        "private.best_response_ms": _median([v[0] for v in best_by_design.values()]),
        "private.best_response_calls": _mean([v[1] for v in best_by_design.values()]),
        "private.rest_ms": _median([dur[k] - v[0] for k, v in best_by_design.items()]),
    }
    # a cli_short op is one subprocess; its in-process replay is a cli.dispatch span
    for command in CLI_COMMANDS:
        for kind, span_name in (("process", "op"), ("dispatch", "cli.dispatch")):
            metrics[f"cli.{command}.{kind}_ms"] = _median(
                [dur[k] for k in pick(span_name) if spans[k]["attrs"].get("command") == command]
            )
    top = [k for k in range(len(spans)) if spans[k]["parent"] is None and spans[k]["op"] in traced_ops]
    covered_ms = sum(dur[k] for k in top)
    metrics["trace.coverage_pct"] = 100.0 * covered_ms / (traced_wall_s * 1e3) if traced_wall_s > 0 else 0.0
    return metrics
