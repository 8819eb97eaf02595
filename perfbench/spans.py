"""Spans around the module-level entry points of each qbroadcast layer.

The wrappers are installed from here by replacing module attributes, so no
file under ``src/`` changes.  A name imported into another module at import
time (``from .optimize import maximize_batch``) is a separate binding, so each
entry point is patched in every namespace the CLI reaches it through.

An entry point a later version of the package no longer has is skipped and
listed in ``Tracer.missing``; its metrics then read 0.

A span is ``(name, start, end, parent, op)``: ``parent`` indexes the enclosing
span (-1 for none) and ``op`` numbers the CLI command it belongs to.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time

# (span name, [(module, attribute), ...]) for every wrapped entry point.
ENTRY_POINTS = (
    ("optimize.maximize_batch", [("optimize", "maximize_batch"), ("regions", "maximize_batch")]),
    ("regions.sweep", [("regions", "_sweep")]),
    ("regions.batched_entropy", [("regions", "batched_entropy")]),
    ("bruteforce.grid", [("cli", "grid_cq_frontier")]),
    ("bruteforce.classical", [("cli", "classical_degraded_region")]),
    ("bruteforce.enumerate", [("bruteforce", "_enumerate_joints")]),
    ("bruteforce.spectra_entropy", [("bruteforce", "_spectra_entropy")]),
    ("bruteforce.table_entropy", [("bruteforce", "_table_entropy")]),
    ("bruteforce.pareto", [("bruteforce", "_pareto_points")]),
    ("channels.degradedness", [("channels", "degradedness_residual"),
                               ("regions", "degradedness_residual"),
                               ("cli", "degradedness_residual")]),
    ("cli.verify", [("cli", "_cmd_verify")]),
    ("cli.emit", [("cli", "_emit")]),
    ("cli.write_sidecar", [("cli", "_write_sidecar")]),
    ("specio.parse_channel", [("specio", "parse_channel_spec"), ("cli", "parse_channel_spec")]),
)

METHODS = {
    "identity": "identity",
    "measure-prepare (dephasing basis)": "dephasing_basis",
    "measure-prepare (least squares)": "least_squares",
    "measure-prepare (optimized)": "optimized",
    "kraus (linear fit)": "linear_fit",
    "kraus (QR retraction)": "qr_retraction",
    "none": "none",
}  # a method not named here counts as channels.method.other


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported qbroadcast module (or None)
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.notes: list = []  # (span index, payload) recorded by the wrappers
        self._saved: list = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "optimize.maximize_batch":
            def wrapper(batch_fn, *args, **kwargs):
                def objective(thetas):
                    j = tracer.open("optimize.objective")
                    try:
                        return batch_fn(thetas)
                    finally:
                        tracer.close(j)
                        tracer.notes.append((j, thetas.shape[0]))
                idx = tracer.open(name)
                try:
                    out = fn(objective, *args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.notes.append((idx, out[2] if isinstance(out, tuple) and len(out) > 2 else {}))
                return out
            return wrapper

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "regions.batched_entropy":
                tracer.notes.append((idx, _stack_count(args[0].shape)))
            elif name == "bruteforce.enumerate":
                tracer.notes.append((idx, out.shape[0]))
            elif name == "regions.sweep":
                tracer.notes.append((idx, out.metadata.get("grid", 0)))
            elif name == "channels.degradedness":
                tracer.notes.append((idx, out))
            return out
        return wrapper

    def install(self):
        self.missing = []
        for name, targets in ENTRY_POINTS:
            present = [(self.modules[mod], attr) for mod, attr in targets
                       if hasattr(self.modules.get(mod), attr)]
            if not present:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, getattr(*present[0]))
            for module, attr in present:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path, workload: str):
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": op, "workload": workload}
                for n, s, e, p, op in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _stack_count(shape) -> int:
    count = 1
    for dim in shape[:-2]:
        count *= dim
    return count


def _tail_percentile(samples: list) -> tuple[float, float]:
    """(percentile, value) for the highest of p99.9/p99/p90/p50 with at least
    ten samples beyond it; (0, 0) without samples."""
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    pct = next((p for p in (99.9, 99.0, 90.0) if n * (1.0 - p / 100.0) >= 10), 50.0)
    return pct, ordered[min(n - 1, int(pct / 100.0 * n))]


def layer_metrics(spans: list, notes: list, first: int, reverse_ops: set) -> dict:
    """Per-layer metrics from the spans recorded since index ``first``."""
    spans = spans[first:]
    notes = {idx - first: payload for idx, payload in notes if idx >= first}
    dur = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]
    parents = [s[3] - first if s[3] >= first else -1 for s in spans]

    def total(*wanted):
        return sum(d for d, n in zip(dur, names) if n in wanted)

    def under(i, wanted):
        p = parents[i]
        while p >= 0:
            if names[p] == wanted:
                return True
            p = parents[p]
        return False

    child_time = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += dur[i]

    m = {}
    runs = [notes[i] for i, n in enumerate(names) if n == "optimize.maximize_batch"]
    objective = [i for i, n in enumerate(names) if n == "optimize.objective"]
    m["optimize.runs"] = len(runs)
    m["optimize.iterations"] = sum(info.get("iterations", 0) for info in runs)
    m["optimize.converged_frac"] = (sum(bool(info.get("converged")) for info in runs) / len(runs)
                                    if runs else 0.0)
    m["optimize.objective_calls"] = len(objective)
    m["optimize.objective_rows"] = sum(notes[i] for i in objective)
    m["optimize.objective_s"] = sum(dur[i] for i in objective)
    m["optimize.self_s"] = total("optimize.maximize_batch") - m["optimize.objective_s"]

    entropy = [i for i, n in enumerate(names) if n == "regions.batched_entropy"]
    sweeps = [i for i, n in enumerate(names) if n == "regions.sweep"]
    calls_us = [dur[i] * 1e6 for i in entropy]
    pct, tail = _tail_percentile(calls_us)
    m["regions.frontier_s"] = sum(dur[i] for i in sweeps)
    m["regions.targets"] = sum(notes[i] for i in sweeps)
    m["regions.entropy_s"] = sum(dur[i] for i in entropy)
    m["regions.entropy_calls"] = len(entropy)
    m["regions.entropy_mats"] = sum(notes[i] for i in entropy)
    m["regions.entropy_call_us.p50"] = statistics.median(calls_us) if calls_us else 0.0
    m["regions.entropy_call_us.tail"] = tail
    m["regions.entropy_call_us.tail_pct"] = pct
    m["regions.evaluate_s"] = sum(dur[i] - child_time[i] for i in objective if under(i, "regions.sweep"))
    m["regions.sweep_overhead_s"] = m["regions.frontier_s"] - sum(
        dur[i] for i, n in enumerate(names) if n == "optimize.maximize_batch" and under(i, "regions.sweep"))

    oracle_s = total("bruteforce.grid", "bruteforce.classical")
    m["bruteforce.candidates"] = sum(notes[i] for i, n in enumerate(names) if n == "bruteforce.enumerate")
    m["bruteforce.enumerate_s"] = total("bruteforce.enumerate")
    m["bruteforce.entropy_s"] = total("bruteforce.spectra_entropy", "bruteforce.table_entropy")
    m["bruteforce.pareto_s"] = total("bruteforce.pareto")
    m["bruteforce.evaluate_s"] = oracle_s - m["bruteforce.enumerate_s"] - m["bruteforce.pareto_s"]
    m["bruteforce.candidates_per_s"] = m["bruteforce.candidates"] / oracle_s if oracle_s > 0 else 0.0

    degraded = [i for i, n in enumerate(names) if n == "channels.degradedness"]
    reports = [notes[i] for i in degraded]
    m["channels.degraded_calls"] = len(degraded)
    m["channels.degraded_s"] = sum(dur[i] for i in degraded)
    m["channels.degraded_call_s.max"] = max((dur[i] for i in degraded), default=0.0)
    m["channels.certified"] = sum(bool(r.certified) for r in reports)
    for label in list(METHODS.values()) + ["other"]:
        m[f"channels.method.{label}"] = 0
    for r in reports:
        m[f"channels.method.{METHODS.get(r.method, 'other')}"] += 1
    m["channels.reverse_residual_max"] = max(
        (float(notes[i].residual) for i in degraded if spans[i][4] in reverse_ops), default=0.0)

    m["cli.verify_s"] = total("cli.verify")
    m["cli.io_s"] = total("cli.emit", "cli.write_sidecar")
    m["specio.parse_s"] = total("specio.parse_channel")
    return m
