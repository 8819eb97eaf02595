"""One benchmark run of one workload, in a fresh process started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Drives ``qbroadcast.cli.run(argv)`` in-process as a closed loop with one
client: each command starts after the previous one returned.  The command list
is repeated until ``--seconds`` have passed.  Every pass is checked against
``reference`` and against the first pass (same seed, so outputs must be
byte-identical).  With ``--trace 1`` passes alternate between untraced and
traced, which gives the per-layer metrics and the tracing overhead.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

import reference
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = pathlib.Path(".perfbench_out")
# Median calibrate() time on the machine the benchmark was defined on (2-core
# Xeon VM, Python 3.11, numpy 2.4, OpenBLAS one thread).  Timed results are
# reported in these "reference seconds": wall time x CAL_REF_S / calibrate().
CAL_REF_S = 0.08
# Counters that must repeat exactly for a fixed seed.
DETERMINISTIC = ("optimize.runs", "optimize.iterations", "optimize.objective_calls",
                 "optimize.objective_rows", "regions.targets", "regions.entropy_calls",
                 "regions.entropy_mats", "bruteforce.candidates", "channels.degraded_calls",
                 "channels.certified", "cli.verify_rows", "cli.output_bytes")


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter loops, small real and 9x9
    complex Hermitian spectra, and einsum calls, touching no qbroadcast code.

    Timings on a shared machine drift by 20% over tens of seconds as
    neighbours load it.  Calibrating next to every timed interval and dividing
    by the result cancels most of that drift; the kernel never changes, so the
    ratio still moves one-for-one with qbroadcast's own speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    real = rng.standard_normal((32, 3, 3))
    real = real + real.transpose(0, 2, 1)
    cplx = rng.standard_normal((64, 9, 9)) + 1j * rng.standard_normal((64, 9, 9))
    cplx = cplx + cplx.conj().transpose(0, 2, 1)
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    for _ in range(500):
        np.linalg.eigvalsh(real)
        np.einsum("nij,njk->nik", real, real, optimize=True)
    for _ in range(60):
        np.linalg.eigvalsh(cplx)
    return time.perf_counter() - start


def setup(workload, seed: int, workdir: pathlib.Path):
    """Import qbroadcast, write the seeded documents and build every channel."""
    start = time.perf_counter()
    from qbroadcast import cli, specio  # noqa: F401  (cli imports every traced layer)

    docs = workload.documents(seed, workdir)
    for name in workload.builtins:
        specio.BUILTIN_CHANNELS[name]()
    for path in docs.values():
        specio.parse_channel_spec(pathlib.Path(path).read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - start
    # the modules the tracer patches, as far as this version of the package has them
    modules = {name: sys.modules.get(f"qbroadcast.{name}") for name in
               ("bruteforce", "channels", "cli", "optimize", "regions", "specio")}
    return elapsed, docs, modules


def run_pass(cli, ops, tracer):
    """Send every command once; returns (wall seconds, [(rc, stdout), ...])."""
    results = []
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
            span = tracer.open("cli.run")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(list(op.argv))
        if tracer is not None:
            tracer.close(span)
        results.append((rc, out.getvalue()))
    return time.perf_counter() - start, results


def check_pass(ops, results):
    """Check one pass against the references.

    Returns (failed op indices, worst gap, per-op digests, output bytes, rows verified).
    """
    failed = set()
    gap = 0.0
    digests, out_bytes, verified = [], 0, 0
    rows = {}
    for k, (op, (rc, stdout)) in enumerate(zip(ops, results)):
        files = [op.out, op.out + ".witness.json"] if op.out else []
        blob = stdout.encode() + b"".join(pathlib.Path(f).read_bytes() for f in files if rc == 0)
        digests.append(hashlib.sha256(blob).hexdigest())
        out_bytes += len(blob)
        if rc != 0:
            failed.add(k)
            continue
        if op.out:
            points = reference.read_frontier(pathlib.Path(op.out).read_text(encoding="utf-8"))
            worst, bad = reference.frontier_gaps(points, reference.TRUTHS[op.truth])
            gap = max(gap, worst)
            rows[op.out] = len(points)
            if bad or not points:
                failed.add(k)
            if op.candidates is not None:
                meta = json.loads(pathlib.Path(files[1]).read_text(encoding="utf-8"))["metadata"]
                if meta.get("candidates") != op.candidates:
                    failed.add(k)
        if op.verifies:
            expected = rows.get(op.verifies, -1)
            if not stdout.endswith(f"verified {expected} rows\n"):
                failed.add(k)
            verified += max(expected, 0)
        if op.channel:
            fields = dict(line.split(": ", 1) for line in stdout.strip().split("\n"))
            certified = fields.get("certified") == "true"
            want = reference.expected_certified(op.channel, op.reverse)
            if certified != want:
                failed.add(k)
            elif want:
                gap = max(gap, float(fields["residual"]))
    return failed, gap, digests, out_bytes, verified


def code_fingerprint() -> str:
    """sha256 over the package and benchmark sources, so stored digests are
    only compared between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted(pathlib.Path("src/qbroadcast").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_with_earlier_runs(key: str, record: dict) -> bool:
    """Cross-process determinism: a run of the same code, workload and seed
    must reproduce the output digest (and, when traced, the counters) stored
    by any earlier run in this checkout."""
    path = OUT_DIR / "digests.json"
    store = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    earlier = store.get(key, {})
    same = all(earlier[field] == value for field, value in record.items() if field in earlier)
    store[key] = {**earlier, **record}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(path)
    return same


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, docs, modules = setup(workload, args.seed, workdir)
        calibrate()  # first numpy calls pay one-off costs
        timing = {"setup_wall_s": setup_s,
                 "setup_s": setup_s * CAL_REF_S / statistics.median(calibrate() for _ in range(3))}
        if args.setup_only:
            print(json.dumps(timing))
            return 0
        result = measure(workload, args, workdir, docs, modules)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["meta"] = {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
                      "untraced_entry_points": result.pop("missing_spans")}
    result.update(timing)
    result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(workload, args, workdir, docs, modules) -> dict:
    from spans import Tracer, layer_metrics

    cli = modules["cli"]
    ops = workload.ops(args.seed, workdir, docs)
    reverse_ops = {k for k, op in enumerate(ops) if op.reverse}
    tracer = Tracer(modules) if args.trace else None
    passes = []  # (traced, wall seconds, calibration just before)
    layers = []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        cal = calibrate()
        if traced:
            tracer.install()
            mark = len(tracer.spans)
        elapsed, results = run_pass(cli, ops, tracer if traced else None)
        if traced:
            tracer.uninstall()
            layers.append(layer_metrics(tracer.spans, tracer.notes, mark, reverse_ops))
        passes.append((traced, elapsed, cal))
        bad, gap, digests, out_bytes, verified = check_pass(ops, results)
        if first is None:
            first = {"gap": gap, "digests": digests, "bytes": out_bytes, "verified": verified}
        else:
            bad |= {k for k, d in enumerate(digests) if d != first["digests"][k]}
        attempted += len(ops)
        failed += len(bad)

    # Each pass in reference seconds, scaled by the calibrations either side of it.
    cals = [cal for _, _, cal in passes] + [calibrate()]
    wall = {False: [], True: []}
    ref = {False: [], True: []}
    for i, (traced, elapsed, _) in enumerate(passes):
        wall[traced].append(elapsed)
        ref[traced].append(elapsed * CAL_REF_S / (0.5 * (cals[i] + cals[i + 1])))
    counters = {}
    metrics = {}
    if tracer is not None:
        for key in layers[0]:
            metrics[key] = statistics.median(layer[key] for layer in layers)
        metrics["cli.verify_rows"] = first["verified"]
        metrics["cli.output_bytes"] = first["bytes"]
        counters = {key: metrics[key] for key in DETERMINISTIC}
        counters.update({k: v for k, v in metrics.items() if k.startswith("channels.method.")})
        failed += sum(any(layer[k] != layers[0][k] for layer in layers) for k in counters
                      if k in layers[0])
        metrics["trace.solve_traced_s"] = statistics.median(ref[True])
        metrics["trace.solve_untraced_s"] = statistics.median(ref[False])
        metrics["trace.overhead_s"] = metrics["trace.solve_traced_s"] - metrics["trace.solve_untraced_s"]
        metrics["trace.spans"] = len(tracer.spans) / len(layers)
        tracer.write(OUT_DIR / f"trace-{args.workload}.json.gz", args.workload)
    max_gap = max(first["gap"], reference.GAP_FLOOR)
    record = {"outputs": hashlib.sha256("".join(first["digests"]).encode()).hexdigest(),
              "max_gap": max_gap}
    if counters:
        record["counters"] = counters
    if not compare_with_earlier_runs(f"{code_fingerprint()}:{args.workload}:{args.seed}", record):
        failed += 1
    metrics["solve_s"] = statistics.median(ref[False])
    metrics["solve_wall_s"] = statistics.median(wall[False])
    metrics["max_gap"] = max_gap
    return {"attempted": attempted, "failed": failed, "pass_s": wall[False], "cal_s": cals,
            "missing_spans": tracer.missing if tracer is not None else [], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
