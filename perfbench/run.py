"""qbroadcast benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload sweep-cq --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh single-threaded Python process (BLAS
pinned to one thread) that imports ``src/qbroadcast`` from the checkout and
drives ``qbroadcast.cli.run`` in-process; see ``worker.py``.  Set-up is timed
in several further fresh processes and reported as their median.

The metric names, units and bounds come from ``BENCHMARK.json``: with
``--trace 0`` the last stdout line carries every ``end_to_end`` metric, with
``--trace 1`` every ``per_layer`` one.  Each run's metadata (machine, versions,
commit, seed, ``src/`` line count) and full metric set are appended to
``.perfbench_out/runs.jsonl``; ``summarize.py`` condenses that file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys

SETUP_PROBES = 4  # fresh processes that only set up; the worker's own set-up is one more sample
WORKER_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"


class BenchError(Exception):
    pass


def _child(cmd: list, env: dict) -> dict:
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _git_commit(root: pathlib.Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _metadata(root: pathlib.Path, env: dict, seed: int, worker_meta: dict) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src" / "qbroadcast").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **worker_meta,
        "blas_threads": {k: env[k] for k in THREAD_ENV},
        "commit": _git_commit(root),
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = pathlib.Path.cwd()
    if not (root / "src" / "qbroadcast" / "cli.py").is_file():
        print("perfbench: no src/qbroadcast here; run from the root of a qbroadcast checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [_child(cmd + ["--setup-only"], env) for _ in range(SETUP_PROBES)]
        result = _child(cmd, env)
        setups.append(result)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta = _metadata(root, env, args.seed, result["meta"])
    metrics = result["metrics"]
    for key in ("setup_s", "setup_wall_s"):
        metrics[key] = statistics.median(s[key] for s in setups)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: worker did not report {missing}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "pass_s": result["pass_s"], "cal_s": result["cal_s"], "attempted": result["attempted"],
              "failed": result["failed"], "meta": meta, "metrics": metrics}
    with open(out_dir / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"meta": meta, "pass_s": result["pass_s"]}, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
