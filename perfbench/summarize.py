"""Condense ``.perfbench_out/runs.jsonl`` into per-workload medians and spreads.

    python3 perfbench/summarize.py            # table on stdout
    python3 perfbench/summarize.py --json     # the same as JSON (the form of results/*.json)

For every metric of every workload it gives the run count, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  End-to-end spreads are compared with the bounds in
``BENCHMARK.json``: ``!`` marks a spread above a third of the bound, ``!!``
one above the bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics


def summarize(runs: list, spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups: dict = {}
    for run in runs:
        mode = "per_layer" if run["trace"] else "end_to_end"
        group = groups.setdefault(run["workload"], {}).setdefault(mode, {
            "runs": 0, "failed": 0, "seeds": [], "metrics": {}})
        group["runs"] += 1
        group["failed"] += run["failed"]
        group["seeds"].append(run["meta"]["seed"])
        for m in spec[mode]:
            group["metrics"].setdefault(m["name"], []).append(run["metrics"][m["name"]])
    for modes in groups.values():
        for mode, group in modes.items():
            for name, values in group["metrics"].items():
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                row = {"n": len(values), "median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else 0.0}
                if name in bounds:
                    row["bound"] = bounds[name]
                group["metrics"][name] = row
    return {"meta": runs[-1]["meta"] if runs else {}, "workloads": groups}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", default=".perfbench_out/runs.jsonl")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text(encoding="utf-8"))
    lines = pathlib.Path(args.runs).read_text(encoding="utf-8").splitlines()
    summary = summarize([json.loads(line) for line in lines if line.strip()], spec)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    for workload, modes in summary["workloads"].items():
        for mode, group in modes.items():
            print(f"{workload} [{mode}] runs={group['runs']} failed={group['failed']} "
                  f"seeds={group['seeds']}")
            for name, row in group["metrics"].items():
                flag = ""
                if "bound" in row and name != "setup_s":
                    flag = "!!" if row["spread"] > row["bound"] else "!" if row["spread"] > row["bound"] / 3 else ""
                print(f"  {name:34s} median={row['median']:<12.6g} q1={row['q1']:<12.6g} "
                      f"q3={row['q3']:<12.6g} spread={row['spread']:.3f} {flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
