"""Repeat the benchmark over seeds and summarize each metric.

    python3 perfbench/sweep.py [--workloads lattice,angles] [--seeds 1-10]
                               [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed) as a child process, with
``run_seconds`` from BENCHMARK.json, and prints for every metric its median,
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median next to a third of the metric's bound.  ``--out``
writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, summary = {}, {}
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, elapsed_s=elapsed)
            runs[wl].append(result)
            print(f"{wl} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        names = runs[wl][0]["metrics"]
        summary[wl] = {name: summarize([r["metrics"][name]["value"] for r in runs[wl]])
                       for name in names}
        summary[wl]["elapsed_s"] = summarize([r["elapsed_s"] for r in runs[wl]])
    for wl, table in summary.items():
        print(f"\n{wl}")
        for name, s in table.items():
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" else (
                "  ok" if s["spread"] < bound / 3 else "  WIDE")
            print(f"  {name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f" (bound/3 {bound / 3:.4f}){flag}" if bound else ""))
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
