"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed, one run at a time, and prints for
every end-to-end metric its median and the distance between the first
and third quartile as a share of the median, next to the metric's
bound. Every run measures for BENCHMARK.json's run_seconds. Run from
the repository root:

    python3 perfbench/spread.py --workload predict_eval --seeds 1 2 3 4 5

A repeated seed (`--seeds 3 3 3 3 3`) gives the spread on identical
inputs. The last line of standard output is one JSON object with the
median, first and third quartile of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    registry = _load(os.path.join(HERE, "registry.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update({name: m["bound"] for name, m in registry["named_metrics"].items()
                   if m["bound"] is not None})

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        result = _load(os.path.join(HERE, "results",
                                    f"BENCH_{args.workload}_seed{seed}_trace0.json"))
        values = {k: m["value"] for k, m in last["metrics"].items()}
        values.update({k: m["value"] for k, m in result["named_metrics"].items()})
        runs.append({"correct": last["correct"], "values": values})
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} wall={wall:.1f}s", flush=True)

    summary = {}
    for name in runs[0]["values"]:
        vals = [r["values"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3}
        if name not in bounds or len(vals) < 2 or not med:
            continue
        rel = (q3 - q1) / med
        flag = "ok" if rel < bounds[name] / 3 else ("WIDE" if rel >= bounds[name] else "over 1/3")
        print(f"{name:32s} median {med:12.6g}  iqr/median {rel:7.4f}  bound {bounds[name]:.2f}  {flag}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "summary": summary}))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
