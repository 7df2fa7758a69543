"""uniar benchmark: train and predict_eval workloads driven through
`uniar.cli.run` in-process.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
repeats pairs of one untraced and one traced pass of the same work and
reports the per-layer metrics from the spans. Every named metric is
printed on its own line; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and the BENCHMARK.json
metrics. Full results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "predict_eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout that is not a repository says so."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args, wl, counts) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": wl.name,
        "counts": counts,
    }


def _median_setup(wl) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _measure(wl, seconds: float) -> list:
    """Whole passes until the deadline, at least one."""
    ops = []
    off = wl.start_hooks()
    try:
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            ops += wl.run_pass()
    finally:
        off()
    return ops


def _traced(wl, seconds: float):
    """Pairs of one untraced and one traced pass until the deadline.
    Returns (untraced ops, traced ops, tracer). `run_pass` checks every
    output against the first output of its key, so a traced output that
    differs from the untraced one fails its op."""
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        plain += wl.run_pass()
        uninstall = spans.install(tracer)
        tracer.enabled = True
        try:
            traced += wl.run_pass(tracer)
        finally:
            tracer.enabled = False
            uninstall()
    return plain, traced, tracer


def _layer_metrics(tracer, units: int, plain, traced):
    """Per-layer metrics normalised per unit of work, from the spans, and
    the names of those whose span or counter saw any work."""
    import spans

    tot = tracer.totals()
    per = 1000.0 / units
    out, seen = {}, set()

    def put(metric, value, span_calls):
        out[metric] = value
        if span_calls:
            seen.add(metric)

    def span(name):
        return tot.get(name, (0, 0.0, 0.0))

    for op in spans.AUTODIFF_OPS:
        calls, _, self_s = span(f"autodiff.{op}")
        put(f"autodiff.{op}.calls", calls / units, calls)
        put(f"autodiff.{op}.fwd_ms", self_s * per, calls)
        calls, _, self_s = span(f"autodiff.{op}.bwd")
        put(f"autodiff.{op}.bwd_ms", self_s * per, calls)
    for _, _, name in spans.LAYER_FUNCTIONS:
        calls, incl, _ = span(name)
        put(f"{name}.ms", incl * per, calls)
    c = tracer.counts
    tokens = c.get("model.decode_tokens", 0)
    put("model.decode_tokens", tokens / units, tokens)
    put("model.decode_positions_per_token",
        c.get("model.decode_positions", 0) / tokens if tokens else 0.0, tokens)
    n_dec = span("codec.decode_robust")[0]
    put("codec.decode_valid_share", c.get("codec.decode_valid", 0) / n_dec if n_dec else 0.0,
        n_dec)
    put("data.read_grid.bytes", c.get("data.read_grid.bytes", 0) / units,
        span("data.read_grid")[0])
    calls, _, self_s = span(spans.ROOT_SPAN)
    put("cli.self_ms", self_s * per, calls)
    put("trace.overhead_share",
        sum(op.seconds for op in traced) / sum(op.seconds for op in plain) - 1.0, True)
    return out, seen


def _finite(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "uniar", "cli.py")):
        print(f"error: no uniar sources under {SRC}", file=sys.stderr)
        return 2
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    registry = _load_json(os.path.join(HERE, "registry.json"))
    sys.path.insert(0, SRC)
    import uniar

    if os.path.dirname(os.path.abspath(uniar.__file__)) != os.path.join(SRC, "uniar"):
        print(f"error: imported uniar from {uniar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    try:
        setup_s = _median_setup(wl)
        if args.trace:
            plain, ops, tracer = _traced(wl, args.seconds)
            units = wl.units(ops)
        else:
            ops = _measure(wl, args.seconds)
        digest = wl.digest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(os.path.join(HERE, "work")) and not os.listdir(os.path.join(HERE, "work")):
            os.rmdir(os.path.join(HERE, "work"))

    attempted = len(ops) + (len(plain) if args.trace else 0)
    failed_ops = [op for op in (ops + (plain if args.trace else [])) if not op.ok]
    problems = [f"{op.key}: {p}" for op in failed_ops for p in op.problems]
    named = {"setup_s": (setup_s, "s", SETUP_REPEATS),
             "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
             "ops_failed_share": (len(failed_ops) / attempted, "share", attempted)}
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        layer, seen = _layer_metrics(tracer, units, plain, ops)
        expected = [name for name, on in registry["per_layer_workloads"].items()
                    if args.workload in on]
        missing = [n for n in expected if n not in seen]
        problems += [f"per-layer metric {n} not exercised" for n in missing]
        reported = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                    for m in bench["per_layer"]}
        tracer.write(os.path.join(results, stem + "_spans.csv.gz"))
    else:
        named.update(wl.headline(ops))
        named.update(wl.metrics(ops))
        reported = {m["name"]: {"value": _finite(named[m["name"]][0]), "unit": m["unit"]}
                    for m in bench["end_to_end"]}

    counts = {"ops": attempted, "passes": wl.passes, "units": wl.units(ops), "unit": wl.unit}
    counts.update({k: getattr(workloads, k) for k in (
        "TRAIN_STEPS", "PREDICT_IMAGES", "EVAL_SAMPLES", "EVAL_LARGE_EVERY",
        "RATING_PAIRS_PER_SAMPLE", "WARMUP_SEED")})
    record = {
        "provenance": _provenance(args, wl, counts),
        "correct": not problems,
        "problems": problems[:50],
        "output_digest": digest,
        "op_digests": dict(sorted((str(k), v) for k, v in wl.reference.items())),
        "op_seconds": [[op.kind, op.seconds] for op in ops],
        "named_metrics": {k: {"value": _finite(v), "unit": u, "n": n}
                          for k, (v, u, n) in named.items()},
        "metrics": reported,
    }
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for p in problems[:20]:
        print(f"check failed: {p}")
    print(f"output digest {digest}")
    for k, (v, u, n) in named.items():
        print(f"{k} = {v:.6g} {u} (n={n})")
    if args.trace:
        for k, m in reported.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": reported}))
    return 0


if __name__ == "__main__":
    # one BLAS thread: the workload runs on one client thread, leaving the
    # second core of a 2-core machine to everything else
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
