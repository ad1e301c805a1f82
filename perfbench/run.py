"""medqsl benchmark: four in-process CLI workloads, one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload evolve-mixed --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --compare OLD NEW         # results files or directories
    python3 perfbench/run.py --write-benchmark-json    # regenerate BENCHMARK.json

Each op is one ``medqsl.cli.main(argv)`` call in a worker process with
BLAS pinned to one thread and ``--workers 1``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a separate traced worker and
prints the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every result is also written to ``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SETUP_SAMPLES = 5  # setups per run; setup_s is their median
DEADLINE_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = tuple(spec.WORKLOAD_WHY)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env.pop("MEDQSL_WORKERS", None)
    return env


def spawn(args, mode: str, deadline: float, tag: str) -> dict:
    """Run one worker process to completion and return its result."""
    work = OUT / f"{args.workload}-{os.getpid()}-{tag}"
    result = OUT / f"{args.workload}-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out-dir", str(work), "--result", str(result)]
    if mode == "trace":
        spans = OUT / "spans" / f"{args.workload}.seed{args.seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def run_untraced(args, deadline: float) -> tuple[dict, dict, dict]:
    setups = []
    doc = None
    for i in range(SETUP_SAMPLES):
        mode = "run" if i == SETUP_SAMPLES - 1 else "setup"
        t0 = time.monotonic()
        doc = spawn(args, mode, deadline, f"{mode}{i}")
        setups.append((doc["ready"] - t0) * spec.PROBE_REF_S / doc["setup_probe_s"])
    lat = doc["latencies_s"]
    probes = doc["probes_s"]
    norm = [op * spec.PROBE_REF_S / (0.5 * (before + after))
            for op, before, after in zip(lat, probes, probes[1:])]
    items = doc["items_per_op"]
    pct, norm_tail = tail(norm)
    metrics = {
        "norm_items_per_s": items * len(norm) / sum(norm),
        "norm_op_p50_ms": statistics.median(norm) * 1e3,
        "norm_op_tail_ms": norm_tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    info = {
        "ops": len(lat),
        "items_per_op": items,
        "tail_percentile": pct,
        "items_per_s": items * len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail(lat)[1] * 1e3,
        "probe_p50_ms": statistics.median(probes) * 1e3,
        "timed_s": sum(lat),
        "latencies_ms": [x * 1e3 for x in lat],
        "probes_ms": [x * 1e3 for x in probes],
        "norm_setup_samples_s": setups,
        "fail_frac": doc["failed"] / doc["attempted"],
    }
    return metrics, info, doc


def run_traced(args, deadline: float) -> tuple[dict, dict, dict]:
    doc = spawn(args, "trace", deadline, "trace")
    info = dict(doc["trace"])
    if info["missing"]:
        raise BenchError("traced run recorded no call to " + ", ".join(info["missing"])
                         + "; a wrapper was not rebound")
    if doc["byte_mismatches"]:
        raise BenchError("tracing changed outputs: " + "; ".join(doc["byte_mismatches"]))
    info["items_per_op"] = doc["items_per_op"]
    return doc["metrics"], info, doc


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        metrics, info, doc = run_traced(args, deadline)
        expected = [name for name, _, _ in spec.per_layer_metrics()]
    else:
        metrics, info, doc = run_untraced(args, deadline)
        expected = [name for name, _, _, _ in spec.END_TO_END]
    if sorted(metrics) != sorted(expected):
        raise BenchError(f"metric set drifted from spec.py: {sorted(set(metrics) ^ set(expected))}")
    for problem in doc["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    table = spec.describe()
    return {
        "workload": args.workload,
        "trace": args.trace,
        "environment": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            **doc["blas"],
            "seed": args.seed,
            "seconds": args.seconds,
            "ops_per_run": info.get("ops", info.get("traced_ops")),
        },
        "info": info,
        "correct": not doc["problems"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in expected},
    }


def print_result(res: dict) -> None:
    env = res["environment"]
    print(f"# {res['workload']} trace={res['trace']} seed={env['seed']} "
          f"ops={env['ops_per_run']} cpu={env['cpu']!r} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']}")
    info = res["info"]
    if res["trace"]:
        print(f"# traced op {info['traced_op_ms']:.2f} ms, untraced {info['untraced_op_ms']:.2f} ms, "
              f"self-time sum {info['self_sum_ms_per_op']:.2f} ms, "
              f"LAPACK calls/op {info['lapack_calls_per_op']:.1f}")
    else:
        print(f"# {info['ops']} ops of {info['items_per_op']} items, fail_frac "
              f"{info['fail_frac']:.4g}, tail = p{info['tail_percentile']:.1f}; raw wall clock "
              f"(not gated): items_per_s {info['items_per_s']:.6g}, op_p50_ms "
              f"{info['op_p50_ms']:.6g}, op_tail_ms {info['op_tail_ms']:.6g}, probe_p50_ms "
              f"{info['probe_p50_ms']:.4g}")
    for name, m in res["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed", "metrics")}))


def save_result(res: dict) -> None:
    path = OUT / "results" / (f"{res['workload']}.trace{res['trace']}"
                              f".seed{res['environment']['seed']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# compare mode: report only, never gate

def load_results(path: Path) -> dict[tuple[str, str], list[float]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: dict[tuple[str, str], list[float]] = {}
    for f in files:
        doc = json.loads(f.read_text())
        for name, m in doc["metrics"].items():
            values.setdefault((doc["workload"], name), []).append(m["value"])
        for name, _, _ in spec.INFO_METRICS:
            if name in doc["info"]:
                values.setdefault((doc["workload"], name), []).append(doc["info"][name])
    return values


def compare(old_path: Path, new_path: Path) -> None:
    old, new = load_results(old_path), load_results(new_path)
    table = spec.describe()
    print(f"{'workload':14s} {'metric':46s} {'old':>12s} {'new':>12s} {'change':>9s}")
    for key in sorted(set(old) & set(new)):
        a, b = statistics.median(old[key]), statistics.median(new[key])
        change = (b - a) / abs(a) if a else float("nan")
        unit, better = table.get(key[1], ("", None))
        verdict = ""
        if a != b and better is not None:
            verdict = "better" if (b > a) == (better == "higher") else "worse"
        print(f"{key[0]:14s} {key[1]:46s} {a:12.5g} {b:12.5g} {change:+9.1%} {unit} {verdict}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "medqsl" / "__init__.py").is_file():
        print(f"error: no medqsl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = ROOT / "BENCHMARK.json"
    if declared.exists() and json.loads(declared.read_text()) != spec.benchmark_json():
        print("error: BENCHMARK.json differs from perfbench/spec.py; "
              "run with --write-benchmark-json", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            res = run_workload(args)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        save_result(res)
        print_result(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
