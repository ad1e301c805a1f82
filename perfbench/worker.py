"""One workload process: set up, run the closed loop, check every op.

Started by ``run.py`` with BLAS pinned to one thread.  Modes:

* ``setup``: import the package, write op 0's inputs, run one untimed
  warm-up op, then report the monotonic time at which a first timed op
  would start, and the reference probe's time right after.
* ``run``: the same set-up, then one op at a time (closed loop, one
  client) until ``--seconds`` of timed wall clock and MIN_OPS ops are done;
  peak RSS is read before any check runs.
* ``trace``: after set-up and the microbenchmarks, TRACE_OPS ops are each
  run untraced and then traced, so the per-layer counts repeat exactly
  for a seed and the pair gives the tracer's overhead.

Checks run after the loop, untimed.  The result goes to ``--result`` as
JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_OPS = 11  # the tail percentile needs ten ops beyond it
TRACE_OPS = 20
HARD_LIMIT_S = 140.0
DRAW_FUNCTIONS = ("haar_pure", "random_density", "random_hermitian",
                  "random_mediated_hamiltonian")
SERIALIZERS = ("dynamics.Trajectory.to_csv", "sweep.SweepReport.save_json",
               "sweep.SweepReport.save_envelope_csv")


def import_package():
    sys.path.insert(0, str(SRC))
    import medqsl

    if Path(medqsl.__file__).resolve().parent != SRC / "medqsl":
        raise ImportError(f"medqsl imported from {medqsl.__file__}, not from {SRC}")
    from medqsl import cli

    return cli


def blas_info() -> dict:
    """numpy and BLAS versions and the BLAS thread count seen by this process."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def probe() -> float:
    """Seconds for a fixed reference kernel that does not touch medqsl.

    Two hundred 8x8 ``eigvalsh`` calls from a Python loop, the same mix of
    interpreter and small LAPACK work as the ops.  Run between ops, it
    measures how fast the host is at that moment.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((8, 8))
    a = a + a.T
    t0 = time.perf_counter()
    for _ in range(200):
        np.linalg.eigvalsh(a)
    return time.perf_counter() - t0


def run_op(cli, argv: list[str]) -> tuple[int | None, float]:
    # main is looked up on every call so that the tracer's wrapper is seen
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - t0


class Session:
    def __init__(self, args):
        self.start = time.monotonic()
        self.cli = import_package()
        import workloads

        self.wl = workloads.all_workloads()[args.workload]
        self.seed = args.seed
        self.out = Path(args.out_dir)
        self.ops: list[dict] = []

    def op(self, label: str, k: int, tracer=None) -> dict:
        op_dir = self.out / f"{label}{k}"
        op_dir.mkdir(parents=True)
        argv = self.wl.argv(op_dir, self.seed + k)
        if tracer is not None:
            tracer.op = k
        rc, seconds = run_op(self.cli, argv)
        if tracer is not None:
            tracer.op = -1
        rec = {"label": label, "k": k, "rc": rc, "s": seconds, "dir": op_dir}
        self.ops.append(rec)
        return rec

    def warm_up(self) -> float:
        self.op("warmup", 0)
        return time.monotonic()

    def timed_loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Op latencies, and the probe times taken before the first op and after each."""
        lat = []
        probes = [probe()]
        k = 0
        while (sum(lat) < seconds or k < MIN_OPS) \
                and time.monotonic() - self.start < HARD_LIMIT_S:
            lat.append(self.op("op", k)["s"])
            probes.append(probe())
            k += 1
        return lat, probes

    def check_all(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over the ops after the warm-up."""
        problems = []
        failed = 0
        for rec in self.ops:
            try:
                found = self.wl.check(rec["dir"], self.seed + rec["k"], rec["rc"])
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                problems += [f"{rec['label']}{rec['k']} (seed {self.seed + rec['k']}): {p}"
                             for p in found]
                failed += rec["label"] != "warmup"
        attempted = sum(rec["label"] != "warmup" for rec in self.ops)
        return attempted, failed, problems

    def useful_ratio(self, label: str) -> float:
        """instances / (instances + redraws) over the ops labelled ``label``."""
        if not hasattr(self.wl, "useful_ratio"):
            return 1.0
        used = tried = 0
        for rec in self.ops:
            if rec["label"] == label and rec["rc"] == 0:
                n, m = self.wl.useful_ratio(rec["dir"])
                used, tried = used + n, tried + m
        return used / tried if tried else 1.0

    def byte_mismatches(self, label_a: str, label_b: str) -> list[str]:
        by_key = {(rec["label"], rec["k"]): rec["dir"] for rec in self.ops}
        out = []
        for (label, k), d in sorted(by_key.items()):
            other = by_key.get((label_b, k))
            if label != label_a or other is None:
                continue
            for name in self.wl.outputs:
                a, b = d / name, other / name
                if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                    out.append(f"op {k}: {name} differs between {label_a} and {label_b}")
        return out


def trace_metrics(session: Session, tracer, untraced: list[float],
                  traced: list[float]) -> tuple[dict, dict]:
    wl = session.wl
    s = tracer.summary()
    n_ops = len(traced)
    items = n_ops * wl.items_per_op
    total_self = s["self_s"] or 1.0  # no spans at all fails the must-hit check
    metrics = {}
    for layer, row in s["layers"].items():
        metrics[f"{layer}.calls_per_item"] = row["calls"] / items
        metrics[f"{layer}.self_ms_per_op"] = row["self_s"] * 1e3 / n_ops
        metrics[f"{layer}.self_share"] = row["self_s"] / total_self
    calls = s["calls"]
    lapack = sum(row["lapack_calls"] for row in s["layers"].values())
    metrics["lapack.eig_per_item"] = lapack / items
    metrics["states.density_states_per_item"] = calls.get("states.DensityState.__init__", 0) / items
    metrics["states.partial_traces_per_item"] = calls.get("states.partial_trace", 0) / items
    metrics["randgen.draws_per_item"] = sum(
        calls.get(f"randgen.{f}", 0) for f in DRAW_FUNCTIONS) / items
    metrics["sweep.useful_ratio"] = session.useful_ratio("traced")
    metrics["dynamics.rk4_substeps_per_item"] = wl.rk4_substeps_per_op / wl.items_per_op
    metrics["cli.serialize_ms_per_op"] = sum(
        s["seconds"].get(name, 0.0) for name in SERIALIZERS) * 1e3 / n_ops
    # each pair ran back to back, so their ratio cancels the host's speed
    metrics["trace.overhead_share"] = 1.0 - statistics.median(
        u / t for u, t in zip(untraced, traced))
    info = {
        "traced_ops": n_ops,
        "spans": s["spans"],
        "lapack_calls_per_op": lapack / n_ops,
        "lapack_calls_by_layer": {k: v["lapack_calls"] for k, v in s["layers"].items()},
        "self_sum_ms_per_op": s["self_s"] * 1e3 / n_ops,
        "traced_op_ms": sum(traced) * 1e3 / n_ops,
        "untraced_op_ms": sum(untraced) * 1e3 / n_ops,
        "calls_per_op": {k: v / n_ops for k, v in sorted(calls.items())},
        "missing": [name for name in wl.must_hit if not calls.get(name)],
    }
    return metrics, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    session = Session(args)
    ready = session.warm_up()
    result: dict = {"ready": ready, "setup_probe_s": statistics.median(probe() for _ in range(3)),
                    "items_per_op": session.wl.items_per_op, "blas": blas_info()}
    if args.mode == "run":
        result["latencies_s"], result["probes_s"] = session.timed_loop(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif args.mode == "trace":
        import micro
        import spec
        from tracer import Tracer

        micro_us = micro.run()
        tracer = Tracer(spec.LAYERS)
        untraced, traced = [], []
        for k in range(TRACE_OPS):
            untraced.append(session.op("untraced", k)["s"])
            tracer.activate()
            try:
                traced.append(session.op("traced", k, tracer)["s"])
            finally:
                tracer.deactivate()
        result["metrics"], result["trace"] = trace_metrics(session, tracer, untraced, traced)
        result["metrics"].update(micro_us)
        result["byte_mismatches"] = (session.byte_mismatches("untraced", "traced")
                                     + session.byte_mismatches("warmup", "traced"))
        if args.spans:
            tracer.save(args.spans)
    if args.mode != "setup":
        result["attempted"], result["failed"], result["problems"] = session.check_all()
    shutil.rmtree(session.out, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
