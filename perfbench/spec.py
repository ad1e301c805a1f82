"""What the benchmark measures: run length, workloads and metric names.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``), and every run
checks that the metrics it prints are exactly the ones declared here.
"""

from __future__ import annotations

RUN_SECONDS = 12
DEFAULT_SEED = 7

# Layers are the package modules, in dependency order.
LAYERS = ("linalg", "states", "hamiltonians", "dynamics", "qsl", "randgen",
          "sweep", "hspec", "cli")

WORKLOAD_WHY = {
    "conjecture-d3": "sweep per-instance path: randgen draws, 2 eigh and a "
                     "65-point negativity curve per instance; target of "
                     "batching across instances",
    "smi-d2": "sweep on 8-dim matrices: ~2082 eigvalsh per instance in a "
              "2051-point scan plus serial refinement; target of batching "
              "over time",
    "evolve-mixed": "observation layer: 13 eigensolves, 4 DensityState "
                    "validations and 3 partial traces per grid point of a "
                    "mixed 3-qubit evolve",
    "lindblad-open": "RK4 Lindblad integrator at 1e-3 substeps with sparse "
                     "output; the only hspec and RK4 path; observation "
                     "changes should not move it",
}

# Probe-normalized timings.  On a shared host other tenants slow the
# whole core for phases of seconds to minutes, by up to ~50%.  Each op is
# therefore followed by a fixed reference kernel (``worker.probe``), and
# an op's normalized latency is its wall time times PROBE_REF_S over the
# mean of the probes on either side: the latency the op would have on a
# core where the probe takes PROBE_REF_S.  setup_s is normalized by the
# probes that follow each set-up.  The raw wall-clock figures are printed
# with every result but not gated.
PROBE_REF_S = 1.67e-3  # probe time on an idle Intel Xeon (family 6 model 207) core

# (name, unit, better, bound)
END_TO_END = (
    ("norm_items_per_s", "1/s", "higher", 0.2),
    ("norm_op_p50_ms", "ms", "lower", 0.2),
    ("norm_op_tail_ms", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better): raw wall-clock figures, printed with every
# untraced result and shown by --compare, not gated
INFO_METRICS = (
    ("items_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("probe_p50_ms", "ms", "lower"),
)

# (name, unit, better); reported from the traced run, never gated
LAYER_COUNTERS = (
    ("lapack.eig_per_item", "count", "lower"),
    ("states.density_states_per_item", "count", "lower"),
    ("states.partial_traces_per_item", "count", "lower"),
    ("randgen.draws_per_item", "count", "lower"),
    ("sweep.useful_ratio", "ratio", "higher"),
    ("dynamics.rk4_substeps_per_item", "count", "lower"),
    ("cli.serialize_ms_per_op", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

MICROBENCHMARKS = (
    "linalg.hermitian_eig.n8_us",
    "linalg.hermitian_eig.n27_us",
    "linalg.hermitian_eig.n36_us",
    "linalg.sqrtm_psd.n8_us",
    "states.DensityState.mixed_n8_us",
    "states.partial_trace.n27_us",
    "states.negativity.n9_us",
    "states.negativity.n36_us",
    "states.uhlmann_fidelity.mixed_n8_us",
    "states.mutual_information.n8_us",
    "hamiltonians.energy_moments.mixed_n8_us",
    "randgen.random_hermitian.n9_us",
    "dynamics.evolve_unitary.mixed_n8_us_per_item",
    "dynamics.evolve_lindblad.n8_us_per_item",
    "hspec.parse.n8_us",
    "qsl.unified_bound.n8_us",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls_per_item", "count", "lower"))
        out.append((f"{layer}.self_ms_per_op", "ms", "lower"))
        out.append((f"{layer}.self_share", "ratio", "lower"))
    out.extend(LAYER_COUNTERS)
    out.extend((name, "us", "lower") for name in MICROBENCHMARKS)
    return out


def describe() -> dict[str, tuple[str, str]]:
    """(unit, better) of every metric the benchmark prints."""
    table = {name: (unit, better) for name, unit, better, _ in END_TO_END}
    table.update((name, (unit, better)) for name, unit, better in INFO_METRICS)
    table.update((name, (unit, better)) for name, unit, better in per_layer_metrics())
    return table


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }
