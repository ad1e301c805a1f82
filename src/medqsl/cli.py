"""Command line front end: evolve, bound, reproduce, parse.

Every file-writing command drops a ``<base>.manifest.json`` next to its
outputs with the resolved configuration, the seed, and versions, enough
to re-run bit-identically.  Stochastic outputs depend only on --seed
(and configuration), never on --workers or MEDQSL_WORKERS.

Exit codes are a stable contract: 0 success, 2 input or validation
error, 3 numeric failure during integration, 4 vacuous bound (the state
is stationary, no finite time rescaling exists).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .dynamics import (
    JumpOperatorSet,
    ObserveConfig,
    TimeGrid,
    evolve_lindblad,
    evolve_unitary,
)
from .errors import (
    MedqslError,
    PositionedError,
    PositivityLostError,
    StationaryStateError,
)
from .hamiltonians import (
    BUILTIN_PAIRS,
    Hamiltonian,
    builtin_pair,
    direct_optimal,
    resource_equality_scale,
)
from .hspec import build, format_ast, parse_file
from .qsl import unified_bound
from .states import (
    Bipartition,
    DensityState,
    SystemLayout,
    load_state,
    maximally_entangled,
)
from .sweep import SweepConfig, run_fig2, run_sweep

__all__ = ["main"]

# each reproduce name: the sweep it runs (None for a trajectory), the
# SweepConfig fields it fixes, and the optional flags it reads (others
# are refused)
REPRODUCE = {
    "fig2": (None, {}, ("d", "tmax", "dt")),
    **dict.fromkeys(BUILTIN_PAIRS, (None, {}, ("tmax", "dt"))),
    "conjecture-d2": ("cmi-uncorrelated", {"d": 2}, ("n", "workers")),
    "conjecture-d3": ("cmi-uncorrelated", {"d": 3}, ("n", "workers")),
    "smi": ("smi-protocol", {}, ("n", "d", "workers")),
    "rate-zero": ("rate-zero", {}, ("n", "d", "workers")),
    "commuting-null": ("commuting-null", {}, ("n", "d", "workers")),
}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_VACUOUS = 4


class CliInputError(Exception):
    """Bad flag combinations or unresolvable references; exits 2."""


# ---------------------------------------------------------------------------
# flag resolution

def _resolve_ham(text: str) -> tuple[Hamiltonian, DensityState | None]:
    if text.startswith("direct-optimal:"):
        try:
            d = int(text.split(":", 1)[1])
        except ValueError:
            raise CliInputError(f"bad dimension in {text!r}") from None
        return direct_optimal(d), None
    if text in BUILTIN_PAIRS:
        return builtin_pair(text)
    if text.endswith(".hspec"):
        return build(parse_file(text)), None
    raise CliInputError(
        f"unknown Hamiltonian {text!r}: expected direct-optimal:<d>, "
        f"one of {sorted(BUILTIN_PAIRS)}, or a .hspec file"
    )


def _resolve_state(text: str | None, layout: SystemLayout,
                   default: DensityState | None) -> DensityState:
    if text is None:
        if default is None:
            raise CliInputError("--state is required for this Hamiltonian")
        return default
    if text == "maxent":
        return maximally_entangled(layout.dims[0], layout)
    if text.startswith("ket:"):
        spec = text[4:]
        digits = spec.split(",") if "," in spec else list(spec)
        try:
            indices = tuple(int(x) for x in digits)
        except ValueError:
            raise CliInputError(f"bad basis-state literal {text!r}") from None
        v = np.zeros(layout.dim)
        v[layout.basis_index(indices)] = 1.0
        return DensityState.from_pure(layout, v)
    s = load_state(text)
    if s.layout != layout:
        raise CliInputError(
            f"state layout {s.layout.subsystems} does not match "
            f"Hamiltonian layout {layout.subsystems}"
        )
    return s


def _resolve_observe(bipartition: str | None, layout: SystemLayout,
                     target: DensityState | None) -> ObserveConfig:
    if bipartition is None:
        return ObserveConfig(ObserveConfig.default_for(layout).cut, target)
    cut = Bipartition.parse(bipartition)
    for lab in cut.side_a + cut.side_b:
        layout.position(lab)
    return ObserveConfig(cut, target)


def _resolve_lindblad(text: str | None, layout: SystemLayout) -> JumpOperatorSet | None:
    """Parse 'TYPE:RATE' (all subsystems) or 'LABEL=TYPE:RATE,...' entries."""
    if text is None:
        return None
    ops: list[tuple[str, np.ndarray]] = []
    for entry in text.split(","):
        entry = entry.strip()
        label, eq, entry = entry.rpartition("=")
        labels = (label,) if eq else None
        try:
            kind, rate_text = entry.split(":", 1)
            rate = float(rate_text)
        except ValueError:
            raise CliInputError(
                f"bad --lindblad entry {entry!r}: expected TYPE:RATE"
            ) from None
        ops.extend(JumpOperatorSet.local(layout, kind, rate, labels).ops)
    return JumpOperatorSet(layout, tuple(ops))


# ---------------------------------------------------------------------------
# manifests

def _write_manifest(base: str, subcommand: str, config: dict, seed: int | None,
                    outputs: list[str], wall_clock_s: float) -> str:
    path = base + ".manifest.json"
    doc = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "versions": {
            "medqsl": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": outputs,
        "wall_clock_s": wall_clock_s,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _strip_ext(path: str) -> str:
    for ext in (".csv", ".json"):
        if path.endswith(ext):
            return path[: -len(ext)]
    return path


# ---------------------------------------------------------------------------
# subcommands

def _cmd_evolve(args) -> int:
    t0 = time.perf_counter()
    ham, default_state = _resolve_ham(args.ham)
    s0 = _resolve_state(args.state, ham.layout, default_state)
    target = None
    if args.target is not None:
        target = _resolve_state(args.target, ham.layout, None)
    observe = _resolve_observe(args.bipartition, ham.layout, target)
    grid = TimeGrid(0.0, args.tmax, args.dt)
    jumps = _resolve_lindblad(args.lindblad, ham.layout)
    if jumps is None:
        traj = evolve_unitary(ham, s0, grid, observe)
    else:
        traj = evolve_lindblad(ham, s0, grid, jumps, observe)
    out = args.out
    traj.to_csv(out)
    config = {
        "ham": args.ham, "state": args.state, "target": args.target,
        "bipartition": args.bipartition, "lindblad": args.lindblad,
        "tmax": args.tmax, "dt": args.dt,
    }
    _write_manifest(_strip_ext(out), "evolve", config, None, [out],
                    time.perf_counter() - t0)
    return EXIT_OK


def _cmd_bound(args) -> int:
    ham, default_state = _resolve_ham(args.ham)
    s0 = _resolve_state(args.state, ham.layout, default_state)
    target = _resolve_state(args.target, ham.layout, None)
    doc_extra = {}
    if args.normalize:
        ham, k = resource_equality_scale(ham, s0)
        doc_extra["normalize_scale"] = k
    report = unified_bound(s0, target, ham)
    doc = report.to_dict()
    doc.update(doc_extra)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    name = args.name
    experiment, fixed, flags = REPRODUCE[name]
    base = _strip_ext(args.out) if args.out else name
    seed = args.seed
    for flag in ("n", "d", "tmax", "dt", "workers"):
        if getattr(args, flag) is not None and flag not in flags:
            raise CliInputError(f"reproduce {name} does not take --{flag}")
    config = {"name": name, "seed": seed, "n": args.n, "d": args.d,
              "tmax": args.tmax, "dt": args.dt, "workers": args.workers}

    if experiment is None:
        tmax = args.tmax if args.tmax is not None else math.pi / 2
        config["dt"] = args.dt if args.dt is not None else 1e-3
        grid = TimeGrid(0.0, tmax, config["dt"])
        if name == "fig2":
            traj = run_fig2(args.d if args.d is not None else 2, grid)
        else:
            traj = evolve_unitary(*builtin_pair(name), grid)
        out = base + ".csv"
        traj.to_csv(out)
        _write_manifest(base, "reproduce", config, seed, [out],
                        time.perf_counter() - t0)
        return EXIT_OK

    given = {"n_instances": args.n, "d": args.d}
    cfg = SweepConfig(experiment, seed=seed, workers=args.workers, **fixed,
                      **{k: v for k, v in given.items() if v is not None})
    report = run_sweep(cfg)
    json_out = base + ".json"
    csv_out = base + ".envelope.csv"
    report.save_json(json_out)
    report.save_envelope_csv(csv_out)
    _write_manifest(base, "reproduce", config, seed, [json_out, csv_out],
                    time.perf_counter() - t0)
    return EXIT_OK


def _cmd_parse(args) -> int:
    ast = parse_file(args.check)
    if args.emit == "canonical":
        print(format_ast(ast), end="")
    elif args.emit == "matrix":
        ham = build(ast)
        doc = {
            "layout": [[lab, dim] for lab, dim in ast.layout.subsystems],
            "matrix": [[[z.real, z.imag] for z in row] for row in ham.matrix],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="medqsl",
        description="Quantum speed limits and mediated entanglement dynamics.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    ev = sub.add_parser("evolve", help="integrate a trajectory and write CSV")
    ev.add_argument("--ham", required=True,
                    help="direct-optimal:<d>, a builtin pair name, or a .hspec file")
    ev.add_argument("--state", help="state JSON file, ket:<indices>, or maxent")
    ev.add_argument("--target", help="fidelity target (same forms as --state)")
    ev.add_argument("--tmax", type=float, required=True)
    ev.add_argument("--dt", type=float, default=1e-3)
    ev.add_argument("--bipartition", help="negativity cut, e.g. A:B or A,B:C")
    ev.add_argument("--lindblad",
                    help="jump spec TYPE:RATE or LABEL=TYPE:RATE[,...]")
    ev.add_argument("--out", default="trajectory.csv")
    ev.set_defaults(func=_cmd_evolve)

    bd = sub.add_parser("bound", help="print the unified speed limit as JSON")
    bd.add_argument("--ham", required=True)
    bd.add_argument("--state", help="initial state (defaults to the builtin pair state)")
    bd.add_argument("--target", required=True)
    bd.add_argument("--normalize", action="store_true",
                    help="rescale to min{mean, std} = 1 first and echo the factor")
    bd.set_defaults(func=_cmd_bound)

    rp = sub.add_parser("reproduce", help="rerun a bundled experiment")
    rp.add_argument("name", choices=tuple(REPRODUCE))
    rp.add_argument("--n", type=int, help="instance count override (sweeps)")
    rp.add_argument("--d", type=int, help="dimension (fig2, smi, rate-zero, commuting-null)")
    rp.add_argument("--seed", type=int, default=7)
    rp.add_argument("--tmax", type=float, help="end time, default pi/2 (trajectories)")
    rp.add_argument("--dt", type=float, help="time step, default 1e-3 (trajectories)")
    rp.add_argument("--workers", type=int,
                    help="worker processes (sweeps; default MEDQSL_WORKERS or 1)")
    rp.add_argument("--out", help="output base path (extension added)")
    rp.set_defaults(func=_cmd_reproduce)

    ps = sub.add_parser("parse", help="validate a .hspec file")
    ps.add_argument("--check", required=True, metavar="FILE")
    ps.add_argument("--emit", choices=("matrix", "canonical"))
    ps.set_defaults(func=_cmd_parse)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PositionedError as e:
        print(f"error: {e.diagnostic()}", file=sys.stderr)
        return EXIT_INPUT
    except PositivityLostError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except StationaryStateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VACUOUS
    except (CliInputError, MedqslError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
