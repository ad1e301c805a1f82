"""The four workloads: the inputs and argv of one op, its items and its checks.

Op k of a run with seed s uses seed s + k.  The program receives only the
argv and the files written here; every op's output is checked after the
timed loop (untimed), against the references in ``checks``.  Ops take
about 0.1-0.25 s on one core: long enough that per-op fixed costs stay
small, short enough for the probes on either side of an op to see the
same host speed as the op.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks

DATA_DIR = Path(__file__).resolve().parent / "data"
LAYOUT3 = (("A", 2), ("B", 2), ("C", 2))


class Workload:
    name: str
    items_per_op: int
    # files compared byte for byte between traced and untraced runs; the
    # manifest is left out because it records wall-clock time by design
    outputs: tuple[str, ...]
    # functions a traced run must see called, or a missed rebinding would
    # read as zero
    must_hit: tuple[str, ...]
    rk4_substeps_per_op = 0

    def argv(self, op_dir: Path, op_seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, op_dir: Path, op_seed: int, rc) -> list[str]:
        raise NotImplementedError


class SweepWorkload(Workload):
    """One op is one ``reproduce`` sweep; an item is an instance."""

    outputs = ("report.json", "report.envelope.csv")

    def __init__(self, name: str, reproduce: list[str], n: int, must_hit):
        self.name = name
        self.reproduce = reproduce
        self.items_per_op = n
        self.must_hit = tuple(must_hit)
        self.goldens = None

    def argv(self, op_dir, op_seed):
        return ["reproduce", *self.reproduce, "--n", str(self.items_per_op),
                "--seed", str(op_seed), "--workers", "1", "--out", str(op_dir / "report")]

    def check(self, op_dir, op_seed, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads((op_dir / "report.json").read_text())
        problems = []
        if report["violations"]:
            problems.append(f"{len(report['violations'])} violations")
        if report["config"]["n_instances"] != self.items_per_op:
            problems.append("instance count differs from --n")
        problems += self.check_report(report)
        if self.goldens is None:
            self.goldens = checks.load_goldens(self.name)
        problems += checks.check_golden(self.goldens, op_seed, report)
        return problems

    def check_report(self, report: dict) -> list[str]:
        return []

    @staticmethod
    def useful_ratio(op_dir: Path) -> tuple[int, int]:
        """(instances, instances + redraws) of one op's report."""
        report = json.loads((op_dir / "report.json").read_text())
        n = report["config"]["n_instances"]
        return n, n + report["redraws"]


class ConjectureD3(SweepWorkload):
    def __init__(self):
        super().__init__("conjecture-d3", ["conjecture-d3"], 25,
                         ["sweep.run_sweep", "randgen.random_hermitian",
                          "randgen.haar_pure", "states.embed_operator"])

    def check_report(self, report):
        problems = []
        t_end = 2 * math.acos(1 / math.sqrt(3))
        if abs(report["times"][-1] - t_end) > 1e-9:
            problems.append(f"last time {report['times'][-1]!r} is not 2 arccos(1/sqrt 3)")
        if not report["envelope"]["max"][-1] <= 0.9:
            problems.append(f"envelope max at the end {report['envelope']['max'][-1]} > 0.9")
        return problems


class SmiD2(SweepWorkload):
    def __init__(self):
        super().__init__("smi-d2", ["smi", "--d", "2"], 4,
                         ["sweep.run_smi_protocol", "randgen.random_hermitian",
                          "states.embed_operator", "qsl.di_bound"])

    def check_report(self, report):
        problems = []
        for key, want in (("stage1_time", math.pi / 4), ("stage2_bound", math.pi / 3)):
            if abs(report["details"][key] - want) > 1e-12:
                problems.append(f"{key} {report['details'][key]!r} != {want!r}")
        return problems


class EvolveWorkload(Workload):
    """One op is one ``evolve``; an item is a grid point unless overridden."""

    outputs = ("traj.csv",)

    def __init__(self, name, ham, tmax, dt, extra, must_hit, tol):
        self.name = name
        self.ham = ham
        self.tmax = tmax
        self.dt = dt
        self.extra = list(extra)
        self.must_hit = tuple(must_hit)
        self.tol = tol
        self.times = dt * np.arange(int(math.floor(tmax / dt + 1e-9)) + 1)
        self.items_per_op = len(self.times)

    def argv(self, op_dir, op_seed):
        state = op_dir / "state.json"
        write_seeded_state(state, op_seed)
        return ["evolve", "--ham", self.ham, "--state", str(state),
                "--tmax", repr(self.tmax), "--dt", repr(self.dt), *self.extra,
                "--out", str(op_dir / "traj.csv")]

    def check(self, op_dir, op_seed, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        rho0 = checks.read_state(op_dir / "state.json")
        return checks.compare_columns(op_dir / "traj.csv", self.reference(rho0),
                                      self.times, self.tol)

    def reference(self, rho0):
        raise NotImplementedError


class EvolveMixed(EvolveWorkload):
    def __init__(self):
        super().__init__("evolve-mixed", "cmi-classical", 0.1963, 1e-3, [],
                         ["dynamics.evolve_unitary", "states.negativity",
                          "states.partial_trace", "linalg.sqrtm_psd"], 1e-9)

    def reference(self, rho0):
        return checks.unitary_reference(rho0, self.times)


class LindbladOpen(EvolveWorkload):
    """An item is one RK4 substep."""

    def __init__(self):
        super().__init__("lindblad-open", str(DATA_DIR / "open3.hspec"), 0.5, 0.1,
                         ["--lindblad", "dephasing:0.1"],
                         ["dynamics.evolve_lindblad", "hspec.parse_file",
                          "hspec.build", "states.negativity"], 1e-8)
        # substeps per output segment, as dynamics.LINDBLAD_MAX_STEP = 1e-3 gives them
        per_segment = max(1, int(math.ceil(self.dt / 1e-3 - 1e-12)))
        self.rk4_substeps_per_op = per_segment * (len(self.times) - 1)
        self.items_per_op = self.rk4_substeps_per_op

    def reference(self, rho0):
        return checks.lindblad_reference(rho0, self.times)


def write_seeded_state(path: Path, op_seed: int) -> None:
    """A full-rank mixed 3-qubit state, drawn with the package's sampler.

    0.9 of a Haar-random pure state plus 0.1 of a Hilbert-Schmidt random
    density matrix, both from ``RngStream(op_seed, 0)``.  A Hilbert-Schmidt
    state alone has a PPT A:B marginal, so its negativity column would be
    zero throughout and its check would test nothing.
    """
    from medqsl.randgen import RngStream, haar_pure, random_density
    from medqsl.states import DensityState, SystemLayout, save_state

    stream = RngStream(op_seed, 0)
    v = haar_pure(8, stream)
    rho = 0.9 * np.outer(v, v.conj()) + 0.1 * random_density(8, stream)
    save_state(DensityState(SystemLayout(LAYOUT3), rho), path)


def all_workloads() -> dict[str, Workload]:
    return {w.name: w for w in (ConjectureD3(), SmiD2(), EvolveMixed(), LindbladOpen())}
