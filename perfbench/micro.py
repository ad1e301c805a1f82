"""Per-layer microbenchmarks: direct calls into the public functions.

Sizes follow the package's working set: 8 dims (three qubits), 9 and 27
(two and three qutrits) and 36 (``direct-optimal:6``).  Each figure is
the median over REPEATS timed batches of the per-call time.  They are
reported with the traced run and never gated.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 5
BATCH_SECONDS = 0.02


def _per_call_us(fn, per_item: int = 1) -> float:
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS / 4:
            break
        n *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / (n * per_item))
    return statistics.median(samples) * 1e6


def run() -> dict[str, float]:
    from medqsl import dynamics, hamiltonians, hspec, linalg, qsl, randgen, states

    def lay(*dims):
        return states.SystemLayout(tuple(("ABC"[k], d) for k, d in enumerate(dims)))

    stream = randgen.RngStream(12345, 0)
    herm = {n: randgen.random_hermitian(n, stream) for n in (8, 27, 36)}
    rho8 = randgen.random_density(8, stream)
    l8, l9, l27, l36 = lay(2, 2, 2), lay(3, 3), lay(3, 3, 3), lay(6, 6)
    s8 = states.DensityState(l8, rho8)
    t8 = states.DensityState(l8, randgen.random_density(8, stream))
    s9 = states.DensityState(l9, randgen.random_density(9, stream))
    s27 = states.DensityState(l27, randgen.random_density(27, stream))
    s36 = states.DensityState(l36, randgen.random_density(36, stream))
    cut_ab = states.Bipartition(("A",), ("B",))
    cut_a_bc = states.Bipartition(("A",), ("B", "C"))
    ham_c, _ = hamiltonians.classical_mediator_example()
    grid_u = dynamics.TimeGrid(0.0, 0.1, 1e-3)
    grid_l = dynamics.TimeGrid(0.0, 0.1, 0.1)
    jumps = dynamics.JumpOperatorSet.dephasing(l8, 0.1)
    spec = (
        "system A:2;\nsystem B:2;\nsystem C:2;\n"
        "H = 0.5*X(A)@X(C) + 0.5*Y(B)@Y(C) + 1/sqrt(2)*Z(A)@Z(C);\n"
    )
    n_unitary = len(grid_u.times)
    n_substeps = 100
    return {
        "linalg.hermitian_eig.n8_us": _per_call_us(lambda: linalg.hermitian_eig(herm[8])),
        "linalg.hermitian_eig.n27_us": _per_call_us(lambda: linalg.hermitian_eig(herm[27])),
        "linalg.hermitian_eig.n36_us": _per_call_us(lambda: linalg.hermitian_eig(herm[36])),
        "linalg.sqrtm_psd.n8_us": _per_call_us(lambda: linalg.sqrtm_psd(rho8)),
        "states.DensityState.mixed_n8_us": _per_call_us(lambda: states.DensityState(l8, rho8)),
        "states.partial_trace.n27_us": _per_call_us(lambda: states.partial_trace(s27, ("A", "B"))),
        "states.negativity.n9_us": _per_call_us(lambda: states.negativity(s9, cut_ab)),
        "states.negativity.n36_us": _per_call_us(lambda: states.negativity(s36, cut_ab)),
        "states.uhlmann_fidelity.mixed_n8_us": _per_call_us(lambda: states.uhlmann_fidelity(s8, t8)),
        "states.mutual_information.n8_us": _per_call_us(
            lambda: states.mutual_information(s8, cut_a_bc)),
        "hamiltonians.energy_moments.mixed_n8_us": _per_call_us(
            lambda: hamiltonians.energy_moments(ham_c, s8)),
        "randgen.random_hermitian.n9_us": _per_call_us(
            lambda: randgen.random_hermitian(9, stream)),
        "dynamics.evolve_unitary.mixed_n8_us_per_item": _per_call_us(
            lambda: dynamics.evolve_unitary(ham_c, s8, grid_u), n_unitary),
        "dynamics.evolve_lindblad.n8_us_per_item": _per_call_us(
            lambda: dynamics.evolve_lindblad(ham_c, s8, grid_l, jumps), n_substeps),
        "hspec.parse.n8_us": _per_call_us(lambda: hspec.parse(spec)),
        "qsl.unified_bound.n8_us": _per_call_us(lambda: qsl.unified_bound(s8, t8, ham_c)),
    }

