"""Output checks: independent dense references and recorded sweep digests.

Nothing here calls into ``medqsl``; the references are rebuilt from
Pauli matrices so that a wrong answer in the package cannot also hide in
its own check.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN_TOL = 1e-12
NEG_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron3(a, b, c) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


# cmi-classical: (Z_A Z_C + Z_B Z_C) / 2 on qubits ordered A, B, C
H_CLASSICAL = 0.5 * (kron3(Z, I2, Z) + kron3(I2, Z, Z))
# the benchmark's own open-system spec, perfbench/data/open3.hspec
H_OPEN = 0.5 * kron3(X, I2, X) + 0.5 * kron3(I2, Y, Y) + 0.3 * kron3(Z, I2, Z)
DEPHASING = [math.sqrt(0.1) * op for op in
             (kron3(Z, I2, I2), kron3(I2, Z, I2), kron3(I2, I2, Z))]


def read_state(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    return np.array([[complex(re, im) for re, im in row] for row in doc["density"]])


def read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, k] for k, name in enumerate(header)}


def observables(rhos: np.ndarray, h: np.ndarray) -> dict[str, np.ndarray]:
    """A:B negativity, AB purity and mean energy of a (T, 8, 8) state stack."""
    rab = np.einsum("tacbc->tab", rhos.reshape(-1, 4, 2, 4, 2))
    pt = rab.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    w = np.linalg.eigvalsh(pt)
    return {
        "negativity": -np.where(w < -NEG_TOL, w, 0.0).sum(axis=1),
        "purity_marginal": np.einsum("tij,tij->t", rab, rab.conj()).real,
        "mean_energy": np.einsum("ij,tji->t", h, rhos).real - np.linalg.eigvalsh(h)[0],
    }


def unitary_reference(rho0: np.ndarray, times: np.ndarray) -> dict[str, np.ndarray]:
    """Closed evolution under the diagonal H_CLASSICAL, exact at every time."""
    e = np.diag(H_CLASSICAL).real
    phase = np.exp(-1j * np.multiply.outer(times, e))
    rhos = phase[:, :, None] * rho0[None] * phase.conj()[:, None, :]
    return observables(rhos, H_CLASSICAL)


def liouvillian(h: np.ndarray, jumps: list[np.ndarray]) -> np.ndarray:
    """Superoperator on row-stacked density matrices: vec(A X B) = (A kron B^T) vec(X)."""
    n = h.shape[0]
    eye = np.eye(n)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for q in jumps:
        qq = q.conj().T @ q
        out += np.kron(q, q.conj()) - 0.5 * np.kron(qq, eye) - 0.5 * np.kron(eye, qq.T)
    return out


def lindblad_reference(rho0: np.ndarray, times: np.ndarray) -> dict[str, np.ndarray]:
    """Open evolution under H_OPEN with dephasing, by exact exponentials."""
    from scipy.linalg import expm

    gen = liouvillian(H_OPEN, DEPHASING)
    rhos = np.stack([(expm(gen * t) @ rho0.reshape(-1)).reshape(rho0.shape)
                     for t in times])
    return observables(rhos, H_OPEN)


def compare_columns(path: Path, ref: dict[str, np.ndarray], times: np.ndarray,
                    tol: float) -> list[str]:
    cols = read_columns(path)
    if len(cols["T"]) != len(times) or np.abs(cols["T"] - times).max() > 1e-12:
        return [f"time column differs from the requested grid ({len(cols['T'])} rows)"]
    problems = []
    for name, want in ref.items():
        err = float(np.abs(cols[name] - want).max())
        if not err <= tol:
            problems.append(f"{name} differs from the reference by {err:.3e} > {tol:.0e}")
    return problems


# ---------------------------------------------------------------------------
# sweep report digests, recorded at the seed commit

DIGEST_POINTS = 33


def digest(report: dict) -> dict:
    """The values of a sweep report that a faster sweep must not move.

    Long envelopes are sampled at DIGEST_POINTS evenly spaced indices and
    summed, which keeps the recorded files small.
    """
    n = len(report["times"])
    idx = sorted({round(k * (n - 1) / (DIGEST_POINTS - 1)) for k in range(DIGEST_POINTS)})
    return {
        "times": [report["times"][k] for k in idx],
        "envelope": {name: [col[k] for k in idx] for name, col in report["envelope"].items()},
        "envelope_sum": {name: math.fsum(col) for name, col in report["envelope"].items()},
        "extremes": report["extremes"],
        "violations": report["violations"],
        "redraws": report["redraws"],
        "details": report["details"],
    }


def diff(want, got, path: str = "") -> list[str]:
    """Paths where ``got`` differs from ``want`` beyond GOLDEN_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path or '/'}: keys differ"]
        return [p for k in want for p in diff(want[k], got[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: length differs"]
        return [p for k, (a, b) in enumerate(zip(want, got)) for p in diff(a, b, f"{path}/{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return []
        return [] if abs(want - got) <= GOLDEN_TOL else [f"{path}: {got!r} != {want!r}"]
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


def load_goldens(workload: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


def check_golden(goldens: dict, op_seed: int, report: dict) -> list[str]:
    want = goldens.get(str(op_seed))
    if want is None:
        return []
    return [f"differs from the seed-commit digest at {p}" for p in diff(want, digest(report))]
