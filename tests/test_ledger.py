"""The seeded ledger: committed reports of named command lines, recomputed.

Each entry of ``data/ledger/index.json`` names a ``medqsl`` command line and
the report JSON it wrote; a ``.hspec`` file the command names is read from
``data/ledger``.  The test runs each command in process and compares its
report with the committed one: floats within ``FLOAT_TOL``, as the
benchmark's golden digests compare them, and every key set, length and other
value exactly.  A trajectory CSV (``reproduce`` of a trajectory, ``evolve``)
is kept as its row count and each column's ``math.fsum``, min and max, with
the row of the max only where the max stands clear of every other entry by
more than ``FLOAT_TOL``, so that no digest pins a roundoff tie.  Two rules
hold for smi reports alone:

- their ~2,050-row envelopes are kept as ``DIGEST_ROWS`` evenly spaced rows
  of ``times`` and of each envelope column, plus each column's ``math.fsum``
  under ``column_fsum``, the benchmark's digest form;
- their refined times (``extremes.*.T``, ``details.best_stage2_time``) are
  compared within ``REFINED_TOL``: golden section fixes them only to about
  1e-8, and a peak or crossing on the root of dN/dT would pin them tighter.

A change that moves an output regenerates the ledger with

    PYTHONPATH=src python tests/test_ledger.py --write

which rewrites only the entries whose comparison fails, and records the
seeded diff of what moved.
"""

import csv
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from medqsl import sweep
from medqsl.cli import main
from medqsl.linalg import kron_stack, sqrtm_psd
from medqsl.randgen import haar_pure, random_density, random_mediated_hamiltonian

LEDGER = Path(__file__).parent / "data" / "ledger"
FLOAT_TOL = 1e-12
DIGESTED = "smi-protocol"
DIGEST_ROWS = 33
REFINED_TOL = 1e-7
REFINED = re.compile(r"/extremes/[^/]+/T|/details/best_stage2_time")


def _entries() -> list[dict]:
    return json.loads((LEDGER / "index.json").read_text())


def _csv_digest(path: Path) -> dict:
    """A trajectory CSV as it is stored: its row count and each column's digest."""
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    columns = {}
    for name, text in zip(header, zip(*rows)):
        col = [float(v) for v in text]
        top = max(col)
        columns[name] = {"fsum": math.fsum(col), "min": min(col), "max": top}
        k = col.index(top)
        if all(top - v > FLOAT_TOL for v in col[:k] + col[k + 1:]):
            columns[name]["argmax"] = k
    return {"rows": len(rows), "columns": columns}


def _run(command: str, out: Path, ledger: Path = LEDGER) -> dict:
    """Run ``command`` (``medqsl ...``), its ``.hspec`` files read from ``ledger``,
    writing to ``out``; its report as stored."""
    prog, *argv = command.split()
    assert prog == "medqsl"
    argv = [str(ledger / a) if a.endswith(".hspec") else a for a in argv]
    csv_out, json_out = out.with_suffix(".csv"), out.with_suffix(".json")
    assert main(argv + ["--out", str(csv_out)]) == 0
    if not json_out.exists():  # a trajectory
        return _csv_digest(csv_out)
    report = json.loads(json_out.read_text())
    if report["config"]["experiment"] != DIGESTED:
        return report
    n = len(report["times"])
    rows = sorted({round(k * (n - 1) / (DIGEST_ROWS - 1)) for k in range(DIGEST_ROWS)})
    columns = {"T": report["times"], **report["envelope"]}
    report["column_fsum"] = {name: math.fsum(col) for name, col in columns.items()}
    report["times"] = [report["times"][k] for k in rows]
    report["envelope"] = {name: [col[k] for k in rows] for name, col in report["envelope"].items()}
    return report


def _diff(want, got, path: str = "", refined: bool = False) -> list[str]:
    """The paths where ``got`` differs from ``want``; with ``refined``, the
    ``REFINED`` paths compare within ``REFINED_TOL``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path or '/'}: keys differ"]
        return [p for k in want for p in _diff(want[k], got[k], f"{path}/{k}", refined)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: length differs"]
        return [p for k, (a, b) in enumerate(zip(want, got))
                for p in _diff(a, b, f"{path}/{k}", refined)]
    if isinstance(want, float) and isinstance(got, (int, float)):
        tol = REFINED_TOL if refined and REFINED.fullmatch(path) else FLOAT_TOL
        if math.isnan(want) and math.isnan(got) or abs(want - got) <= tol:
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def _compare(want: dict, got: dict) -> list[str]:
    """``_diff`` of two reports, by the ledger's rule for ``want``'s experiment."""
    return _diff(want, got, refined=want.get("config", {}).get("experiment") == DIGESTED)


def _ledger_diff(entry: dict, out: Path) -> list[str]:
    """Where the report of ``entry``'s command, rerun, differs from the committed one."""
    return _compare(json.loads((LEDGER / entry["report"]).read_text()),
                    _run(entry["command"], out))


def _write(ledger: Path = LEDGER) -> list[str]:
    """Rewrite each report of ``ledger`` whose rerun fails its comparison; their names."""
    written = []
    with tempfile.TemporaryDirectory() as scratch:
        for k, entry in enumerate(json.loads((ledger / "index.json").read_text())):
            path = ledger / entry["report"]
            got = _run(entry["command"], Path(scratch) / f"out{k}", ledger)
            if _compare(json.loads(path.read_text()), got):
                path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
                written.append(entry["report"])
    return written


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: e["command"])
def test_ledger_entry_recomputes(tmp_path, entry):
    assert _ledger_diff(entry, tmp_path / "out") == []


def test_diff_sees_planted_changes():
    want = {"a": [1.0, 2], "b": {"c": None}}
    assert _diff(want, {"a": [1.0 + 1e-13, 2], "b": {"c": None}}) == []
    assert _diff(want, {"a": [1.0 + 1e-11, 2], "b": {"c": None}}) == [
        "/a/0: 1.00000000001 != 1.0"]
    assert _diff(want, {"a": [1.0, 3], "b": {"c": None}}) == ["/a/1: 3 != 2"]
    assert _diff(want, {"a": [1.0, 2], "b": {"d": None}}) == ["/b: keys differ"]
    assert _diff(want, {"a": [1.0], "b": {"c": None}}) == ["/a: length differs"]
    # a refined time compares within REFINED_TOL, and nothing else does
    times = {"extremes": {"peak": {"T": 1.0, "value": 0.5}}, "details": {"best_stage2_time": 2.0}}
    moved = {"extremes": {"peak": {"T": 1.0 + 1e-8, "value": 0.5}},
             "details": {"best_stage2_time": 2.0 - 1e-8}}
    assert _diff(times, moved, refined=True) == []
    assert len(_diff(times, moved)) == 2
    moved["extremes"]["peak"]["value"] = 0.5 + 1e-11
    assert _diff(times, moved, refined=True) == [
        "/extremes/peak/value: 0.50000000001 != 0.5"]


def _scaled_negativity(monkeypatch):
    """Every sweep curve of N times 1 + 1e-9."""
    curve = sweep.negativity_curve
    monkeypatch.setattr(sweep, "negativity_curve", lambda *args: (1 + 1e-9) * curve(*args))


def _p99_weights_flipped(monkeypatch):
    """``_p99`` interpolating from the other end of its bracket: a + (b - a)(1 - t)."""
    def p99(matrix):
        ranked = np.sort(matrix, axis=0)
        at = 0.99 * (len(ranked) - 1)
        lo = math.floor(at)
        a, b = ranked[lo], ranked[min(lo + 1, len(ranked) - 1)]
        return a + (b - a) * (1 - (at - lo))

    monkeypatch.setattr(sweep, "_p99", p99)


def _b_drawn_before_a(monkeypatch):
    """The cmi draw taking its B state from each stream before its A state."""
    def draw(cfg, streams):
        d, dc = cfg.d, cfg.d_c
        b, a, rho_c = haar_pure(d, streams), haar_pure(d, streams), random_density(dc, streams)
        h = random_mediated_hamiltonian(d, d, dc, streams)
        return h, kron_stack(kron_stack(a[:, :, None], b[:, :, None]), sqrtm_psd(rho_c))

    monkeypatch.setattr(sweep, "_cmi_draw", draw)


@pytest.mark.parametrize("plant", [_scaled_negativity, _p99_weights_flipped, _b_drawn_before_a])
def test_planted_change_fails_the_ledger(tmp_path, monkeypatch, plant):
    [entry] = [e for e in _entries()
               if e["command"] == "medqsl reproduce conjecture-d2 --n 60 --seed 7 --workers 1"]
    plant(monkeypatch)
    assert _ledger_diff(entry, tmp_path / "out") != []


def test_rate_zero_report_ignores_closed_roundoff(tmp_path, monkeypatch):
    # the closed probe of a product start reads roundoff (some 1e-16 as dN/dT);
    # seeded signs of 1e-16 added to it, far below CLOSED_RATE_TOL and FLOAT_TOL, leave
    # the report as it was: no field may pick a stream, or anything else, out of them
    probe, rng = sweep.entanglement_change_at_zero, np.random.default_rng(5)

    def planted(h, s0, p, jumps=None):
        change = probe(h, s0, p, jumps)
        if jumps is None:
            change = change + 1e-16 * rng.choice((-1.0, 1.0), np.shape(change))
        return change

    monkeypatch.setattr(sweep, "entanglement_change_at_zero", planted)
    [entry] = [e for e in _entries()
               if e["command"] == "medqsl reproduce rate-zero --n 20 --seed 7 --workers 1"]
    assert _ledger_diff(entry, tmp_path / "out") == []


def test_write_rewrites_only_failing_entries(tmp_path):
    # on a copy of the ledger indexing three entries (a sweep, a trajectory and an
    # evolve that reads its .hspec from the copy), one report perturbed: the write
    # rewrites that report alone, to one that passes again, and leaves every other
    # file of the copy byte-identical
    ledger = tmp_path / "ledger"
    shutil.copytree(LEDGER, ledger)
    chosen = [e for e in _entries() if e["command"] in (
        "medqsl reproduce rate-zero --n 20 --seed 7 --workers 1", "medqsl reproduce cmi-product",
        "medqsl evolve --ham open3.hspec --state ket:000 --lindblad dephasing:0.1 --tmax 0.5 "
        "--dt 0.1")]
    assert len(chosen) == 3
    (ledger / "index.json").write_text(json.dumps(chosen))
    target = ledger / chosen[0]["report"]
    report = json.loads(target.read_text())
    report["envelope"]["mean"][0] += 1e-9
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    before = {path.name: path.read_bytes() for path in ledger.iterdir()}
    assert _write(ledger) == [target.name]
    after = {path.name: path.read_bytes() for path in ledger.iterdir()}
    assert [name for name in before if after[name] != before[name]] == [target.name]
    assert _compare(json.loads((LEDGER / target.name).read_text()),
                    json.loads(after[target.name])) == []


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    print("\n".join(_write()) or "every entry passes")
