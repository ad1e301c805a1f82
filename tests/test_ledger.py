"""The seeded ledger: committed reports of named command lines, recomputed.

Each entry of ``data/ledger/index.json`` names a ``medqsl`` command line and
the report JSON it wrote.  The test runs each command in process and compares
its report with the committed one: floats within ``FLOAT_TOL``, as the
benchmark's golden digests compare them, and every key set, length and other
value exactly.  A change that moves an output regenerates the ledger with

    PYTHONPATH=src python tests/test_ledger.py --write

and records the seeded diff of what moved.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from medqsl.cli import main

LEDGER = Path(__file__).parent / "data" / "ledger"
FLOAT_TOL = 1e-12


def _entries() -> list[dict]:
    return json.loads((LEDGER / "index.json").read_text())


def _run(command: str, out: Path) -> Path:
    """Run ``command`` (``medqsl reproduce ...``) writing to ``out``; the report's path."""
    prog, *argv = command.split()
    assert prog == "medqsl"
    assert main(argv + ["--out", str(out)]) == 0
    return out.with_suffix(".json")


def _diff(want, got, path: str = "") -> list[str]:
    """The paths where ``got`` differs from ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path or '/'}: keys differ"]
        return [p for k in want for p in _diff(want[k], got[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: length differs"]
        return [p for k, (a, b) in enumerate(zip(want, got)) for p in _diff(a, b, f"{path}/{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got) or abs(want - got) <= FLOAT_TOL:
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: e["command"])
def test_ledger_entry_recomputes(tmp_path, entry):
    got = json.loads(_run(entry["command"], tmp_path / "out").read_text())
    want = json.loads((LEDGER / entry["report"]).read_text())
    assert _diff(want, got) == []


def test_diff_sees_planted_changes():
    want = {"a": [1.0, 2], "b": {"c": None}}
    assert _diff(want, {"a": [1.0 + 1e-13, 2], "b": {"c": None}}) == []
    assert _diff(want, {"a": [1.0 + 1e-11, 2], "b": {"c": None}}) == [
        "/a/0: 1.00000000001 != 1.0"]
    assert _diff(want, {"a": [1.0, 3], "b": {"c": None}}) == ["/a/1: 3 != 2"]
    assert _diff(want, {"a": [1.0, 2], "b": {"d": None}}) == ["/b: keys differ"]
    assert _diff(want, {"a": [1.0], "b": {"c": None}}) == ["/a: length differs"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    scratch = LEDGER / "tmp"
    scratch.mkdir()
    try:
        for entry in _entries():
            shutil.copyfile(_run(entry["command"], scratch / "out"), LEDGER / entry["report"])
    finally:
        shutil.rmtree(scratch)
