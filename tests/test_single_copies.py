"""Guards against private copies of library primitives creeping back.

The spectral propagation exp(-iTM) lives in ``linalg.propagate`` alone,
and the sweep kernels build on public library functions rather than on
another module's private helpers.
"""

import ast
import inspect
from pathlib import Path

import medqsl
from medqsl import linalg

SRC = Path(medqsl.__file__).resolve().parent


def test_one_spectral_propagator():
    hits = {path.name: path.read_text().count("exp(-1j") for path in SRC.glob("*.py")}
    assert {name: n for name, n in hits.items() if n} == {"linalg.py": 1}
    assert "exp(-1j" in inspect.getsource(linalg.propagate)


def test_sweep_imports_no_private_names():
    tree = ast.parse((SRC / "sweep.py").read_text())
    private = {alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")}
    assert private <= {"_golden_max"}
