"""Guards against private copies of library primitives creeping back.

The spectral propagation exp(-iTM) lives in ``linalg.propagate`` alone,
negativity over time goes through ``dynamics.negativity_curve``, and the
sweep kernels build on public library functions rather than on another
module's private helpers.
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


def _propagate_callers(module: str) -> list[str]:
    """The top-level function around each call of ``propagate`` in a module."""
    tree = ast.parse((SRC / module).read_text())
    return sorted(getattr(top, "name", "<module>")
                  for top in tree.body for node in ast.walk(top)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "propagate")


def test_one_negativity_over_time():
    assert _propagate_callers("dynamics.py") == ["evolve_unitary", "negativity_curve"]
    # the smi stage-one state; every negativity curve goes through negativity_curve
    assert _propagate_callers("sweep.py") == ["run_smi_protocol"]
