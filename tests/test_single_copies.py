"""Guards against private copies of library primitives creeping back.

The spectral propagation exp(-iTM) lives in ``linalg.propagate`` alone,
negativity over time goes through ``dynamics.negativity_curve``, the
sweep kernels build on public library functions rather than on another
module's private helpers, and every small threshold is named once, in
``tolerances.py``.
"""

import ast
import inspect
from pathlib import Path

import medqsl
from medqsl import dynamics, linalg, sweep

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
    assert private == set()


def test_one_refiner():
    # golden section and bisection are while loops; sweep.py has none of them
    tree = ast.parse((SRC / "sweep.py").read_text())
    assert not any(isinstance(node, ast.While) for node in ast.walk(tree))
    for func in (dynamics.first_max_entanglement_time, sweep._smi_instance):
        assert "refine_peak" in inspect.getsource(func)


def _small_floats(path: Path) -> list[tuple[int, float]]:
    """(line, value) of each float literal with 0 < |x| < 1e-3, docstrings aside."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in docstrings
            and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3]


def test_small_thresholds_live_in_tolerances():
    found = {path.name: _small_floats(path) for path in SRC.glob("*.py")
             if path.name != "tolerances.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert len(_small_floats(SRC / "tolerances.py")) > 10


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


def test_one_jump_builder():
    # a jump kind is named, mapped to a matrix and rate-checked in dynamics
    # alone; sweep names only the default of SweepConfig.jump_type
    named = {}
    for path in SRC.glob("*.py"):
        kinds = {node.value for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and node.value in dynamics.JUMP_KINDS}
        if kinds:
            named[path.name] = kinds
    assert named == {"dynamics.py": set(dynamics.JUMP_KINDS), "sweep.py": {"dephasing"}}
