"""Guards against private copies of library primitives creeping back.

The spectral propagation exp(-iTM) lives in ``linalg.propagate`` alone,
negativity over time goes through ``dynamics.negativity_curve``, the
sweep kernels build on public library functions rather than on another
module's private helpers, every small threshold is named once, in
``tolerances.py``, and used, the stationary-state rule is applied in
one place, a coupling is diagonalized by ``Hamiltonian.eig`` alone, the
open stepper checks each chunk of stepped states with one
``DensityState``, every JSON document is written by ``json_text``, a
sweep's layout is built by ``SweepConfig.layout`` alone, every label list
is turned into axes by ``SystemLayout``, every operator is placed on a
layout by ``embed_operator``, the sweep kernels read the
``SweepConfig`` itself, and a sweep's streams are made, and each drawn
once, in one place, where the randgen samplers draw all of a block's
streams together.  No sweep kernel defines a closure per row, and every
sweep's block size and kept-memory cap are decided in ``_sweep`` alone.
Two layouts are refused by ``SystemLayout.require`` alone, a measure's one
value becomes a float in ``states._value`` alone, and the rate probe
reports dN/dT(0+) in its own units, with no step of a finite difference.
A stack where one state is meant is refused in ``states._single`` alone,
and L takes its leading shape from the product of K and the states it acts
on, so one K acts on any stack of states.
"""

import ast
import inspect
import math
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import medqsl
from medqsl import Bipartition, DensityState, dynamics, hamiltonians, linalg, qsl, states, sweep

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
    # golden section and bisection are while loops; sweep.py has none of them.
    # Both timing probes reach the one refiner: smi's peaks directly, and
    # first-max timing and smi's crossings through the one peak driver
    tree = ast.parse((SRC / "sweep.py").read_text())
    assert not any(isinstance(node, ast.While) for node in ast.walk(tree))
    assert _callers_of("refine_peak") == ["dynamics._first_peak", "qsl._ml_angle",
                                          "sweep._smi_block"]
    assert _callers_of("_first_peak") == ["dynamics.first_crossing",
                                          "dynamics.first_max_entanglement_time"]
    assert _callers_of("first_crossing") == ["sweep._smi_block"]


def _nested_functions(func) -> list[str]:
    """The functions and lambdas that ``func`` defines inside itself."""
    [top] = ast.parse(textwrap.dedent(inspect.getsource(func))).body
    return [getattr(node, "name", "<lambda>") for node in ast.walk(top)
            if node is not top and isinstance(node, (ast.FunctionDef, ast.Lambda))]


def test_kernels_define_no_nested_function():
    # a block kernel works on its stacks, and so does first-max timing: no
    # closure per row, no nested draw; the searches' f is a partial of a
    # module-level function
    kernels = [f for name, f in vars(sweep).items() if name.endswith("_block")]
    assert len(kernels) == 3
    for func in (*kernels, dynamics.first_max_entanglement_time):
        assert _nested_functions(func) == [], func.__name__


def test_every_sweep_sizes_its_blocks_and_cap_in_sweep():
    # each experiment hands _sweep its stack and kept bytes per instance, the stack bytes
    # never a literal block, rate-zero included; _sweep alone reads the block budget and
    # the one kept-memory cap, which trajectories read in _observed
    calls = [node for node in ast.walk(ast.parse((SRC / "sweep.py").read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_sweep"]
    assert len(calls) == 4
    assert not any(isinstance(call.args[2], ast.Constant) for call in calls)
    assert _callers_of("_sweep") == ["sweep.run_cmi_uncorrelated", "sweep.run_commuting_null",
                                     "sweep.run_rate_zero", "sweep.run_smi_protocol"]
    assert _readers_of("BLOCK_BYTES") == ["sweep._sweep"]
    assert _readers_of("MAX_KEPT_BYTES") == ["dynamics._observed", "dynamics._observed",
                                             "sweep._sweep", "sweep._sweep", "sweep._sweep"]


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


def test_every_tolerance_is_used():
    # a threshold whose last user is deleted goes with it
    tree = ast.parse((SRC / "tolerances.py").read_text())
    named = {target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets}
    imported = {alias.name
                for path in SRC.glob("*.py") if path.name != "tolerances.py"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "tolerances"
                for alias in node.names}
    assert len(named) > 10
    assert named - imported == set()


def test_one_stationary_rule():
    # the scale k = 1 / min{mean, std} and the refusal of a stationary state
    # live in EnergyMoments.scale; every other module goes through it
    users = {path.name
             for path in SRC.glob("*.py") if path.name != "tolerances.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "tolerances"
             for alias in node.names if alias.name == "STATIONARY_TOL"}
    assert users == {"hamiltonians.py"}
    assert "STATIONARY_TOL" in inspect.getsource(hamiltonians.EnergyMoments.scale)


def _scopes_of(hit) -> list[str]:
    """``module.Scope.function`` around each node of ``src/`` for which ``hit`` holds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), [path.stem])
    return sorted(found)


def _callers_of(name: str) -> list[str]:
    """``module.Scope.function`` around each call of ``name`` in ``src/``."""
    return _scopes_of(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def _readers_of(name: str) -> list[str]:
    """``module.Scope.function`` around each read of the global ``name`` in ``src/``."""
    return _scopes_of(lambda node: isinstance(node, ast.Name) and node.id == name
                      and isinstance(node.ctx, ast.Load))


def test_one_negativity_over_time():
    # the smi stage-one state; every negativity curve goes through negativity_curve
    assert _callers_of("propagate") == ["dynamics.evolve_unitary",
                                        "dynamics.negativity_curve",
                                        "sweep.run_smi_protocol"]


def test_one_sweep_layout():
    # the A:d, B:d, C:d_c layout of a sweep is built by SweepConfig.layout
    # alone; the kernels read it from there or from their Hamiltonians
    assert [c for c in _callers_of("SystemLayout") if c.startswith("sweep.")] == [
        "sweep.SweepConfig.layout"]


def test_one_label_resolver():
    # labels become axis positions in SystemLayout alone: every other
    # module goes through positions, axes_first or restricted
    assert _callers_of("position") == ["states.SystemLayout.dim_of",
                                       "states.SystemLayout.positions"]
    assert _callers_of("axes_first") == ["dynamics._cut_plan",
                                         "states.is_classically_correlated_on"]


def test_one_operator_embedding():
    # an operator is padded by the identity on a layout's other labels in
    # states.embed_operator alone, hspec terms and jumps included: outside
    # states an identity is a one-subsystem operator (hspec's I and P,
    # hamiltonians.ID2) or expm's, and no Kronecker product takes one
    assert [c for c in _callers_of("eye") if not c.startswith("states.")] == [
        "hamiltonians", "hspec", "hspec", "linalg.expm", "linalg.expm"]
    assert _callers_of("kron") == [] and _callers_of("identity") == []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "kron_stack":
                names = {getattr(n, "id", getattr(n, "attr", None))
                         for arg in node.args for n in ast.walk(arg)}
                assert not names & {"eye", "ID2"}, (path.name, node.lineno)
    assert {"dynamics.JumpOperatorSet.embedded", "hspec.build"} <= set(
        _callers_of("embed_operator"))


def test_sweep_kernels_take_the_config():
    # every experiment runs one block kernel kernel(cfg, sids, *, setup...): it
    # reads the SweepConfig itself, never a dict of settings copied out of it
    kernels = {name: f for name, f in vars(sweep).items()
               if name.startswith("_") and name.endswith(("_instance", "_block", "_each"))}
    assert sorted(kernels) == ["_curve_block", "_rate_block", "_smi_block"]
    param = inspect.Parameter
    for name, kernel in kernels.items():
        params = list(inspect.signature(kernel).parameters.values())
        assert [(p.name, p.kind, p.annotation) for p in params[:2]] == [
            ("cfg", param.POSITIONAL_OR_KEYWORD, "SweepConfig"),
            ("sids", param.POSITIONAL_OR_KEYWORD, "range")], name
        assert params[2:] and all(p.kind is param.KEYWORD_ONLY for p in params[2:]), name
        assert all("dict" not in str(p.annotation) for p in params), name
    setup = list(inspect.signature(sweep._sweep).parameters.values())[-1]
    assert setup.kind is param.VAR_KEYWORD


def test_curve_sweeps_share_one_kernel():
    # cmi-uncorrelated and commuting-null differ only in the draw they pass the
    # one curve kernel, each a module-level function, which pickles for the pool
    draws = {kw.value.id for node in ast.walk(ast.parse((SRC / "sweep.py").read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_sweep"
             and node.args[1].id == "_curve_block" for kw in node.keywords if kw.arg == "draw"}
    assert draws == {"_cmi_draw", "_commuting_draw"}


def _loops(tree) -> list:
    """The iterated expression of each ``for`` and comprehension in ``tree``."""
    return [node.iter for node in ast.walk(tree) if isinstance(node, (ast.For, ast.comprehension))]


def test_one_draw_per_stream():
    # the streams of a block are made, and each drawn once, in
    # _normalized_draws alone: no kernel makes a stream of its own
    assert _callers_of("RngStream") == ["sweep._normalized_draws"]
    assert _callers_of("_normalized_draws") == [
        "sweep._curve_block", "sweep._rate_block", "sweep._smi_block"]
    # draws come in blocks: a stream's normals are read in randgen alone, whose
    # samplers take a block's streams, and randgen._stacked is its one loop over them
    readers = {path.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("normals", "complex_normals")}
    assert readers == {"randgen.py"}
    randgen = ast.parse((SRC / "randgen.py").read_text())
    assert [f.name for f in ast.walk(randgen)
            if isinstance(f, ast.FunctionDef) and _loops(f)] == ["_stacked"]
    # and no sweep function loops over a block's streams, or zips or maps them
    draws = {name: f for name, f in vars(sweep).items() if name.endswith("_draw")}
    assert sorted(draws) == ["_cmi_draw", "_commuting_draw", "_rate_draw", "_smi_draw"]
    assert all("streams" in inspect.signature(f).parameters for f in draws.values())
    tree = ast.parse((SRC / "sweep.py").read_text())
    iterated = _loops(tree) + [arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                               and getattr(node.func, "id", None) in ("zip", "map", "enumerate")
                               for arg in node.args]
    assert not [node.lineno for expr in iterated for node in ast.walk(expr)
                if isinstance(node, ast.Name) and node.id in ("stream", "streams")]


def test_one_json_text():
    # the JSON byte format (indent 2, sorted keys, final newline) is decided
    # in states.json_text and its walker alone, which leaves only strings to
    # json; every file and stdout document goes through it
    assert _callers_of("dumps") == ["states._json_value"]
    assert set(_callers_of("_json_value")) == {"states._json_value", "states.json_text"}
    assert _callers_of("dump") == []
    assert _callers_of("json_text") == ["cli._cmd_bound", "cli._cmd_parse", "cli._write_manifest",
                                        "states.save_state", "sweep.SweepReport.save_json"]


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


def _numpy_linalg_uses(module: str) -> list[int]:
    """Lines of ``module`` that reach numpy's linalg: ``np.linalg``, or an import from numpy."""
    return [node.lineno for node in ast.walk(ast.parse((SRC / module).read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "linalg"
            or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")]


def _counting_eig(monkeypatch) -> list:
    """The matrices ``np.linalg.eigh`` is called on from ``Hamiltonian.eig``."""
    calls, eigh, eig = [], np.linalg.eigh, hamiltonians.Hamiltonian.eig.func.__code__

    def counting(m, *args, **kwargs):
        if sys._getframe(1).f_code is eig:
            calls.append(m)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_one_layout_refusal():
    # two layouts are compared, and a mismatch refused naming both by labels and
    # dims, in SystemLayout.require alone: the library's checks and the CLI's
    # state files call it
    raised = _scopes_of(lambda node: isinstance(node, ast.Raise) and "LayoutMismatchError" in
                        {getattr(n, "id", None) for n in ast.walk(node)})
    assert raised == ["states.SystemLayout.require"]
    assert _callers_of("require") == ["cli._resolve_state", "dynamics._check_layouts",
                                      "dynamics._observed", "hamiltonians.energy_moments",
                                      "states.uhlmann_fidelity"]


def test_one_float_or_stack_rule():
    # a measure's values are a float exactly when they are 0-d, and states._value
    # alone decides it: in states and hamiltonians no other function calls min()
    # or turns a value into a float but to write a JSON pair or a bool verdict,
    # and every measure, the energy moments and the rate probe return through it
    in_measures = ("states.", "hamiltonians.")
    assert [c for c in _callers_of("float") if c.startswith(in_measures)] == [
        "states._complex_pairs", "states._complex_pairs", "states._value",
        "states.is_classically_correlated_on"]
    assert [c for c in _callers_of("min") if c.startswith(in_measures)] == []
    assert _callers_of("_value") == [
        "dynamics.entanglement_change_at_zero", "hamiltonians.EnergyMoments.smaller",
        "hamiltonians.energy_moments_array", "hamiltonians.energy_moments_array",
        "states.negativity", "states.purity", "states.uhlmann_fidelity",
        "states.von_neumann_entropy"]


def test_one_stack_refusal():
    # a stack where one state is meant is refused, naming the argument, in
    # states._single alone: no other function spells "stack of ... states" in
    # what it raises, and each one-state entry point calls it
    def spells_refusal(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and "stack of" in str(n.value) for n in ast.walk(node))

    assert _scopes_of(spells_refusal) == ["states._single"]
    assert _callers_of("_single") == ["dynamics._observed",
                                      "dynamics.first_max_entanglement_time",
                                      "qsl.unified_bound",
                                      "states.is_classically_correlated_on"]
    assert "ndim" not in inspect.getsource(states.is_classically_correlated_on)


def test_l_reads_its_lead_from_the_product():
    # act(r) reshapes by the leading shape of K r, the broadcast of K's and the
    # states' leading axes: it reads no shape, and no name, of K
    [act] = [node for node in ast.walk(ast.parse(inspect.getsource(dynamics._l_action)))
             if isinstance(node, ast.FunctionDef) and node.name == "act"]
    read = {n.id for n in ast.walk(act) if isinstance(n, ast.Name)}
    assert read.isdisjoint({"k", "lead"}) and {"factors", "r"} <= read


def test_rate_in_its_own_units():
    # the rate probe is exact, so no finite-difference step scales what it reports
    assert [path.name for path in SRC.glob("*.py") if "RATE_DELTA" in path.read_text()] == []


def test_one_spectrum_per_hamiltonian(monkeypatch):
    # sweep and dynamics make no eigensolve of their own, Hamiltonian.eig
    # holds the package's one coupling eigensolve, and every library call on
    # one Hamiltonian shares the spectrum it keeps
    assert _numpy_linalg_uses("sweep.py") == [] and _numpy_linalg_uses("dynamics.py") == []
    assert _callers_of("eigh") == ["hamiltonians.Hamiltonian.eig", "linalg.hermitian_eig",
                                   "states.negativity_rate", "states.uhlmann_fidelity"]
    assert _callers_of("hermitian_eig") == ["linalg.sqrtm_psd"]
    calls = _counting_eig(monkeypatch)
    h, s0 = hamiltonians.cmi_product_example()
    p = Bipartition.parse("A:B")
    dynamics.evolve_unitary(h, s0, dynamics.TimeGrid(0.0, 0.5, 0.01))
    hamiltonians.energy_moments(h, s0)
    assert dynamics.first_max_entanglement_time(h, s0, p) == pytest.approx(math.pi / 2, abs=1e-6)
    dynamics.entanglement_change_at_zero(h, s0, p)
    qsl.unified_bound(s0, DensityState.basis(h.layout, (1, 1, 0)), h)
    assert len(calls) == 1 and calls[0] is h.matrix


def test_scaled_keeps_the_spectrum(monkeypatch):
    # k >= 0 carries (k w, v) over; a negative k would reverse the order,
    # so that coupling is diagonalized afresh
    h = hamiltonians.cmi_product_example()[0]
    calls = _counting_eig(monkeypatch)
    w, v = h.eig
    for k in (0.0, 2.5):
        kw, kv = h.scaled(k).eig
        assert kw.tolist() == (k * w).tolist() and kv is v
        assert not kw.flags.writeable
    assert len(calls) == 1
    neg = h.scaled(-2.0).eig[0]
    assert len(calls) == 2 and (neg[1:] >= neg[:-1]).all()
    # nothing kept yet, so nothing is carried and nothing solved
    assert "eig" not in hamiltonians.Hamiltonian(h.layout, h.matrix).scaled(2.0).__dict__
    assert len(calls) == 2


def test_one_spectrum_per_rate_instance(monkeypatch):
    # each drawn coupling is diagonalized once, for the scale check (10 draws
    # in one block, one stacked eigensolve); the rate probes apply the
    # couplings themselves, so neither they nor the direct control need one.
    # A block checks no state: its products of two drawn states are valid
    # by construction
    calls, checked = _counting_eig(monkeypatch), []
    init = DensityState.__init__

    def counting(self, *args, **kwargs):
        checked.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DensityState, "__init__", counting)
    sweep.run_sweep(sweep.SweepConfig("rate-zero", n_instances=10, seed=7))
    assert [m.shape for m in calls] == [(10, 8, 8)]
    assert checked == []


def test_one_check_per_stepped_chunk(monkeypatch):
    # the open stepper validates each chunk of up to PROPAGATE_CHUNK states
    # through one DensityState, which alone keeps the spectrum it checked
    assert "spectrum" not in inspect.signature(DensityState._trusted).parameters
    h, s0 = hamiltonians.open_system_example()
    jumps = dynamics.JumpOperatorSet.local(h.layout, "dephasing", 0.1)
    grid = dynamics.TimeGrid(0.0, 0.5, 1e-3)
    calls = []
    init = DensityState.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DensityState, "__init__", counting)
    stacks = dynamics._open_stacks(h, s0, jumps, grid)
    assert len(grid) == 501 and len(calls) == 2
    assert [len(s.matrix) for s in stacks] == [256, 245]
    assert all(s.spectrum.shape == (len(s.matrix), 8) for s in stacks)
