"""Quantum speed limits and entanglement dynamics through mediators.

The package is organized bottom-up: layouts and states, Hamiltonians in
dimensionless units, closed and open evolution, the unified speed limit,
counter-based random ensembles, Monte-Carlo experiment sweeps, a small
plain-text Hamiltonian grammar, and a CLI tying it together.

``import medqsl`` loads no module of the package: each name below is
imported from its module when it is first read (PEP 562), so a program
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each re-exported name and the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ArgOutOfRangeError", "BadDimensionError", "DimensionMismatchError",
        "FullOrEmptySetError", "HSpecSyntaxError", "LayoutMismatchError", "MedqslError",
        "NotHermitianError", "NotPSDError", "PartitionMismatchError", "PauliOnQuditError",
        "PositionedError", "PositivityLostError", "StationaryStateError", "UnknownLabelError",
    ), "errors"),
    **dict.fromkeys((
        "Bipartition", "DensityState", "SystemLayout", "bures_angle", "embed_operator",
        "is_classically_correlated_on", "load_state", "maximally_entangled",
        "mutual_information", "negativity", "partial_trace", "purity", "save_state",
        "uhlmann_fidelity", "von_neumann_entropy",
    ), "states"),
    **dict.fromkeys((
        "BUILTIN_PAIRS", "EnergyMoments", "Hamiltonian", "builtin_pair",
        "classical_mediator_example", "cmi_product_example", "commuting_mediated",
        "direct_optimal", "energy_moments", "entangled_mediator_example", "generalized_x",
        "generalized_y", "open_system_example",
    ), "hamiltonians"),
    **dict.fromkeys((
        "JumpOperatorSet", "TimeGrid", "Trajectory", "entanglement_change_at_zero",
        "evolve_lindblad", "evolve_unitary", "first_max_entanglement_time", "negativity_curve",
    ), "dynamics"),
    **dict.fromkeys((
        "BoundReport", "conjecture_bound", "di_bound", "smi_bound", "swap_stage_fidelity",
        "unified_bound",
    ), "qsl"),
    **dict.fromkeys((
        "RngStream", "haar_pure", "random_density", "random_hermitian",
        "random_mediated_hamiltonian",
    ), "randgen"),
    **dict.fromkeys((
        "EXPERIMENTS", "SweepConfig", "SweepReport", "run_cmi_uncorrelated",
        "run_commuting_null", "run_fig2", "run_rate_zero", "run_smi_protocol", "run_sweep",
    ), "sweep"),
    **dict.fromkeys((
        "Coefficient", "HSpecAst", "OpRef", "Term", "build", "format_ast", "parse",
        "parse_file",
    ), "hspec"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the module that defines ``name``, and keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
