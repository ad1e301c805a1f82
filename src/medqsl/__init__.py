"""Quantum speed limits and entanglement dynamics through mediators.

The package is organized bottom-up: layouts and states, Hamiltonians in
dimensionless units, closed and open evolution, the unified speed limit,
counter-based random ensembles, Monte-Carlo experiment sweeps, a small
plain-text Hamiltonian grammar, and a CLI tying it together.
"""

from .errors import (
    ArgOutOfRangeError,
    BadDimensionError,
    DimensionMismatchError,
    FullOrEmptySetError,
    HSpecSyntaxError,
    LayoutMismatchError,
    MedqslError,
    NotHermitianError,
    NotPSDError,
    PartitionMismatchError,
    PauliOnQuditError,
    PositionedError,
    PositivityLostError,
    StationaryStateError,
    UnknownLabelError,
)
from .states import (
    Bipartition,
    DensityState,
    SystemLayout,
    bures_angle,
    embed_operator,
    is_classically_correlated_on,
    load_state,
    maximally_entangled,
    mutual_information,
    negativity,
    partial_trace,
    purity,
    save_state,
    uhlmann_fidelity,
    von_neumann_entropy,
)
from .hamiltonians import (
    BUILTIN_PAIRS,
    EnergyMoments,
    Hamiltonian,
    builtin_pair,
    classical_mediator_example,
    cmi_product_example,
    commuting_mediated,
    direct_optimal,
    energy_moments,
    entangled_mediator_example,
    generalized_x,
    generalized_y,
    open_system_example,
)
from .dynamics import (
    JumpOperatorSet,
    TimeGrid,
    Trajectory,
    entanglement_change_at_zero,
    evolve_lindblad,
    evolve_unitary,
    first_max_entanglement_time,
    negativity_curve,
)
from .qsl import (
    BoundReport,
    conjecture_bound,
    di_bound,
    smi_bound,
    swap_stage_fidelity,
    unified_bound,
)
from .randgen import (
    RngStream,
    haar_pure,
    random_density,
    random_hermitian,
    random_mediated_hamiltonian,
)
from .sweep import (
    EXPERIMENTS,
    SweepConfig,
    SweepReport,
    run_cmi_uncorrelated,
    run_commuting_null,
    run_fig2,
    run_rate_zero,
    run_smi_protocol,
    run_sweep,
)
from .hspec import (
    Coefficient,
    HSpecAst,
    OpRef,
    Term,
    build,
    format_ast,
    parse,
    parse_file,
)

__version__ = "0.1.0"
