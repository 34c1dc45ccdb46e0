"""Random products of stochastic matrices and their distributed-computation
applications: ergodicity-coefficient calculus, finite-horizon stochastic
contraction certificates, asynchronous agreement on periodic networks, and
distributed solving of consistent linear systems."""

__version__ = "0.1.0"

from . import errors
from .agreement import (
    AgreementTrace,
    BernoulliClocks,
    HierarchicalPartition,
    PoissonClocks,
    async_update_matrix,
    hierarchical_partition,
    hierarchical_product,
    hierarchical_sequence,
    hierarchical_word_count,
    simulate_async,
)
from .equations import (
    GraphSequenceModel,
    PartitionedLinearSystem,
    ProjectionSet,
    SolverReport,
    averaging_matrix,
    error_transition,
    initial_estimate,
    initial_state,
    kernel_projection,
    kernel_projections,
    mixed_matrix_norm,
    run_solver,
    smallest_contracting_window,
    step,
    window_connectivity_probability,
)
from .graphs import (
    DirectedGraph,
    compose,
    is_rooted,
    is_strongly_connected,
    roots,
)
from .lyapunov import (
    DecayReport,
    FiniteStepCertificate,
    LyapunovFunction,
    SphereGrid,
    SwitchedSystem,
    certify_contraction,
    expected_lyapunov,
    inf_norm,
    monte_carlo_decay,
)
from .matrices import (
    MatrixClass,
    StochasticMatrix,
    backward_product,
    classify,
    graph_of,
    is_markov,
    is_scrambling,
    is_sia,
    pattern_period,
    same_type,
    scrambling_index,
    spread,
    tau,
    validate,
)
from .products import (
    ProductTrace,
    RateReport,
    default_checkpoints,
    find_scrambling_window,
    fit_empirical_rate,
    simulate_product,
    window_log_rate,
    window_rate_bound,
)
from .sequences import (
    FiniteMatrixSet,
    IIDModel,
    MarkovModulatedModel,
    ScriptedModel,
    min_positive_entry,
    sample,
    stationary_distribution,
    trial_seed,
    window_class_probability,
)

# the public names; the submodules stay reachable as attributes (sp.errors)
__all__ = [
    # agreement
    "AgreementTrace", "BernoulliClocks", "HierarchicalPartition",
    "PoissonClocks", "async_update_matrix", "hierarchical_partition",
    "hierarchical_product", "hierarchical_sequence", "hierarchical_word_count",
    "simulate_async",
    # equations
    "GraphSequenceModel", "PartitionedLinearSystem", "ProjectionSet",
    "SolverReport", "averaging_matrix", "error_transition", "initial_estimate",
    "initial_state", "kernel_projection", "kernel_projections",
    "mixed_matrix_norm", "run_solver", "smallest_contracting_window", "step",
    "window_connectivity_probability",
    # graphs
    "DirectedGraph", "compose", "is_rooted", "is_strongly_connected", "roots",
    # lyapunov
    "DecayReport", "FiniteStepCertificate", "LyapunovFunction", "SphereGrid",
    "SwitchedSystem", "certify_contraction", "expected_lyapunov", "inf_norm",
    "monte_carlo_decay",
    # matrices
    "MatrixClass", "StochasticMatrix", "backward_product", "classify",
    "graph_of", "is_markov", "is_scrambling", "is_sia", "pattern_period",
    "same_type", "scrambling_index", "spread", "tau", "validate",
    # products
    "ProductTrace", "RateReport", "default_checkpoints",
    "find_scrambling_window", "fit_empirical_rate", "simulate_product",
    "window_log_rate", "window_rate_bound",
    # sequences
    "FiniteMatrixSet", "IIDModel", "MarkovModulatedModel", "ScriptedModel",
    "min_positive_entry", "sample", "stationary_distribution", "trial_seed",
    "window_class_probability",
]
