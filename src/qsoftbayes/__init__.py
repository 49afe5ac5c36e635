"""Online mirror-descent learners for quantum state tomography.

The package implements the matrix Soft-Bayes learner for the online quantum
state tomography game, its classical portfolio-selection counterpart, the
stochastic online-to-batch estimator for maximum-likelihood tomography, and
the measurement simulation plus certified batch oracle needed to evaluate
them. See the README for the CLI harness.
"""

__version__ = "0.1.0"

from .ensembles import (
    make_rng,
    psd_observation_stream,
    random_density,
    random_hermitian,
    random_psd,
    rank1_observation_stream,
    uniform_returns,
)
from .linalg import (
    DomainError,
    ValidationError,
    golden_thompson_gap,
    herm_exp,
    herm_log,
    hermitianize,
    hs_inner,
    spectral,
    validate_density,
    validate_observation,
)
from .portfolio import (
    ComparatorResult,
    OpsTranscript,
    SolverError,
    best_fixed_portfolio,
    learning_rate,
    ops_regret_bound,
    run_ops_game,
    soft_bayes_step,
)
from .qsb import (
    QsbState,
    QstTranscript,
    eta_bar,
    qsb_init,
    qsb_regret_bound,
    qsb_step,
    reverse_jensen_gap,
    run_qst_game,
)
from .tomography import (
    Dataset,
    MlResult,
    batch_ml_solve,
    generate_dataset,
    ml_objective,
    pauli_basis_povms,
    sample_outcome,
    stationarity_operator,
    stochastic_qsb,
    validate_dataset,
    validate_povm,
)

__all__ = [
    "__version__",
    "make_rng", "psd_observation_stream", "random_density", "random_hermitian",
    "random_psd", "rank1_observation_stream", "uniform_returns",
    "DomainError", "ValidationError",
    "golden_thompson_gap", "herm_exp", "herm_log", "hermitianize", "hs_inner",
    "spectral", "validate_density", "validate_observation",
    "ComparatorResult", "OpsTranscript", "SolverError", "best_fixed_portfolio",
    "learning_rate", "ops_regret_bound", "run_ops_game", "soft_bayes_step",
    "QsbState", "QstTranscript", "eta_bar", "qsb_init", "qsb_regret_bound",
    "qsb_step", "reverse_jensen_gap", "run_qst_game",
    "Dataset", "MlResult", "batch_ml_solve",
    "generate_dataset", "ml_objective", "pauli_basis_povms", "sample_outcome",
    "stationarity_operator", "stochastic_qsb", "validate_dataset",
    "validate_povm",
]
