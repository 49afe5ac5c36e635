"""Online mirror-descent learners for quantum state tomography.

The package implements the matrix Soft-Bayes learner for the online quantum
state tomography game, its classical portfolio-selection counterpart, the
stochastic online-to-batch estimator for maximum-likelihood tomography, and
the measurement simulation plus certified batch oracle needed to evaluate
them. See the README for the CLI harness.

A public name is imported from its submodule on first access, so importing
the package, or one submodule, does not load every submodule.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it
_SOURCES = {
    **dict.fromkeys([
        "make_rng", "psd_observation_stream", "random_density", "random_hermitian",
        "random_psd", "rank1_observation_stream", "uniform_returns",
    ], "ensembles"),
    **dict.fromkeys([
        "DomainError", "SolverError", "ValidationError",
        "golden_thompson_gap", "herm_exp", "herm_log", "hermitianize", "hs_inner",
        "spectral", "validate_density", "validate_observation",
    ], "linalg"),
    **dict.fromkeys([
        "ComparatorResult", "OpsTranscript", "best_fixed_portfolio",
        "learning_rate", "ops_regret_bound", "run_ops_game", "soft_bayes_step",
    ], "portfolio"),
    **dict.fromkeys([
        "QsbState", "QstTranscript", "eta_bar", "qsb_init", "qsb_regret_bound",
        "qsb_step", "reverse_jensen_gap", "run_qst_game",
    ], "qsb"),
    **dict.fromkeys([
        "Dataset", "MlResult", "batch_ml_solve",
        "generate_dataset", "ml_objective", "pauli_basis_povms",
        "stationarity_operator", "stochastic_qsb", "validate_dataset",
        "validate_povm",
    ], "tomography"),
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    """Import a public name from its submodule, and keep it here."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
