"""Simulation toolkit for syndrome-based quantum process characterization.

The package builds error-detecting stabilizer codes whose syndromes
label Pauli errors on a principal qubit pair, runs measurement settings
against a dense density-matrix engine under amplitude-damping and
depolarizing noise, filters shots flagged by the ancilla detectors, and
reconstructs the process matrix of the unknown channel directly from
syndrome statistics.
"""

from .analysis import channel_fidelity_vs_theory, failure_oracle, failure_rate_experiment
from .channels import theoretical_chi_ad
from .codes import build_s0, build_s1
from .config import ConfigError, ExperimentConfig
from .process_matrix import ProcessMatrix
from .protocol import characterize

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "characterize",
    "channel_fidelity_vs_theory",
    "failure_rate_experiment",
    "failure_oracle",
    "build_s0",
    "build_s1",
    "theoretical_chi_ad",
    "ProcessMatrix",
    "__version__",
]

__version__ = "0.1.0"
