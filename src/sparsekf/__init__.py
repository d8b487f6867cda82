"""Sparsity-based Kalman filters with a Lorenz-96 twin-experiment harness.

The package root holds the names of the README's quick start and those the
benchmark calls; everything else is imported from its module.
"""

from .filters import FilterState, UkfParams, sparse_ukf_cycle
from .harness import ExperimentConfig, generate_truth, run_experiment
from .models import Lorenz96Model, ObservationOperator
from .sparse_core import SparseSymMatrix, SparsityPattern

__version__ = "0.1.0"
