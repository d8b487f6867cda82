"""Workloads of the benchmark, shared by the orchestrator and its child processes.

Every workload is a Lorenz-96 twin experiment with F = 8, dt = 0.025, every
other variable observed and unit observation noise. Each one runs both sparse
filters; a round is one ``run_experiment`` call per filter.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

# Short names used in metric names, mapped to ExperimentConfig.filter.
FILTERS = {"sukf": "sparse_ukf", "pekf": "progressive_ekf"}

COMMON = {"forcing": 8.0, "dt": 0.025, "observed_every": 2, "r_scale": 1.0, "p0": 0.2}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    n_steps: int
    pooled: bool  # replicates run on a pool with one worker per core
    filters: dict  # short filter name -> ExperimentConfig overrides
    rmse_bands: dict = field(default_factory=dict)  # short filter name -> (low, high)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-n40", n=40, n_steps=2000, pooled=True,
            filters={
                "sukf": {"filter": "sparse_ukf", "nsp": 7},
                "pekf": {"filter": "progressive_ekf", "nsp": 11, "n_p": 2},
            },
            # The reference bands of the acceptance suite (criteria 7 and 9).
            rmse_bands={"sukf": (0.26, 0.36), "pekf": (0.3041 - 0.06, 0.3041 + 0.06)},
        ),
        Workload(
            "highdim-n640", n=640, n_steps=20, pooled=False,
            filters={
                "sukf": {"filter": "sparse_ukf", "nsp": 7},
                "pekf": {"filter": "progressive_ekf", "nsp": 7, "n_p": 1},
            },
        ),
        Workload(
            "wideband-n160", n=160, n_steps=400, pooled=False,
            filters={
                "sukf": {"filter": "sparse_ukf", "nsp": 41},
                "pekf": {"filter": "progressive_ekf", "nsp": 41, "n_p": 2},
            },
        ),
    )
}


def nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(workload):
    return nproc() if workload.pooled else 1


def replicates(workload):
    """Replicates per round: one per worker."""
    return workers(workload)


def master_seed(seed, round_index):
    """ExperimentConfig.master_seed of one round of a run made with ``--seed seed``."""
    if seed < 0 or not 0 <= round_index < 1000:
        raise ValueError(f"need seed >= 0 and round in [0, 1000), got {seed}, {round_index}")
    return 1000 * seed + round_index


def config_kwargs(workload, short_filter, seed_of_round):
    return dict(
        COMMON,
        n=workload.n,
        n_steps=workload.n_steps,
        n_replicates=replicates(workload),
        master_seed=seed_of_round,
        **workload.filters[short_filter],
    )


def import_sparsekf(root):
    """Import the package from ``root/src``, never from an installed copy."""
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "sparsekf", "__init__.py")):
        raise ImportError(f"no sparsekf package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import sparsekf

    found = os.path.dirname(os.path.dirname(os.path.abspath(sparsekf.__file__)))
    if found != src:
        raise ImportError(f"sparsekf was imported from {found}, not from {src}")
    return sparsekf
