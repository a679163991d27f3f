"""Synchronization and quantum correlations in damped oscillator networks.

Gaussian dynamics of harmonically coupled oscillators whose normal modes
damp at mode-dependent rates.  Networks whose slowest mode decouples
from the bath entirely keep oscillating (and keep their quantum
correlations) while the rest thermalizes; the tools here build such
networks, evolve them, and measure both the classical synchronization
and the surviving quantum correlations.
"""

from .dynamics import (
    GaussianState,
    Trajectory,
    evolve,
    evolve_node_reference,
    initial_state,
)
from .errors import ConfigError, OscnetError, UnphysicalSpec
from .measures import (
    collective_sync,
    gaussian_discord,
    log_negativity,
    mutual_information,
    pair_measure_series,
    symplectic_spectrum,
    windowed_correlation,
)
from .network import (
    NetworkSpec,
    attach_pair,
    hamiltonian_matrix,
    load_network,
    random_network,
    save_network,
)
from .scenarios import (
    ScenarioConfig,
    load_config,
    run_simulate,
    run_spectrum,
    run_sweep,
    run_tune,
)
from .spectral import (
    BathConfig,
    ModeDecomposition,
    analyze,
    frozen_mode_report,
)
from .tuning import (
    estimate_sync_times,
    find_sync_parameter,
    parameter_scan,
)

__version__ = "0.1.0"

__all__ = [
    "BathConfig",
    "ConfigError",
    "GaussianState",
    "ModeDecomposition",
    "NetworkSpec",
    "OscnetError",
    "ScenarioConfig",
    "Trajectory",
    "UnphysicalSpec",
    "analyze",
    "attach_pair",
    "collective_sync",
    "estimate_sync_times",
    "evolve",
    "evolve_node_reference",
    "find_sync_parameter",
    "frozen_mode_report",
    "gaussian_discord",
    "hamiltonian_matrix",
    "initial_state",
    "load_config",
    "load_network",
    "log_negativity",
    "mutual_information",
    "pair_measure_series",
    "parameter_scan",
    "random_network",
    "run_simulate",
    "run_spectrum",
    "run_sweep",
    "run_tune",
    "save_network",
    "symplectic_spectrum",
    "windowed_correlation",
]
