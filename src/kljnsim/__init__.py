"""Monte Carlo simulator and leak analyzer for the KLJN secure key exchange.

Models the ideal single-loop topology next to the broken two-loop topology
created by a T-attenuator's shunt leg, quantifies the resulting information
leak through a passive current-comparison attack, and shows that the
protocol's current-comparison alarm catches the broken loop immediately.
"""

__version__ = "0.1.0"

from .circuit import AttenuatorConfig, NetworkConfig, analytic_mean_square_currents
from .config import PRESETS
from .noise import NoiseSpec
from .stats import analytic_attack_probabilities, chi2_cdf_1

# The package root re-exports only what the scripts use; everything else is
# imported from its module.
__all__ = [
    "__version__",
    "AttenuatorConfig",
    "NetworkConfig",
    "NoiseSpec",
    "PRESETS",
    "analytic_attack_probabilities",
    "analytic_mean_square_currents",
    "chi2_cdf_1",
]
