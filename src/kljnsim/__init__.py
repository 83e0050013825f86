"""Monte Carlo simulator and leak analyzer for the KLJN secure key exchange.

Models the ideal single-loop topology next to the broken two-loop topology
created by a T-attenuator's shunt leg, quantifies the resulting information
leak through a passive current-comparison attack, and shows that the
protocol's current-comparison alarm catches the broken loop immediately.

The package root exports only ``__version__``; import everything else from
its module (``kljnsim.circuit``, ``kljnsim.config``, ``kljnsim.reporting``, ...).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
