"""Desk-scale eigenstate bookkeeping for the periodic spin-1/2 XXX chain."""

from .baesolver import RootSet, SolverConfig, classify, nw_constants, solve_sector
from .energy import EnergyResult, energy_logderiv, energy_nw, energy_regular
from .hilbert import SpectrumEntry, exact_spectrum, hamiltonian, spectrum_with_multiplicities
from .pipeline import RunReport, emit_report, run_pipeline
from .rigged import RiggedConfiguration, enumerate_rcs, rc_count

__version__ = "0.1.0"

__all__ = [
    "RootSet",
    "SolverConfig",
    "classify",
    "nw_constants",
    "solve_sector",
    "EnergyResult",
    "energy_logderiv",
    "energy_nw",
    "energy_regular",
    "SpectrumEntry",
    "exact_spectrum",
    "hamiltonian",
    "spectrum_with_multiplicities",
    "RunReport",
    "emit_report",
    "run_pipeline",
    "RiggedConfiguration",
    "enumerate_rcs",
    "rc_count",
    "__version__",
]
