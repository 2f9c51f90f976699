"""Continuous weak-measurement tomography under tunable quantum chaos.

Subpackages by concern:

* :mod:`chaostomo.operator_space` - Hermitian operator bases and Bloch coordinates
* :mod:`chaostomo.dynamics` - model propagators and Heisenberg timelines
* :mod:`chaostomo.tomography` - records, covariance, ML estimation, positivity
* :mod:`chaostomo.quantifiers` - information measures on the covariance spectrum
* :mod:`chaostomo.phase_space` - spin coherent states and Husimi entropy
* :mod:`chaostomo.krylov` - Krylov span, Lanczos and orbit operator-spreading diagnostics
* :mod:`chaostomo.perturbation` - mismatched dynamics and error scrambling
* :mod:`chaostomo.rmt` - random-matrix ensemble baselines
* :mod:`chaostomo.experiments` - config-driven experiment runner (CLI: ``chaostomo``)
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    dynamics,
    experiments,
    krylov,
    operator_space,
    perturbation,
    phase_space,
    quantifiers,
    rmt,
    tomography,
)
