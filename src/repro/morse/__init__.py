"""Discrete Morse theory substrate.

Implements the compute stage of the paper:

- :mod:`repro.morse.gradient` — discrete gradient vector field construction
  with boundary-restricted pairing and simulation of simplicity (§IV-C),
- :mod:`repro.morse.vectorfield` — one-byte-per-cell gradient storage,
- :mod:`repro.morse.msc` — the flat node/arc/geometry MS-complex structure,
- :mod:`repro.morse.tracing` — V-path tracing from critical cells (§IV-D),
- :mod:`repro.morse.simplify` — persistence-ordered cancellation (§IV-E),
- :mod:`repro.morse.validate` — structural invariants used by the tests.
"""

from repro.morse.vectorfield import GradientField
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.msc import MorseSmaleComplex
from repro.morse.tracing import extract_ms_complex
from repro.morse.simplify import simplify_ms_complex, Cancellation
from repro.morse.persistence import (
    PersistencePair,
    diagram_statistics,
    persistence_diagram,
)

__all__ = [
    "Cancellation",
    "GradientField",
    "MorseSmaleComplex",
    "PersistencePair",
    "compute_discrete_gradient",
    "diagram_statistics",
    "extract_ms_complex",
    "persistence_diagram",
    "simplify_ms_complex",
]
