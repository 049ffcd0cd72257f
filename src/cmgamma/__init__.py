"""Certified tri-/tetra-gamma numerics and complete-monotonicity proof replay.

Layers, bottom up; `import cmgamma` loads all but `bounds`, `scan` and `cli`,
and a public name of `bounds` or `scan` imports its module on first use:

- :mod:`cmgamma.algebra`: exact rational polynomials, exponential
  polynomials and partial fractions;
- :mod:`cmgamma.ball`: midpoint-radius enclosures over exact dyadics;
- :mod:`cmgamma.polygamma`: certified psi^(m) enclosures with an
  independent (non-certified) quadrature cross-check;
- :mod:`cmgamma.constants`: the transcribed exact fixtures;
- :mod:`cmgamma.bounds`: B, g, H, their derivatives and the telescoping check;
- :mod:`cmgamma.replay`: the exact expansion identities, the Laplace
  kernel image and the mechanical positivity-chain proof replay;
- :mod:`cmgamma.scan`: grid scans for complete monotonicity;
- :mod:`cmgamma.cli`: the command-line front end.
"""

import importlib

from .algebra import (ExpPoly, PartialFractionForm, PartialFractionTerm, Poly,
                      pfd_decompose)
from .ball import Ball
from .constants import SourceConstants, load_constants
from .errors import (CmGammaError, ConstantsFormatError, DegreeError, DomainError,
                     FixtureMismatch, PrecisionError, QuadratureFailure)
from .polygamma import polygamma, polygamma_quadrature_crosscheck
from .replay import (CertificateReport, build_chain, chain_positivity_certificate,
                     pf_expansion_identity_check, replay_proof)

__version__ = "0.1.0"

_LAZY = {  # public name -> the module that defines it, imported on first use
    **dict.fromkeys(("bound_exact", "g_derivative", "g_eval", "h_derivative", "h_eval",
                     "telescoping_identity_check"), "bounds"),
    **dict.fromkeys(("CmScanReport", "GridSpec", "cm_scan", "default_grid"), "scan")}

__all__ = [
    "Ball", "CertificateReport", "CmGammaError", "ConstantsFormatError", "DegreeError",
    "DomainError", "ExpPoly", "FixtureMismatch", "PartialFractionForm",
    "PartialFractionTerm", "Poly", "PrecisionError", "QuadratureFailure",
    "SourceConstants", "build_chain", "chain_positivity_certificate", "load_constants",
    "pf_expansion_identity_check", "pfd_decompose", "polygamma",
    "polygamma_quadrature_crosscheck", "replay_proof", *_LAZY]


def __getattr__(name):
    if name not in _LAZY:  # e.g. a submodule not yet imported
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
