"""Certified tri-/tetra-gamma numerics and complete-monotonicity proof replay.

Layers, bottom up:

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

from .algebra import (ExpPoly, PartialFractionForm, PartialFractionTerm, Poly,
                      pfd_decompose)
from .ball import Ball
from .bounds import (bound_exact, g_derivative, g_eval, h_derivative, h_eval,
                     telescoping_identity_check)
from .constants import SourceConstants, load_constants
from .errors import (CmGammaError, ConstantsFormatError, DegreeError,
                     DomainError, FixtureMismatch, PrecisionError,
                     QuadratureFailure)
from .polygamma import polygamma, polygamma_quadrature_crosscheck
from .replay import (CertificateReport, build_chain, chain_positivity_certificate,
                     pf_expansion_identity_check, replay_proof,
                     verify_derivative_fixtures, verify_initial_values)
from .scan import CmScanReport, GridSpec, cm_scan, default_grid

__version__ = "0.1.0"

__all__ = [
    "Ball", "CertificateReport", "CmGammaError", "CmScanReport",
    "ConstantsFormatError", "DegreeError", "DomainError",
    "ExpPoly", "FixtureMismatch", "GridSpec",
    "SourceConstants", "PartialFractionForm", "PartialFractionTerm", "Poly",
    "PrecisionError", "QuadratureFailure", "bound_exact",
    "build_chain", "chain_positivity_certificate", "cm_scan", "default_grid",
    "g_derivative", "g_eval", "h_derivative", "h_eval",
    "load_constants", "pf_expansion_identity_check",
    "pfd_decompose", "polygamma", "polygamma_quadrature_crosscheck",
    "replay_proof", "telescoping_identity_check",
    "verify_derivative_fixtures", "verify_initial_values",
]
