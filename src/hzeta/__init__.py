"""Hurwitz zeta for complex s and alpha via a shifted power series,
with s-derivative jets, alpha-derivatives, generalized Stieltjes
constants, identity verification, and an independent oracle suite."""

from .errors import DomainError, HZetaError, NearPole, Nonconvergence, PoleAtOne
from .hurwitz import (
    EvalResult,
    SeriesParams,
    choose_k,
    hurwitz_alpha_derivative,
    hurwitz_jet,
    hurwitz_jet_many,
    hurwitz_regularized_jet,
)
from .identities import (
    IDENTITY_NAMES,
    IdentityReport,
    VerifyPoint,
    dalpha_of_sderiv,
    dalpha_sderiv_at_zero,
    verify_identity,
)
from .jets import Jet
from .stieltjes import (
    LaurentExpansion,
    dgamma_dalpha,
    generalized_stieltjes,
    stieltjes_constants,
)

__version__ = "0.3.0"

__all__ = [
    "DomainError",
    "EvalResult",
    "HZetaError",
    "IDENTITY_NAMES",
    "IdentityReport",
    "Jet",
    "LaurentExpansion",
    "NearPole",
    "Nonconvergence",
    "PoleAtOne",
    "SeriesParams",
    "VerifyPoint",
    "choose_k",
    "dalpha_of_sderiv",
    "dalpha_sderiv_at_zero",
    "dgamma_dalpha",
    "generalized_stieltjes",
    "hurwitz_alpha_derivative",
    "hurwitz_jet",
    "hurwitz_jet_many",
    "hurwitz_regularized_jet",
    "stieltjes_constants",
    "verify_identity",
]
