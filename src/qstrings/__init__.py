"""qstrings: exact q-series arithmetic, theta and Appell-Lerch functions,
Hecke-type double sums, affine string functions, and an identity
verification harness."""

from .series import (
    GaussianRational,
    InsufficientOrder,
    Mismatch,
    Monomial,
    PrecisionShortfall,
    QSeries,
    SeriesError,
    ZeroLeadingTerm,
    format_series,
    margin_scale,
)
from .theta import (
    J,
    Jbar,
    Jm,
    eta,
    j_split_components,
    jtheta,
    jtheta_prod,
    pochhammer,
    theta_quotient,
)
from .appell import appell_m
from .hecke import (
    acdivb_rhs,
    g_1b1,
    genfn_rhs,
    h_nn1,
    hecke_f,
    hecke_flip_rhs,
    hecke_shift_rhs,
    master_fnp_rhs,
    singshift_rhs,
)
from .strings import (
    C_full,
    StringLabel,
    calC_hecke,
    calC_oracle,
    kp_eta_side,
    kp_string_side,
    level_theta_side,
    s_exponent,
    symmetry_reduce,
)
from .expr import evaluate_text, parse

__all__ = [
    "GaussianRational", "InsufficientOrder", "Mismatch", "Monomial",
    "PrecisionShortfall", "QSeries",
    "SeriesError", "ZeroLeadingTerm", "format_series", "margin_scale",
    "J", "Jbar", "Jm", "eta", "j_split_components", "jtheta", "jtheta_prod",
    "pochhammer", "theta_quotient",
    "appell_m",
    "acdivb_rhs", "g_1b1", "genfn_rhs", "h_nn1", "hecke_f", "hecke_flip_rhs",
    "hecke_shift_rhs", "master_fnp_rhs", "singshift_rhs",
    "C_full", "StringLabel", "calC_hecke", "calC_oracle", "kp_eta_side",
    "kp_string_side", "level_theta_side", "s_exponent",
    "symmetry_reduce",
    "evaluate_text", "parse",
]

__version__ = "0.1.0"
