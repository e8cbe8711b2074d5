"""Exact counting of quarter-plane walks with steps E, W, NE, SW.

Four independent pipelines compute the same numbers: a dynamic program over
the step recurrence (``walks``), hypergeometric and polynomial closed forms
(``exact``), Hessenberg determinant windows and a multiple-sum inversion of
a triangular system (``triangular``); ``pipelines.count`` picks one by name
and knows which targets each covers.  Truncated trivariate series checks
of the functional equations live in ``series`` and the conjecture fits in
``conjectures``.  Everything is integer or rational arithmetic; nothing is
floating point.
"""

from .conjectures import (
    FitError,
    FitFamily,
    PolyFit,
    fit_family,
    fit_report,
    verify_family_claims,
    verify_gessel,
    verify_recurrence_g,
)
from .exact import (
    ClosedFormFamily,
    binom_general,
    catalan,
    conjectured_value,
    gessel_closed_form,
    pochhammer,
)
from .pipelines import NotCovered, count
from .series import (
    CheckReport,
    TruncSeries3,
    build_G,
    build_H,
    build_K,
    verify_H_equation,
    verify_kernel_equation,
    verify_root_identity,
    x_of_yz,
)
from .triangular import (
    RHS_INDEX,
    gessel_via_determinant,
    hessenberg_det,
    hessenberg_for,
    inverse_entry_multisum,
    rho,
    rho_inv,
    solve_forward,
    universal_sequence,
)
from .walks import (
    FMatrix,
    WalkTable,
    build_f_matrix,
    count_walks,
    f_entry,
    f_tilde,
    reachable,
    shortest_walk,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "count",
    "NotCovered",
    "reachable",
    "count_walks",
    "shortest_walk",
    "f_tilde",
    "f_entry",
    "build_f_matrix",
    "FMatrix",
    "WalkTable",
    "binom_general",
    "pochhammer",
    "catalan",
    "gessel_closed_form",
    "ClosedFormFamily",
    "conjectured_value",
    "TruncSeries3",
    "CheckReport",
    "build_G",
    "build_K",
    "build_H",
    "x_of_yz",
    "verify_kernel_equation",
    "verify_H_equation",
    "verify_root_identity",
    "rho",
    "rho_inv",
    "RHS_INDEX",
    "solve_forward",
    "hessenberg_for",
    "hessenberg_det",
    "gessel_via_determinant",
    "inverse_entry_multisum",
    "universal_sequence",
    "FitError",
    "FitFamily",
    "PolyFit",
    "fit_family",
    "fit_report",
    "verify_family_claims",
    "verify_gessel",
    "verify_recurrence_g",
]
