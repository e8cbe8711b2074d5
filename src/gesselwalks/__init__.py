"""Exact counting of quarter-plane walks with steps E, W, NE, SW.

Three independent computations give the same numbers: a dynamic program over
the step recurrence (``walks``), hypergeometric and polynomial closed forms
(``exact``), and a triangular system solved, read as determinants or inverted
by multiple sums (``triangular``); ``pipelines.count`` picks one of these
five methods by name and knows which targets each covers.  Truncated
trivariate series checks of the functional equations live in ``series`` and
the conjecture fits in ``conjectures``.  Everything is integer or rational
arithmetic; nothing is floating point.

Each public name below is imported from its submodule on first use, so a
caller that needs one pipeline loads only the modules behind it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "count": "pipelines",
    "NotCovered": "pipelines",
    "CheckReport": "pipelines",
    "reachable": "walks",
    "count_walks": "walks",
    "shortest_walk": "walks",
    "f_tilde": "walks",
    "f_entry": "walks",
    "WalkTable": "walks",
    "binom_general": "exact",
    "gessel_closed_form": "exact",
    "ClosedFormFamily": "exact",
    "conjectured_value": "exact",
    "TruncSeries3": "series",
    "build_G": "series",
    "build_K": "series",
    "build_H": "series",
    "verify_kernel_equation": "series",
    "verify_H_equation": "series",
    "verify_root_identity": "series",
    "rho": "triangular",
    "rho_inv": "triangular",
    "RHS_INDEX": "triangular",
    "solve_forward": "triangular",
    "hessenberg_for": "triangular",
    "hessenberg_det": "triangular",
    "gessel_via_determinant": "triangular",
    "inverse_entry_multisum": "triangular",
    "universal_sequence": "triangular",
    "FitError": "conjectures",
    "FitFamily": "conjectures",
    "PolyFit": "conjectures",
    "fit_family": "conjectures",
    "fit_report": "conjectures",
    "verify_family_claims": "conjectures",
    "verify_gessel": "conjectures",
    "verify_recurrence_g": "conjectures",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
