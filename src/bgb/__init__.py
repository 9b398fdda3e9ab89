"""Exact lexicographic Groebner bases of zero-dimensional bivariate ideals
over Q, computed by p-adic lifting of Hermite/Howell modular bases."""

from .rings import (ZZ, QQ, GF, BiPoly, UniPoly, NonInvertibleError,
                    height, reduce_mod)
from .groebner_engine import (DeltaCase, delta_bound, hermite_groebner_basis,
                              howell_groebner_basis, groebner_basis_at_zero,
                              minimalize, NotZeroDimensionalError)
from .coords import Coords2x2, apply_coords, sample_gamma, change_coordinates_groebner
from .oracle import buchberger, normal_form, primary_at_origin_oracle
from .lifting import (init_lift, lift_step, rational_reconstruct,
                      reconstruct_basis, verify_with_witness, UnluckyPrimeError)
from .driver import (DriverConfig, RunReport, groebner_basis_main,
                     primary_component_main, parse_system, emit_report)

__all__ = [
    "ZZ", "QQ", "GF", "BiPoly", "UniPoly", "NonInvertibleError",
    "height", "reduce_mod",
    "DeltaCase", "delta_bound", "hermite_groebner_basis",
    "howell_groebner_basis", "groebner_basis_at_zero", "minimalize",
    "NotZeroDimensionalError",
    "Coords2x2", "apply_coords", "sample_gamma", "change_coordinates_groebner",
    "buchberger", "normal_form", "primary_at_origin_oracle",
    "init_lift", "lift_step", "rational_reconstruct", "reconstruct_basis",
    "verify_with_witness", "UnluckyPrimeError",
    "DriverConfig", "RunReport", "groebner_basis_main",
    "primary_component_main", "parse_system", "emit_report",
]

__version__ = "0.1.0"
