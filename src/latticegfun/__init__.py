"""Exact weighted lattice-point sums over lattice polytopes.

Everything is computed in exact rational (or cyclotomic) arithmetic: face
lattices and their f/g/h polynomials, weighted counting polynomials of
dilated faces and their reciprocity laws, the two-variable generating
function G(q, y), and the Todd-operator Euler-Maclaurin formula for simple
polytopes.
"""
from .algebra import (ExactScalar, MultiPoly, bernoulli, interpolate,
                      scalar_from_str, scalar_to_str)
from .corpus import random_corpus
from .cyclotomic import CycloNumber, cyclo_root_of_unity
from .facepoly import (GradedPoset, check_master_duality, cube_face_poset,
                       dual_g, fg_polynomials, gessel_cube_g, h_polynomial)
from .gfun import (GFunction, build_gfun, check_reciprocity, cross_polytope,
                   cross_polytope_gfun, reciprocity_image, y_coefficient_profile)
from .polytope import (Face, FaceLattice, HalfSpace, Polytope, build_polytope,
                       euler_characteristic, face_lattice, is_simple,
                       iter_lattice_points, pulling_triangulation, volume)
from .todd import (Cone, GammaSet, NormalFan, SymbolicIntegral, ToddCoeffs,
                   apply_todd, deformed_vertex, dual_basis_at_vertex,
                   gamma_set, h_variable_names, normal_fan, symbolic_integral,
                   todd_coeffs, verify_todd_formula)
from .wsum import (WeightPoly, WeightedSumPoly, check_ehrhart_macdonald,
                   check_weighted_reciprocity, ehrhart_polynomial,
                   weighted_sum_poly)

__all__ = [
    "ExactScalar", "MultiPoly", "bernoulli", "interpolate",
    "scalar_from_str", "scalar_to_str",
    "CycloNumber", "cyclo_root_of_unity",
    "Polytope", "HalfSpace", "Face", "FaceLattice", "build_polytope",
    "face_lattice", "is_simple", "iter_lattice_points", "pulling_triangulation",
    "volume", "euler_characteristic",
    "GradedPoset", "fg_polynomials", "h_polynomial", "dual_g",
    "gessel_cube_g", "cube_face_poset", "check_master_duality",
    "WeightPoly", "WeightedSumPoly", "weighted_sum_poly",
    "ehrhart_polynomial", "check_ehrhart_macdonald", "check_weighted_reciprocity",
    "GFunction", "build_gfun", "check_reciprocity", "reciprocity_image",
    "y_coefficient_profile",
    "cross_polytope", "cross_polytope_gfun",
    "Cone", "NormalFan", "GammaSet", "ToddCoeffs", "SymbolicIntegral",
    "normal_fan", "gamma_set", "todd_coeffs", "deformed_vertex",
    "dual_basis_at_vertex", "symbolic_integral", "apply_todd",
    "verify_todd_formula", "h_variable_names",
    "random_corpus",
]
