"""Closed forms the tests build expected values from."""
from fractions import Fraction

from latticegfun.algebra import poly_from_list, poly_to_list
from latticegfun.cyclotomic import CycloNumber
from latticegfun.gfun import _cleared


def inv_scalar(v):
    """1 / v for a rational or a cyclotomic number."""
    return v.inverse() if isinstance(v, CycloNumber) else 1 / Fraction(v)


def cleared_dual_factor(g_poly, codim):
    """(-y)^codim * g(-1/y) expanded as a polynomial in y, through the
    y-list ``build_gfun`` assembles with."""
    return poly_from_list("y" if codim else None, _cleared(poly_to_list(g_poly), codim))
