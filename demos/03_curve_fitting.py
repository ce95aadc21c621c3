"""
Fitting rational normal curves
==============================

Three exact constructions: the unique RNC through d+3 general points of
P^d, scroll sections through sample points, and class-membership fits
that thread a degree-q curve through n points of a catalog variety.
"""

import random
from fractions import Fraction as F

from rncgeom import (
    Polynomial,
    ScrollSpec,
    SegreSpecial,
    StandardScroll,
    certify_curve,
    curve_contains_point,
    fit_rnc_through,
    fit_scroll_section,
    make_variety,
    rnc_through_points,
)
from rncgeom.rnc import sample_parameter_points

# the conic through five plane points, with its implicit-equation check
points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
conic = rnc_through_points(2, points)
print("conic through 5 points:")
for comp in conic.components:
    print("  ", comp.to_text(["t"]))
x, y, z = conic.components
print("3xy + yz - 4xz =", ((x * y).scale(3) + y * z - (x * z).scale(4)).to_text(["t"]))

# a scroll section: s = P_1(t) / P_0(t) interpolating three samples
p0, p1 = fit_scroll_section(ScrollSpec((1, 1)), [(F(0), (F(1),)), (F(1), (F(2),)), (F(2), (F(5),))])
print("\nsection through (0,1), (1,2), (2,5):")
print("  P0 =", Polynomial.univariate(p0).to_text(["t"]))
print("  P1 =", Polynomial.univariate(p1).to_text(["t"]))

# membership fits: curves of the class degree through random points
rng = random.Random(12)
for spec in (StandardScroll(ScrollSpec((1, 1)), 2, 0), SegreSpecial(2, 4)):
    variety = make_variety(spec)
    pts = sample_parameter_points(spec, rng)
    curve = fit_rnc_through(spec, pts)
    cert = certify_curve(curve)
    hit = all(curve_contains_point(curve, variety.eval(p)) for p in pts)
    print(
        f"\n{spec.family}: degree {cert.degree}, span {cert.span_dim}, "
        f"rnc {cert.is_rnc}, through all points {hit}"
    )
