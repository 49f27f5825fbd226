"""Mean values of prime Dirichlet polynomials: the square integral by
Gauss-Legendre quadrature against its closed form, the family sum, and the
shaped bound report.
"""

import math

from chebotarev_lab import (
    DirichletPolynomial,
    Family,
    MeanValueWindow,
    msq_integral,
    mvt_report,
    quadratic_field,
    sieve_primes,
    zero_density_report,
)
from chebotarev_lab.oracles import msq_integral_pairwise, msq_integral_quadrature

sieve = sieve_primes(10**4)

print("Mean-value integral by Gauss-Legendre vs the closed form and adaptive Simpson:")
poly = DirichletPolynomial({5: math.log(5) / 5, 7: math.log(7) / 7, 11: -0.3 + 0.1j})
for T in (0.5, 1.0, 10.0):
    value = msq_integral(poly, T)
    closed = msq_integral_pairwise(poly, T)
    quad = msq_integral_quadrature(poly, T)
    print(f"  T = {T:5.1f}: gauss = {value:.12f}   closed = {closed:.12f}   simpson = {quad:.12f}")
print()

fields = tuple(quadratic_field(d) for d in (-1, 2, 3, 5, -2, -3, 7, -7, 11, 13))
family = Family(fields=fields, q_bound=60.0)
window = MeanValueWindow(t_height=1.0, y=10.0, u=5000.0)
print(f"Family of {family.size} quadratic fields, m_F(Q) = {family.multiplicity}")

report = mvt_report(family, window, sieve)
print("Mean-value report (constants symbolic, inequality never asserted):")
print(f"  exact LHS          = {report.lhs:.6f}")
print(f"  RHS shape (log)    = {report.rhs_shape_log:.6f}")
print(f"  log ratio          = {report.ratio_log:.6f}")
for note in report.notes:
    print(f"  note: {note}")
print()

print("Zero-density bound shape at several sigma (log scale):")
for sigma in (1.0, 0.9, 0.75, 0.5):
    zde = zero_density_report(family, window.t_height, sigma)
    print(f"  sigma = {sigma:4.2f}: log RHS shape = {zde.rhs_shape_log:.4f}")
print("  (at sigma = 1 the (QT)-power vanishes, leaving m_F (log QT)^(2 m^2))")
