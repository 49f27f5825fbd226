"""Families of fields: intersection multiplicity, compositum discriminants,
and the averaged Chebotarev error across a quadratic family.
"""

from chebotarev_lab import (
    Family,
    avg_cheb_error,
    compositum_disc_check,
    quadratic_field,
    sieve_primes,
)

ds = [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13, -13, 14, -14, 15]
fields = tuple(quadratic_field(d) for d in ds)
family = Family(fields=fields, q_bound=200.0)

print(f"Quadratic family: {family.size} fields, rule = {family.intersection_rule}")
print(f"Intersection multiplicity m_F(Q) = {family.multiplicity}")
print()

print("Compositum discriminants (three-quadratic-subfield product formula):")
pairs = [(-1, -3), (2, 3), (-1, 2), (5, -7)]
for d1, d2 in pairs:
    a, b = quadratic_field(d1), quadratic_field(d2)
    chk = compositum_disc_check(a, b)
    print(f"  Q(sqrt {d1:3d}), Q(sqrt {d2:3d}): subfield discs {chk.subfield_discs},"
          f" D_KK' = {chk.disc_compositum}, divides D^2 D'^2: {chk.divides_bound},"
          f" conductor check: {chk.conductor_divides}")
print("  (the first pair is Q(zeta_12) with discriminant 144 = 4^2 3^2)")
print()

sieve = sieve_primes(10**5)
report = avg_cheb_error(family, 10**5, sieve)
print(f"Average worst-class error at x = 1e5: {report.avg_error:.3f}")
worst_name = max(report.per_field, key=report.per_field.get)
print(f"  largest single-field error: {report.per_field[worst_name]:.1f} at {worst_name}")
print("  diagnostics:")
for key, value in report.diagnostics.items():
    print(f"    {key} = {value:.6g}")
