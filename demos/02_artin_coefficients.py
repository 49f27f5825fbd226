"""Dirichlet coefficients of zeta_K/zeta: local roots, Schur values, and the
Rankin-Selberg coefficients by Newton's identity checked against the Cauchy
identity, all in exact integer arithmetic.
"""

from chebotarev_lab import (
    Partition,
    builtin_field,
    coeff_a_K,
    coeff_a_KxK_prime,
    euler_factor_series,
    local_roots,
    partitions_of,
    schur,
)
from chebotarev_lab.arith import kronecker_symbol
from chebotarev_lab.oracles import rs_cauchy_coefficient, rs_product_coefficients

gaussian = builtin_field("gaussian")
zeta5 = builtin_field("zeta5")

print("Local roots of Q(i) at p = 3 (inert: Frobenius order 2):",
      local_roots(gaussian, 3).roots_complex())
print("Euler factor coefficients a_K(3^k), k <= 6:", euler_factor_series(gaussian, 3, 6))
print()

print("a_K(n) for Q(i) equals the Kronecker character chi_{-4}(n):")
row = [(n, coeff_a_K(gaussian, n), kronecker_symbol(-4, n)) for n in (1, 3, 5, 9, 15, 21)]
for n, a, chi in row:
    print(f"  n={n:3d}  a_K={a:+d}  chi={chi:+d}")
print()

print("Schur values at local-root multisets are exact integers (Jacobi-Trudi):")
roots = local_roots(zeta5, 7)  # Frobenius order 4 in C4
for parts in ((), (1,), (2,), (2, 1), (2, 2)):
    lam = Partition(parts)
    print(f"  s_{parts or '()'} = {schur(lam, roots)}")
print()

print("Rankin-Selberg a(p^j) by Newton's identity on power sums equals the sum")
print("over partitions of Schur products (Cauchy identity) and the coefficient")
print("of the Euler product (complex-root oracle).")
p, jmax = 7, 5
oracle = rs_product_coefficients(gaussian, zeta5, p, jmax)
for j in range(jmax + 1):
    newton = coeff_a_KxK_prime(gaussian, zeta5, p, j)
    print(
        f"  j={j}: newton = {newton:4d},  schur sum = {rs_cauchy_coefficient(gaussian, zeta5, p, j):4d},  "
        f"product oracle = {oracle[j].real:12.8f}  (|diff| = {abs(newton - oracle[j]):.2e})"
    )
print()
print("Partitions of 5 with at most 3 parts:",
      [q.parts for q in partitions_of(5, max_length=3)])
