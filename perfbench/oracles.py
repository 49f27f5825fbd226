"""Reference values computed by the benchmark itself, without the package.

Every function here rebuilds an answer from number theory that does not go
through the package's code path: a numpy sieve for pi(x), p mod the conductor
for abelian fields, Legendre symbols by modular exponentiation for quadratic
fields, binary quadratic forms of discriminant -23 for the S3 cubic
x^3 - x - 1, local Euler factors with multiplicativity for a_K(n), Newton's
identity on power sums for a_{KxK'}(n), and Gauss-Legendre quadrature for the
mean-value integral.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Class labels follow the package's naming: element k of the cyclic Galois
# group of Q(zeta_7) is the automorphism zeta -> zeta^(3^k) (3 is the smallest
# primitive root mod 7), and within one element order the smaller k is "a".
ZETA7_RESIDUES = {"1": (1,), "2": (6,), "3a": (2,), "3b": (4,), "6a": (3,), "6b": (5,)}
# Q(zeta_7)^+ is the quotient by {1, 6}: cosets {3, 4} (k = 1) and {2, 5} (k = 2).
CYCLO7PLUS_RESIDUES = {"1": (1, 6), "3a": (3, 4), "3b": (2, 5)}
GAUSSIAN_RESIDUES = {"1": (1,), "2": (3,)}
# fields whose Frobenius at p is fixed by p mod the conductor: (conductor, residues by class)
RESIDUE_FIELDS = {"zeta7": (7, ZETA7_RESIDUES), "cyclo7plus": (7, CYCLO7PLUS_RESIDUES),
                  "gaussian": (4, GAUSSIAN_RESIDUES)}

# (field discriminant, group order, {class label: element order})
FIELDS = {
    "gaussian": (-4, 2, {"1": 1, "2": 2}),
    "sqrt5": (5, 2, {"1": 1, "2": 2}),
    "zeta7": (-16807, 6, {"1": 1, "2": 2, "3a": 3, "3b": 3, "6a": 6, "6b": 6}),
    "cyclo7plus": (49, 3, {"1": 1, "3a": 3, "3b": 3}),
    "s3cubic": (-12167, 6, {"1": 1, "2": 2, "3": 3}),
}
QUADRATIC_ORDERS = {"1": 1, "2": 2}
# the only non-abelian field: S3 has 1 identity, 3 transpositions, 2 3-cycles
S3_CLASS_SIZES = {"1": 1, "2": 3, "3": 2}


def class_size(name: str, label: str) -> int:
    return S3_CLASS_SIZES[label] if name == "s3cubic" else 1


def field_info(name: str, disc: int | None = None) -> tuple[int, int, dict[str, int]]:
    """(D_K, |G|, class orders) of a built-in field, or of a catalog quadratic."""
    if name in FIELDS:
        return FIELDS[name]
    return disc, 2, QUADRATIC_ORDERS


@lru_cache(maxsize=8)
def primes_upto(n: int) -> np.ndarray:
    """Ascending primes <= n (odd-only sieve of Eratosthenes)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) + 1) // 2 + 1):
        if i < odd.size and odd[i]:
            q = 2 * i + 1
            odd[q * q // 2 :: q] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


def pi(x: float) -> int:
    return int(primes_upto(int(x)).size)


def legendre(d: int, primes: np.ndarray) -> np.ndarray:
    """Kronecker symbol (d/p) for primes p, d a fundamental discriminant."""
    p = primes.astype(np.int64)
    out = np.zeros(p.size, dtype=np.int64)
    odd = p > 2
    po = p[odd]
    base = np.mod(d, po)
    e = (po - 1) // 2
    acc = np.ones_like(po)
    while np.any(e):
        bit = (e & 1) == 1
        acc = np.where(bit, acc * base % po, acc)
        base = base * base % po
        e >>= 1
    out[odd] = np.where(acc == 0, 0, np.where(acc == 1, 1, -1))
    if d % 2 == 0:
        out[~odd] = 0
    else:
        out[~odd] = 1 if d % 8 in (1, 7) else -1
    return out


@lru_cache(maxsize=4)
def _principal_form_values(n: int) -> np.ndarray:
    """Mask of m <= n represented by a^2 + ab + 6b^2 (discriminant -23)."""
    mask = np.zeros(n + 1, dtype=bool)
    b_max = math.isqrt(4 * n // 23) + 1
    a_max = math.isqrt(n) + b_max + 1
    a = np.arange(-a_max, a_max + 1, dtype=np.int64)[:, None]
    b = np.arange(0, b_max + 1, dtype=np.int64)[None, :]
    vals = a * a + a * b + 6 * b * b
    vals = vals[(vals > 0) & (vals <= n)]
    mask[vals] = True
    return mask


def class_labels(name: str, primes: np.ndarray, disc: int | None = None) -> np.ndarray:
    """Frobenius class label of each prime; "" marks a ramified prime.

    The S3 cubic x^3 - x - 1 has splitting field the Hilbert class field of
    Q(sqrt(-23)): for p != 23 it splits completely iff p = a^2 + ab + 6b^2,
    has Frobenius a transposition iff (-23/p) = -1, and a 3-cycle otherwise.
    """
    p = primes.astype(np.int64)
    out = np.full(p.size, "", dtype=object)
    if name in RESIDUE_FIELDS:
        q, residues = RESIDUE_FIELDS[name]
        r = p % q
        for label, rs in residues.items():
            out[np.isin(r, rs)] = label  # ramified p (7, or 2 for q = 4) hit no residue
        return out
    if name == "s3cubic":
        chi = legendre(-23, p)
        split = _principal_form_values(int(p.max()) if p.size else 1)[p]
        out[chi == -1] = "2"
        out[(chi == 1) & split] = "1"
        out[(chi == 1) & ~split] = "3"
        return out
    d = 5 if name == "sqrt5" else disc
    chi = legendre(d, p)
    out[chi == 1] = "1"
    out[chi == -1] = "2"
    return out


def class_counts(name: str, x: float, disc: int | None = None) -> tuple[dict[str, int], int]:
    """({class label: #unramified p <= x in it}, #ramified p <= x)."""
    d_k, _, orders = field_info(name, disc)
    primes = primes_upto(int(x))
    labels = class_labels(name, primes, disc)
    counts = {lab: int(np.count_nonzero(labels == lab)) for lab in orders}
    ramified = int(np.count_nonzero(abs(d_k) % primes == 0))
    if sum(counts.values()) + ramified != primes.size:
        raise AssertionError(f"{name}: reference classes do not partition pi({x})")
    return counts, ramified


# -- weighted prime sums -------------------------------------------------------


def weight(t: np.ndarray, x: float, eps: float) -> np.ndarray:
    """f(t): the indicator of [1/2, 1 + eps/L] smoothed twice by the boxcar of
    width w = eps/(2L), L = log x; piecewise quadratic in closed form."""
    w = eps / (2.0 * math.log(x))

    def ramp(s):
        u = s + 2 * w
        return np.where(s >= 0, 1.0, np.where(s <= -2 * w, 0.0,
                        np.where(s <= -w, u * u / (2 * w * w), 1.0 - s * s / (2 * w * w))))

    return ramp(t - 0.5) - ramp(t - (1.0 + 2.0 * w))


def psi(name: str, label: str, x: float, eps: float, disc: int | None = None) -> tuple[float, int]:
    """(sum of log p * f(k log p / log x) over unramified p^k whose Frobenius
    k-th power lies in the class, number of nonzero terms)."""
    d_k, _, orders = field_info(name, disc)
    lx = math.log(x)
    primes = primes_upto(int(x * math.exp(eps)) + 1)
    primes = primes[abs(d_k) % primes != 0]
    labels = class_labels(name, primes, disc)
    order = np.array([orders[lab] for lab in labels], dtype=np.int64)
    logp = np.log(primes.astype(float))
    terms = []
    k = 1
    while True:
        live = k * logp <= lx + eps
        if not live.any():
            break
        if name in RESIDUE_FIELDS:
            # the k-th power of Frobenius at p acts as p^k mod the conductor
            q, residues = RESIDUE_FIELDS[name]
            pk = np.array([pow(int(p), k, q) for p in primes[live]])
            hit = np.isin(pk, residues[label])
        else:
            # the k-th power of a class of order d is the identity when d | k
            # and stays in its class otherwise (true for C2 and S3)
            powered = np.where(k % order[live] == 0, "1", labels[live])
            hit = powered == label
        t = k * logp[live][hit] / lx
        wts = weight(t, x, eps)
        keep = wts > 0.0
        terms.extend((logp[live][hit][keep] * wts[keep]).tolist())
        k += 1
    return math.fsum(terms), len(terms)


# -- Dirichlet coefficients ------------------------------------------------------


def _local_series(order: int, group_order: int, k_max: int) -> list[int]:
    """Coefficients of (1 - T) / (1 - T^d)^(|G|/d) up to T^k_max: the local
    factor of zeta_K / zeta at a prime of Frobenius order d."""
    g = group_order // order
    full = [0] * (k_max + 1)
    for j in range(0, k_max + 1, order):
        full[j] = math.comb(g - 1 + j // order, j // order)
    return [full[k] - (full[k - 1] if k else 0) for k in range(k_max + 1)]


def smallest_factor(n: int) -> np.ndarray:
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes_upto(n).tolist():
        block = spf[p :: p]
        block[block == 0] = p
    return spf


def frobenius_orders(name: str, primes: np.ndarray) -> dict[int, int]:
    _, _, orders = field_info(name)
    labels = class_labels(name, primes)
    return {int(p): orders[lab] for p, lab in zip(primes.tolist(), labels) if lab}


def series_a_K(name: str, n_max: int) -> dict[int, int]:
    """a_K(n) for n <= n_max coprime to D_K, by multiplicativity."""
    d_k, g, _ = field_info(name)
    spf = smallest_factor(n_max).tolist()
    orders = frobenius_orders(name, primes_upto(n_max))
    k_max = max(1, int(math.log2(max(n_max, 2))))
    local = {d: _local_series(d, g, k_max) for d in set(orders.values())}
    a = [0] * (n_max + 1)
    a[1] = 1
    out = {1: 1}
    for n in range(2, n_max + 1):
        p = spf[n]
        if p not in orders:
            continue  # ramified prime factor: n is not coprime to D_K
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        if m > 1 and math.gcd(m, abs(d_k)) != 1:
            continue
        a[n] = a[m] * local[orders[p]][e]
        out[n] = a[n]
    return out


def rankin_selberg(name1: str, name2: str, n_max: int) -> dict[int, int]:
    """a_{KxK'}(n) for n <= n_max coprime to D_K D_K'.

    At p^j it is h_j of the product multiset {alpha beta}, whose power sums are
    p_k(A) p_k(B) with p_k(A) = |G| [d | k] - 1; Newton's identity
    j h_j = sum_k p_k h_(j-k) gives h_j exactly.
    """
    d1, g1, _ = field_info(name1)
    d2, g2, _ = field_info(name2)
    primes = primes_upto(n_max)
    o1 = frobenius_orders(name1, primes)
    o2 = frobenius_orders(name2, primes)

    @lru_cache(maxsize=None)
    def h(a: int, b: int, j: int) -> int:
        if j == 0:
            return 1
        total = 0
        for k in range(1, j + 1):
            pk = (g1 * (k % a == 0) - 1) * (g2 * (k % b == 0) - 1)
            total += pk * h(a, b, j - k)
        if total % j:
            raise AssertionError("Newton identity gave a non-integer")
        return total // j

    modulus = abs(d1 * d2)
    out = {}
    for n in range(1, n_max + 1):
        if math.gcd(n, modulus) != 1:
            continue
        value, m = 1, n
        for p in primes.tolist():
            if p * p > m:
                break
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                value *= h(o1[p], o2[p], e)
        if m > 1:
            value *= h(o1[m], o2[m], 1)
        out[n] = value
    return out


def omega_sum(ns) -> int:
    """Sum of the number of distinct prime factors over ns."""
    ns = list(ns)
    if not ns:
        return 0
    spf = smallest_factor(max(ns)).tolist()
    total = 0
    for n in ns:
        while n > 1:
            p = spf[n]
            total += 1
            while n % p == 0:
                n //= p
    return total


# -- mean-value integral -----------------------------------------------------------


def mean_value(d_k: int, y: float, u: float, t_height: float, nodes: int = 160) -> tuple[float, int]:
    """(int_{-T}^{T} |sum chi(p) log p / p * p^(-it)|^2 dt over unramified
    y < p <= u, number of terms), for a quadratic field of discriminant d_k,
    by Gauss-Legendre quadrature (the integrand is entire of exponential type
    2 log u, so this many nodes are exact to rounding for these windows)."""
    primes = primes_upto(int(u))
    primes = primes[(primes > y) & (abs(d_k) % primes != 0)]
    logp = np.log(primes.astype(float))
    coeff = legendre(d_k, primes) * logp / primes
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    t = t_height * xs
    values = np.exp(-1j * np.outer(t, logp)) @ coeff
    return float(t_height * np.sum(ws * np.abs(values) ** 2)), int(primes.size)
