import gc
import inspect
import math
import pickle
import random
import time
import types
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from chebotarev_lab import fields
from chebotarev_lab.chebotarev import pi_C_count, splitting_tally
from chebotarev_lab.arith import fundamental_disc, kronecker_symbol, poly_discriminant
from chebotarev_lab.artin import coeff_a_KxK_prime, euler_factor_series
from chebotarev_lab.errors import AmbiguousClass, CatalogError, GroupMismatch, ParameterOutOfRange, ValidationError
from chebotarev_lab.fields import (
    BUILTIN_CATALOG,
    FieldDescriptor,
    _class_tally,
    _cycle_counts,
    _mod_primes,
    builtin_field,
    frobenius_data,
    frobenius_table,
    load_catalog,
    parse_catalog,
    quadratic_field,
)
from chebotarev_lab.groups import build_group
from chebotarev_lab.oracles import factor_poly_mod_p, frobenius_data_by_factoring, is_prime_trial
from chebotarev_lab.sieve import SIEVE_CAP, PrimeSieve, sieve_primes

RAMIFIED, UNRESOLVED = -1, -2  # the class code of a ramified prime and of one whose class is ambiguous


def _class_codes(table):
    """Each prime's class index, read off its record ``table.kinds[k]``, or
    RAMIFIED or UNRESOLVED where it has none."""
    codes = [RAMIFIED if data.ramified else UNRESOLVED if data.ambiguous else data.conjugacy_class.index
             for data in table.kinds]
    return np.array(codes, dtype=np.int16)[table.kind]


def test_factor_poly_examples():
    assert factor_poly_mod_p((1, 0, 1), 5) == [(1, 1), (1, 1)]
    assert factor_poly_mod_p((1, 0, 1), 3) == [(2, 1)]
    assert factor_poly_mod_p((1, 0, 1), 2) == [(1, 2)]


def test_frobenius_examples(catalog):
    g = catalog["gaussian"]
    d5 = frobenius_data(g, 5)
    assert not d5.ramified
    assert d5.factorization_type == (1, 1)
    assert d5.frobenius_order == 1
    assert d5.conjugacy_class.label == "1"
    assert frobenius_data(g, 2).ramified

    z5 = catalog["zeta5"]
    d7 = frobenius_data(z5, 7)
    assert d7.frobenius_order == 4  # multiplicative order of 7 mod 5


def test_cyclotomic_order_oracle(catalog, sieve_small):
    # frobenius order equals the multiplicative order of p mod q (p <= 1e4)
    for name, q in (("zeta5", 5), ("zeta7", 7)):
        fd = catalog[name]
        for p in sieve_small.primes.tolist():
            if q % p == 0:
                assert frobenius_data(fd, p).ramified
                continue
            order = 1
            r = p % q
            while r != 1:
                r = r * p % q
                order += 1
            assert frobenius_data(fd, p).frobenius_order == order


def test_residue_action_matches_factorization(catalog, sieve_small):
    # dual route: residue shortcut vs generic mod-p factorization
    names = ("gaussian", "sqrt5", "zeta5", "cyclo7plus", "zeta7")
    for fd in [catalog[name] for name in names] + [quadratic_field(d) for d in (-5, 13, -23, 10)]:
        for p in sieve_small.upto(2000).tolist():
            fast = frobenius_data(fd, p)
            pairs = factor_poly_mod_p(fd.defining_poly, p)
            if fast.ramified:
                assert fd.abs_disc % p == 0
                continue
            assert all(mult == 1 for _, mult in pairs)
            ftype = tuple(sorted(d for d, _ in pairs))
            assert fast.factorization_type == ftype
            assert fast.frobenius_order == math.lcm(*ftype)


def test_galois_poly_equal_degrees(catalog, sieve_small):
    # Galois defining polynomial of degree |G|: all factors share degree d
    for name in ("gaussian", "sqrt5", "zeta5", "zeta7"):
        fd = catalog[name]
        for p in sieve_small.upto(500).tolist():
            data = frobenius_data(fd, p)
            if data.ramified:
                continue
            d = data.frobenius_order
            assert data.factorization_type == tuple([d] * (fd.degree // d))


def _class_proportion_check(fd, primes, rng, samples=100):
    picks = rng.choice(primes, size=samples, replace=False)
    counts = {c.label: 0 for c in fd.group.classes}
    for p in picks.tolist():
        data = frobenius_data(fd, p)
        assert not data.ramified and data.conjugacy_class is not None
        counts[data.conjugacy_class.label] += 1
    for c in fd.group.classes:
        q = c.size / fd.group.order
        sigma = math.sqrt(samples * q * (1 - q))
        assert abs(counts[c.label] - samples * q) <= 3 * sigma, (fd.name, c.label, counts)


def test_sn_chebotarev_proportions(catalog, sieve_large):
    # 100 random primes below 1e6: class statistics within 3 sigma
    rng = np.random.default_rng(20240817)
    primes = sieve_large.upto(10**6)
    primes = primes[primes > 10**5]
    _class_proportion_check(catalog["s3cubic"], primes, rng)
    quintic = FieldDescriptor(
        name="s5quintic",
        defining_poly=(-1, -1, 0, 0, 0, 1),  # x^5 - x - 1, S5 closure
        group=build_group("S5"),
        disc_field=2869,
    )
    _class_proportion_check(quintic, primes, rng)


def test_field_descriptor_validation():
    with pytest.raises(ValidationError):
        FieldDescriptor(name="bad", defining_poly=(1, 2), group=build_group("C2"), disc_field=5)
    with pytest.raises(ValidationError):  # x^2 repeated root
        FieldDescriptor(name="bad", defining_poly=(0, 0, 1), group=build_group("C2"), disc_field=5)


def test_residue_action_needs_degree_equal_to_group_order():
    # Q(sqrt5) with zeta5's C4 and residue action: the residue route would read
    # type (1, 1) at p = 2, where x^2 - x - 1 is irreducible
    z5 = BUILTIN_CATALOG["zeta5"]
    with pytest.raises(ValidationError, match="residue action needs"):
        FieldDescriptor(name="mixed", defining_poly=(-1, -1, 1), group=z5.group, disc_field=5,
                        residue_action=z5.residue_action)
    for fd in list(BUILTIN_CATALOG.values()) + [quadratic_field(d) for d in (-1, 2, 5, -7, 13)]:
        assert fd.residue_action is None or fd.degree == fd.group.order, fd.name


def test_quadratic_field_generator():
    fd = quadratic_field(-1)
    assert fd.disc_field == -4 and fd.defining_poly == (1, 0, 1)
    fd5 = quadratic_field(5)
    assert fd5.disc_field == 5 and fd5.poly_disc == 5
    with pytest.raises(ValidationError):
        quadratic_field(12)


def test_quadratic_field_takes_every_factorable_d():
    # D_K = 4d lies past FACTOR_LIMIT, but fundamental_disc strips the 4 and factors d
    d = -999999999989
    fd = quadratic_field(d)
    assert fd.disc_field == fd.poly_disc == 4 * d
    assert fundamental_disc(4 * d) == 4 * d and fundamental_disc(-4) == -4 and fundamental_disc(8) == 8
    sieve = sieve_primes(2000)
    table = frobenius_table(fd, sieve, sieve.limit)
    for p, cls in zip(sieve.primes.tolist(), _class_codes(table).tolist()):
        chi = kronecker_symbol(4 * d, p)
        assert cls == (RAMIFIED if chi == 0 else (chi == -1)), p
    with pytest.raises(ParameterOutOfRange):
        quadratic_field(-(10**12 + 3))  # d itself past FACTOR_LIMIT


def test_quadratic_field_past_factor_limit_names_field_and_d():
    # as a catalog row past FACTOR_LIMIT is named with its D_K
    with pytest.raises(ParameterOutOfRange) as err:
        quadratic_field(-(10**12 + 3))
    assert str(err.value) == (
        "quad(-1000000000003): d = -1000000000003 cannot be checked:"
        " factoring inputs above 1000000000000 is not supported"
    )


def test_catalog_parsing():
    text = """
# comment line
myquad | 1 0 1 | C2 | -4
cubic  | -1 -1 0 1 | S3 | -12167
"""
    fields = parse_catalog(text, source="inline")
    assert [fd.name for fd in fields] == ["myquad", "cubic"]
    assert fields[0].defining_poly == (1, 0, 1)
    assert fields[1].group.name == "S3"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("bad line with no pipes", "inline:1"),
        ("x | 1 2 | C2 | 5 | extra", "inline:1"),
        ("x | 1 a 1 | C2 | 5", "non-integer coefficient"),
        ("x | 1 0 1 | C2 | eek", "non-integer discriminant"),
        ("x | 1 0 1 | Zp | 5", "inline:1"),
        ("x | 1 0 2 | C2 | 5", "monic"),
    ],
)
def test_catalog_malformed_lines(line, fragment):
    with pytest.raises(CatalogError) as err:
        parse_catalog(line, source="inline")
    assert fragment in str(err.value)


def test_catalog_line_numbers():
    text = "good | 1 0 1 | C2 | -4\n\n# fine\nbroken | nope | C2 | 1"
    with pytest.raises(CatalogError) as err:
        parse_catalog(text, source="cat")
    assert "cat:4" in str(err.value)


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("1 0 1 | C2 | -3", "disc f / D_K = -4 / -3"),  # x^2 + 1 generates Q(i), D_K = -4
        ("200003 0 1 | C2 | -800012", "D_K = -800012"),  # D_K = -200003: 4 * D_K is not fundamental
        ("-1 0 1 | C2 | -4", "disc f / D_K = 4 / -4"),  # reducible: disc f is a square
        ("-4 0 1 | C2 | 1", "D_K = 1"),  # reducible, and 1 is no quadratic discriminant
        ("-250000000001 -1 1 | C2 | 1000000000005", "factoring"),  # D_K past FACTOR_LIMIT cannot be checked
        # 4 (10^12 + 5): past FACTOR_LIMIT once the 4 is stripped; the message names the row and D_K
        ("-1000000000005 0 1 | C2 | 4000000000020", "bad: D_K = 4000000000020 cannot be checked: factoring"),
    ],
    ids=["x2p1", "x2p200003", "x2m1", "x2m4", "unfactorable", "unfactorable4m"],
)
def test_catalog_rejects_wrong_quadratic_discriminant(row, fragment):
    # chi_{D_K} classifies every prime of a catalog quadratic, so D_K must be
    # fundamental, not 1, and disc f / D_K a nonzero square
    text = f"good | 1 0 1 | C2 | -4\n# fine\nbad | {row}\ncubic | -1 -1 0 1 | S3 | -12167\n"
    with pytest.raises(CatalogError) as err:
        parse_catalog(text, source="cat")
    assert str(err.value).startswith("cat:3: ") and fragment in str(err.value)


@pytest.mark.parametrize(
    "row",
    [
        "w | -1 -1 0 1 | S3 | -161",  # disc f = -23, and 7 cannot ramify
        "q | 1 0 1 | C1 | 5",  # x^2 + 1 has disc -4
        "r | 0 1 | C1 | -3",  # Q itself ramifies nowhere
    ],
    ids=["w", "x2p1", "x"],
)
def test_catalog_rejects_d_k_primes_off_disc_f(row):
    # a prime ramified in K ramifies in k, so it divides disc f
    with pytest.raises(CatalogError, match="^cat:2: .*: D_K = .* has a prime factor that does not divide disc f = "):
        parse_catalog(f"good | 1 0 1 | C2 | -4\n{row}\n", source="cat")


@pytest.mark.parametrize(
    "row,fragment",
    [
        # an S4 quartic declared A4, and the A4 test quartic declared S4
        ("liar | -1 -1 0 0 1 | A4 | -283", "liar: disc f = -283 is not a square, so G is not in A4, but A4 is"),
        ("a4s4 | 12 8 0 0 1 | S4 | 576", "a4s4: disc f = 331776 is a square, so G is in A4, but S4 is not"),
        ("s3a3 | -1 -1 0 1 | A3 | -23", "s3a3: disc f = -23 is not a square, so G is not in A3, but A3 is"),
        ("c2cubic | -1 -1 0 1 | C2 | -23", "c2cubic: |C2| = 2 is not a multiple of deg f = 3"),
        ("d8cubic | -1 -1 0 1 | D8 | -23", "d8cubic: |D8| = 8 is not a multiple of deg f = 3"),
    ],
    ids=["liar", "a4s4", "s3a3", "c2cubic", "d8cubic"],
)
def test_catalog_rejects_group_tags_the_polynomial_disproves(row, fragment):
    # G permutes the deg f roots transitively, and lies in A_n exactly when disc f is a square
    with pytest.raises(CatalogError) as err:
        parse_catalog(f"good | 1 0 1 | C2 | -4\n# fine\n{row}\n", source="cat")
    assert str(err.value) == f"cat:3: {fragment}"


def test_catalog_keeps_group_tags_that_fit():
    # a square disc f with an alternating tag, a non-square one with a symmetric tag
    rows = ["a3 | -1 -2 1 1 | A3 | 49", "a4 | 12 8 0 0 1 | A4 | 331776", "a5 | 16 20 0 0 0 1 | A5 | 1024000000",
            "s4 | -1 -1 0 0 1 | S4 | -283", "s2 | 1 0 1 | S2 | -4", "c6 | 1 1 1 1 1 1 1 | C6 | -16807"]
    assert [fd.group.name for fd in parse_catalog("\n".join(rows))] == ["A3", "A4", "A5", "S4", "S2", "C6"]


def test_catalog_keeps_d_k_within_disc_f_primes():
    # every prime of D_K divides disc f, with any exponents: s3x2 (disc f = 2^6 (-23)),
    # bad5 (index divisor 2), the demo quadratics and the built-ins as catalog rows,
    # renamed, as a catalog row may not reuse a built-in's name
    rows = ["s3x2 | -8 -4 0 1 | S3 | -12167", "bad5 | -5 0 1 | C2 | 5", "s3 | -1 -1 0 1 | S3 | -12167"]
    rows += [f"row_{fd.name} | {' '.join(map(str, fd.defining_poly))} | {fd.group.name} | {fd.disc_field}"
             for fd in BUILTIN_CATALOG.values()]
    assert [fd.name for fd in parse_catalog("\n".join(rows))] == [row.split(" | ")[0] for row in rows]
    assert len(load_catalog(DEMO_CATALOG)) == 20


def test_catalog_refuses_a_repeated_name():
    # the later row could not be reached by name, and a family keyed by name lost it
    text = "a | 1 0 1 | C2 | -4\n# another field under the same name\na | -2 0 1 | C2 | 8\n"
    with pytest.raises(CatalogError) as err:
        parse_catalog(text, source="cat")
    assert str(err.value) == "cat:3: field name 'a' is already used on line 1"


@pytest.mark.parametrize("args,fix,message", [
    (("w", (-1, -1, 0, 1), "S3", -161), {"disc_field": -12167},
     "w: D_K = -161 has a prime factor that does not divide disc f = -23"),
    (("liar", (-1, -1, 0, 0, 1), "A4", -283), {"group": build_group("S4")},
     "liar: disc f = -283 is not a square, so G is not in A4, but A4 is"),
    (("a4s4", (12, 8, 0, 0, 1), "S4", 576), {"group": build_group("A4")},
     "a4s4: disc f = 331776 is a square, so G is in A4, but S4 is not"),
], ids=["w", "liar", "a4s4"])
def test_descriptors_built_in_code_meet_the_catalog_checks(args, fix, message):
    # the constructor runs every check, so a field built in code, by _replace
    # or by unpickling is refused as its catalog row is, without the line prefix
    name, poly, group, disc = args
    bad = {"name": name, "defining_poly": poly, "group": build_group(group), "disc_field": disc}
    good = FieldDescriptor(**{**bad, **fix})
    smuggled = tuple.__new__(FieldDescriptor, (*bad.values(), None, good.poly_disc))  # past the constructor
    for build in (lambda: FieldDescriptor(**bad), lambda: good._replace(**bad),
                  lambda: pickle.loads(pickle.dumps(smuggled))):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message


BUILTIN_TABLE = {  # name -> polynomial (constant first), group, D_K, conductor of the residue action
    "rational": ((0, 1), "C1", 1, None),
    "gaussian": ((1, 0, 1), "C2", -4, 4),
    "sqrt5": ((-1, -1, 1), "C2", 5, 5),
    "zeta5": ((1, 1, 1, 1, 1), "C4", 125, 5),
    "cyclo7plus": ((-1, -2, 1, 1), "C3", 49, 7),
    "zeta7": ((1, 1, 1, 1, 1, 1, 1), "C6", -16807, 7),
    "s3cubic": ((-1, -1, 0, 1), "S3", -12167, None),
}


def test_builtins_are_the_pinned_rows():
    got = {name: (fd.defining_poly, fd.group.name, fd.disc_field,
                  None if fd.residue_action is None else fd.residue_action.conductor)
           for name, fd in BUILTIN_CATALOG.items()}
    assert list(got.items()) == list(BUILTIN_TABLE.items())
    assert all(fd.name == name for name, fd in BUILTIN_CATALOG.items())


def _import_fields_with(old, new):
    """Run the source of ``fields`` with ``old`` replaced by ``new``, as an import of it would."""
    source = inspect.getsource(fields)
    assert source.count(old) == 1
    module = types.ModuleType("chebotarev_lab._fields_variant")
    module.__package__ = "chebotarev_lab"
    exec(compile(source.replace(old, new), fields.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("old,new,message", [
    ("| S3 | -12167", "| A3 | -12167", "<built-in>:7: s3cubic: disc f = -23 is not a square, so G is not in A3,"
                                       " but A3 is"),
    ("| C3 | 49", "| S3 | 49", "<built-in>:5: cyclo7plus: disc f = 49 is a square, so G is in A3, but S3 is not"),
    ("| C2 | -4 ", "| C3 | -4 ", "<built-in>:2: gaussian: |C3| = 3 is not a multiple of deg f = 2"),
    ("| S3 | -12167", "| S3 | -161  ", "<built-in>:7: s3cubic: D_K = -161 has a prime factor that does not divide"
                                       " disc f = -23"),
], ids=["s3cubic-A3", "cyclo7plus-S3", "gaussian-C3", "s3cubic-D_K"])
def test_builtin_rows_pass_the_catalog_checks(old, new, message):
    # the built-ins are catalog rows, so a wrong tag or D_K fails the import at its line
    assert _import_fields_with(old, old).BUILTIN_CATALOG == BUILTIN_CATALOG
    with pytest.raises(CatalogError) as err:
        _import_fields_with(old, new)
    assert str(err.value) == message


def test_builtin_lookup():
    assert builtin_field("gaussian").disc_field == -4
    with pytest.raises(CatalogError):
        builtin_field("missing")


# -- Frobenius tables against the single-prime route --------------------------

# x^3 + a x^2 + 1 has discriminant -4 a^3 - 27 = -5 * 11 * 109 * 1546499 * q for
# this a, with q a 49-digit number; the field discriminant takes all of it but
# 5 and 109, which stay index divisors
BIG_COEFF = 2**64 + 12
# a4quartic and a5quintic: groups acting on the roots that are not symmetric,
# so the split cycle types (3) and (5) leave those classes ambiguous; their
# D_K is disc f, whose primes {2, 3} and {2, 5} are all classification reads
TABLE_ROWS = """
s3row | -1 -1 0 1 | S3 | -12167
bad5  | -5 0 1 | C2 | 5
s4quartic | -1 -1 0 0 1 | S4 | -283
a4quartic | 12 8 0 0 1 | A4 | 331776
a5quintic | 16 20 0 0 0 1 | A5 | 1024000000
"""


def _big():
    return FieldDescriptor(name="big", defining_poly=(1, 0, BIG_COEFF, 1), group=build_group("S3"),
                           disc_field=(-4 * BIG_COEFF**3 - 27) // (5 * 109))


def _zeta5blind():
    # zeta5's polynomial without its residue action: order-4 classes are inseparable
    z5 = BUILTIN_CATALOG["zeta5"]
    return FieldDescriptor(name="zeta5blind", defining_poly=z5.defining_poly, group=z5.group, disc_field=z5.disc_field)


def _table_fields():
    return list(BUILTIN_CATALOG.values()) + [_zeta5blind()] + parse_catalog(TABLE_ROWS, source="inline") + [_big()]


def _assert_table_matches(fd, sieve, x):
    """The table of the primes p <= x against the factoring oracle, prime by prime."""
    table = frobenius_table(fd, sieve, x)
    assert table.primes.tolist() == sieve.upto(x).tolist()
    cls = _class_codes(table).tolist()
    for i, p in enumerate(table.primes.tolist()):
        data, record = frobenius_data_by_factoring(fd, p), table.kinds[table.kind[i]]
        assert record == data, (fd.name, p)
        if data.ramified:
            want = (RAMIFIED, None)
        else:
            want = (UNRESOLVED if data.conjugacy_class is None else data.conjugacy_class.index, data.frobenius_order)
        assert (cls[i], record.frobenius_order) == want, (fd.name, p)


@pytest.mark.parametrize("fd", _table_fields(), ids=lambda fd: fd.name)
def test_frobenius_table_matches_frobenius_data(fd):
    sieve = sieve_primes(2 * 10**4)
    primes = sieve.primes
    # a prefix first, then the whole sieve: the second call classifies the tail
    _assert_table_matches(fd, sieve, int(primes[499]))
    _assert_table_matches(fd, sieve, sieve.limit)
    _assert_table_matches(fd, sieve, int(primes[99]))


def _primes_below(n, count):
    small = sieve_primes(math.isqrt(n) + 1).primes.tolist()
    out = []
    m = n
    while len(out) < count:
        m -= 1
        if all(m % q for q in small if q * q <= m):
            out.append(m)
    return np.array(out[::-1], dtype=np.int64)


def test_frobenius_table_near_sieve_cap():
    # p^2 near 10^16: the int64 products of the trace route must not wrap
    sieve = PrimeSieve(limit=SIEVE_CAP, primes=_primes_below(SIEVE_CAP, 20))
    for fd in _table_fields():
        _assert_table_matches(fd, sieve, SIEVE_CAP)


def test_frobenius_table_huge_coefficients():
    # coefficient and discriminants above 2^63 reduce exactly mod each prime
    fd = _big()
    assert BIG_COEFF > 2**63 and abs(fd.disc_field) > 2**63 and abs(fd.poly_disc) > 2**63
    sieve = sieve_primes(2 * 10**4)
    small = sieve.primes
    assert [p for p in small.tolist() if fd.poly_disc % p == 0 and fd.disc_field % p] == [5, 109]
    table = frobenius_table(fd, sieve, sieve.limit)
    ramified = {p for p, c in zip(small.tolist(), _class_codes(table).tolist()) if c == RAMIFIED}
    assert ramified == {5, 11, 109}  # the index divisors and the one prime of D_K below the sieve limit
    _assert_table_matches(fd, sieve, sieve.limit)


# -- quadratics: chi_{D_K} by Euler's criterion -----------------------------------

DEMO_CATALOG = Path(__file__).resolve().parents[1] / "demos" / "catalog_quadratics.txt"
# index divisors (2 for bad5, 2 and 3 for x^2 - 45) and an odd disc f
KRONECKER_ROWS = """
bad5  | -5 0 1 | C2 | 5
x2m45 | -45 0 1 | C2 | 5
x2px3 | 3 1 1 | C2 | -11
"""


def _assert_kronecker(fd, sieve, x):
    """The table of p <= x: chi_{D_K}(p) per prime, and the type of f mod p off disc f."""
    table = frobenius_table(fd, sieve, x)
    want = {0: (True, None, None), 1: (False, 0, 1), -1: (False, 1, 2)}  # (ramified, class index, order) by chi
    for p, k in zip(table.primes.tolist(), table.kind.tolist()):
        data = table.kinds[k]
        index = None if data.conjugacy_class is None else data.conjugacy_class.index
        assert (data.ramified, index, data.frobenius_order) == want[kronecker_symbol(fd.disc_field, p)], (fd.name, p)
        if fd.poly_disc % p:
            ftype = tuple(d for d, _ in factor_poly_mod_p(fd.defining_poly, p))
            assert data.factorization_type == ftype, (fd.name, p)


@pytest.mark.parametrize(
    "fd", load_catalog(DEMO_CATALOG) + parse_catalog(KRONECKER_ROWS, source="inline"), ids=lambda fd: fd.name
)
def test_kronecker_route_matches_frobenius_data(fd):
    sieve = sieve_primes(2 * 10**4)
    primes = sieve.primes
    assert fd.residue_action is None
    # growing prefixes, each classified by the same route
    for n in (1, 2, 3, 10, 100, 1000, primes.size):
        _assert_table_matches(fd, sieve, int(primes[n - 1]))
        _assert_kronecker(fd, sieve, int(primes[n - 1]))
    _assert_table_matches(fd, sieve, int(primes[99]))


def test_wide_quadratics_build_at_once():
    # |D_K| past 10^6: no residue table, no size cap
    start = time.perf_counter()
    wide = [parse_catalog("wide | -250007 0 1 | C2 | 1000028", source="inline")[0], quadratic_field(1000003)]
    assert time.perf_counter() - start < 0.1
    assert [fd.disc_field for fd in wide] == [1000028, 4000012]
    sieve = sieve_primes(2 * 10**4)
    for fd in wide:
        _assert_kronecker(fd, sieve, sieve.limit)
        _assert_table_matches(fd, sieve, sieve.limit)


def test_quadratic_index_divisors_get_their_true_class():
    # 2 divides disc(x^2 + 200003) = 4 (-200003) but not D_K; 2 and 3 divide disc(x^2 - 45)
    sieve = sieve_primes(2 * 10**4)
    big, bad5 = parse_catalog("big | 200003 0 1 | C2 | -200003\nbad5 | -45 0 1 | C2 | 5", source="inline")
    for fd, twin, divisors in ((big, quadratic_field(-200003), (2,)), (bad5, quadratic_field(5), (2, 3))):
        assert splitting_tally(fd, sieve.limit, sieve) == splitting_tally(twin, sieve.limit, sieve)
        table = frobenius_table(fd, sieve, 100)
        for p in divisors:
            data = frobenius_data(fd, p)
            assert not data.ramified and data == frobenius_data(twin, p)
            assert _class_codes(table)[sieve.count_leq(p) - 1] == data.conjugacy_class.index
    assert splitting_tally(bad5, 100, sieve).ramified == 1
    assert frobenius_data(bad5, 3).conjugacy_class.label == "2"  # 3 is inert in Q(sqrt 5)


# -- memo growth: a rising-x session reads ahead in the sieve ---------------------

GROWTH_FIELDS = {"s3cubic": BUILTIN_CATALOG["s3cubic"], "zeta5blind": _zeta5blind(),
                 # a catalog quadratic, classified by chi_{1004} from its first prime on
                 "mid": parse_catalog("mid | -251 0 1 | C2 | 1004", source="inline")[0]}


def _classified(monkeypatch):
    """(table memo, prime count) of every ``_classify`` call from now on."""
    log = []
    classify = fields._TableMemo._classify

    def counting(self, primes):
        log.append((self, primes.size))
        return classify(self, primes)

    monkeypatch.setattr(fields._TableMemo, "_classify", counting)
    return log


def _rows(table):
    return [table.kinds[k] for k in table.kind.tolist()]


@pytest.mark.parametrize("name", sorted(GROWTH_FIELDS))
def test_rising_x_session_classifies_log_many_times(name, monkeypatch):
    fd = GROWTH_FIELDS[name]
    sieve = sieve_primes(10**5)  # a new sieve keeps no tables yet
    xs = np.geomspace(500, sieve.limit, 20)
    log = _classified(monkeypatch)
    for x in xs:
        table = frobenius_table(fd, sieve, x)
        assert sieve.derived[fd].kind.size <= len(sieve), x
        cold = PrimeSieve(limit=sieve.limit, primes=sieve.primes)  # the same primes, classified afresh
        assert _rows(table) == _rows(frobenius_table(fd, cold, x)), x
    memo = sieve.derived[fd]
    calls = [size for owner, size in log if owner is memo]
    assert len(calls) <= math.ceil(math.log2(sieve.count_leq(xs[-1]) / sieve.count_leq(xs[0]))) + 1
    assert sum(calls) == len(sieve)  # every prime once


def test_session_below_the_floor_classifies_each_field_once(monkeypatch):
    sieve = sieve_primes(8000)  # 1007 primes, fewer than the read-ahead floor
    xs = np.geomspace(20, sieve.limit, 12)
    log = _classified(monkeypatch)
    for name, fd in sorted(GROWTH_FIELDS.items()):
        for x in xs:
            cold = PrimeSieve(limit=sieve.limit, primes=sieve.primes)
            assert _rows(frobenius_table(fd, sieve, x)) == _rows(frobenius_table(fd, cold, x)), (name, x)
            assert _class_tally(fd, sieve, x) == _class_tally(fd, cold, x), (name, x)
        memo = sieve.derived[fd]
        assert [size for owner, size in log if owner is memo] == [len(sieve)], name


def test_cold_request_classifies_exactly_pi_x(monkeypatch):
    fd = BUILTIN_CATALOG["s3cubic"]
    sieve = sieve_primes(10**5)
    log = _classified(monkeypatch)
    frobenius_table(fd, sieve, 2 * 10**4)
    assert log == [(sieve.derived[fd], sieve.count_leq(2 * 10**4))]


def test_memo_hit_from_the_same_sieve_compares_no_primes(monkeypatch):
    fd = BUILTIN_CATALOG["s3cubic"]
    sieve = sieve_primes(10**4)
    compared = []
    array_equal = np.array_equal

    def counting(a, b):
        compared.append(a.size)
        return array_equal(a, b)

    monkeypatch.setattr(np, "array_equal", counting)
    log = _classified(monkeypatch)
    for x in (100, 5000, 3000, sieve.limit, 7000):  # extensions and hits
        frobenius_table(fd, sieve, x)
    memo = sieve.derived[fd]
    assert [owner for owner, _ in log] == [memo] * len(log)
    assert sum(size for _, size in log) == len(sieve)  # each prime once
    # a twin sieve with the same primes gets a table of its own, still comparing
    # none; asked for pi(2000) = 303 primes, it reads ahead to the floor of 2^10
    twin = sieve_primes(10**4)
    del log[:]
    _assert_table_matches(fd, twin, 2000)
    assert log == [(twin.derived[fd], 1024)]
    assert twin.derived[fd] is not memo
    assert compared == []


def test_memo_restarts_on_a_sieve_with_other_primes(monkeypatch):
    fd = BUILTIN_CATALOG["s3cubic"]
    sieve = sieve_primes(10**4)
    frobenius_table(fd, sieve, sieve.limit)
    memo = sieve.derived[fd]
    # hand-built: 101 left out, so its 26th prime differs from the first sieve's
    other = PrimeSieve(limit=sieve.limit, primes=sieve.primes[sieve.primes != 101])
    log = _classified(monkeypatch)
    _assert_table_matches(fd, other, 5000)
    assert other.count_leq(5000) == 668  # read ahead to the floor of 2^10
    assert log == [(other.derived[fd], 1024)]
    # and back: the first sieve still holds its own table and classifies nothing
    _assert_table_matches(fd, sieve, 5000)
    assert log[1:] == [] and sieve.derived[fd] is memo


def test_table_lives_as_long_as_its_sieve():
    fd = BUILTIN_CATALOG["s3cubic"]
    state = tuple(fd)
    sieve = sieve_primes(10**4)
    frobenius_table(fd, sieve, 7000)
    assert sieve.derived[fd].kind.size == 1024  # pi(7000) = 900, read ahead to 2^10
    # the table goes with its sieve, and the descriptor holds nothing of it
    ref = weakref.ref(sieve)
    del sieve
    gc.collect()
    assert ref() is None
    assert tuple(fd) == state


def test_cycle_counts_of_quadratics():
    # the trace route at n = 2, which quadratics no longer take
    primes = sieve_primes(2 * 10**4).primes
    for poly in ((1, 0, 1), (3, 1, 1)):  # x^2 + 1, x^2 + x + 3
        disc = poly[1] ** 2 - 4 * poly[0]
        usable = primes[(primes > 2) & (disc % primes != 0)]
        for p, row in zip(usable.tolist(), _cycle_counts(poly, usable).tolist()):
            degrees = [d for d, _ in factor_poly_mod_p(poly, p)]
            assert row == [degrees.count(1), degrees.count(2)], (poly, p)


# x^3 + 3x^2 - 98765x + 123457, x^4 - 5x^2 + 5, Phi_7, a degree-10 polynomial and Phi_13
_KERNEL_POLYS = {
    3: (123457, -98765, 3, 1),
    4: (5, 0, -5, 0, 1),
    6: (1,) * 7,
    10: (3, 1, -2, 0, 5, 0, 0, 1, 0, -1, 1),
    12: (1,) * 13,
}


def _kernel_primes(poly):
    """The first 120 usable primes and the 6 largest below the overflow bound n (p-1)^2 < 2^63."""
    n, disc = len(poly) - 1, poly_discriminant(list(poly))
    usable = [p for p in sieve_primes(5000).primes.tolist() if p > n and disc % p][:120]
    p = math.isqrt((2**63 - 1) // n)
    while len(usable) < 126:
        if is_prime_trial(p) and disc % p:
            usable.append(p)
        p -= 1
    return np.array(usable, dtype=np.int64)


@pytest.mark.parametrize("chunk", [fields._CHUNK_ENTRIES, 1000])
@pytest.mark.parametrize("degree", sorted(_KERNEL_POLYS))
def test_cycle_counts_match_scalar_factorization(degree, chunk, monkeypatch):
    # the vectorised kernel against the scalar distinct-degree factorization
    # of gfpoly, a different algorithm; a small chunk makes blocks of a few
    # primes, so block boundaries are crossed
    monkeypatch.setattr(fields, "_CHUNK_ENTRIES", chunk)
    poly = _KERNEL_POLYS[degree]
    primes = _kernel_primes(poly)
    for p, row in zip(primes.tolist(), _cycle_counts(poly, primes).tolist()):
        degrees = [d for d, _ in factor_poly_mod_p(poly, p)]
        assert row == [degrees.count(d) for d in range(1, degree + 1)], (degree, p)


_A5_QUINTIC = parse_catalog("a5quintic | 16 20 0 0 0 1 | A5 | 1024000000", source="inline")[0]


@pytest.mark.parametrize("fd", [BUILTIN_CATALOG["s3cubic"], _A5_QUINTIC], ids=lambda fd: fd.name)
def test_cycle_counts_match_frobenius_data_at_the_overflow_bound(fd):
    # the kernel leaves each product unreduced until it folds it, so its
    # entries reach n (p-1)^2; the largest primes with n (p-1)^2 < 2^63 lie
    # past the sieve cap, so they are passed in directly
    n = len(fd.defining_poly) - 1
    primes = []
    p = math.isqrt((2**63 - 1) // n)
    while len(primes) < 4:
        if is_prime_trial(p) and not fd.is_ramified(p):
            primes.append(p)
        p -= 1
    assert primes[0] > SIEVE_CAP
    for p, row in zip(primes, _cycle_counts(fd.defining_poly, np.array(primes, dtype=np.int64)).tolist()):
        degrees = frobenius_data_by_factoring(fd, p).factorization_type
        assert row == [degrees.count(d) for d in range(1, n + 1)], (fd.name, p)


# -- the rank route of frobenius_data against the factoring oracle ---------------

ROUTE_FIELDS = _table_fields() + load_catalog(DEMO_CATALOG)
LARGEST_BELOW_FACTOR_LIMIT = 999999999989  # the largest prime below arith.FACTOR_LIMIT = 10^12
MERSENNE_61 = 2**61 - 1  # past the int64 bound of the vectorised routes


@pytest.mark.parametrize("fd", ROUTE_FIELDS, ids=lambda fd: fd.name)
def test_rank_route_matches_the_factoring_oracle(fd, sieve_small):
    # frobenius_data at every p <= 10^4, p <= deg f included, and with the
    # table at two primes past the trace kernel's bound; the table's primes
    # p <= 2 * 10^4 are checked above
    for p in sieve_small.primes.tolist() + [LARGEST_BELOW_FACTOR_LIMIT, MERSENNE_61]:
        assert frobenius_data(fd, p) == frobenius_data_by_factoring(fd, p), (fd.name, p)
    far = PrimeSieve(limit=MERSENNE_61, primes=[LARGEST_BELOW_FACTOR_LIMIT, MERSENNE_61])
    _assert_table_matches(fd, far, MERSENNE_61)


# primes past the 16-bit Horner step's int64 bound 2^47, up to the largest int64 prime
HORNER_PAST = [2**47 + 5, 2**55 - 55, MERSENNE_61, 2**63 - 25]


@pytest.mark.parametrize("fd", list(BUILTIN_CATALOG.values()) + [_big()], ids=lambda fd: fd.name)
def test_mod_primes_is_exact_for_every_int64_prime(fd):
    # the residues the table's ramified masks read; a block mixes small and large primes
    primes = np.array([2, 3, 999999999989, *HORNER_PAST, 2**47 - 115], dtype=np.int64)
    for value in (fd.disc_field, -fd.disc_field, fd.poly_disc, -fd.poly_disc):
        assert _mod_primes(value, primes).tolist() == [value % p for p in primes.tolist()], (fd.name, value)


@pytest.mark.parametrize("call", [
    lambda: frobenius_data(BUILTIN_CATALOG["gaussian"], 9),
    lambda: euler_factor_series(BUILTIN_CATALOG["gaussian"], 9, 3),
    lambda: frobenius_data(BUILTIN_CATALOG["s3cubic"], 4),
    lambda: frobenius_data(BUILTIN_CATALOG["s3cubic"], 0),
    lambda: frobenius_data(BUILTIN_CATALOG["s3cubic"], -7),
    lambda: coeff_a_KxK_prime(BUILTIN_CATALOG["s3cubic"], BUILTIN_CATALOG["gaussian"], 0, 2),
    lambda: coeff_a_KxK_prime(BUILTIN_CATALOG["s3cubic"], BUILTIN_CATALOG["gaussian"], 9, 2),
    lambda: coeff_a_KxK_prime(BUILTIN_CATALOG["s3cubic"], BUILTIN_CATALOG["gaussian"], -7, 2),
], ids=["gaussian-9", "euler-gaussian-9", "s3cubic-4", "s3cubic-0", "s3cubic-minus-7",
        "KxK-0", "KxK-9", "KxK-minus-7"])
def test_a_p_that_is_not_a_prime_is_refused(call):
    # 9 used to read as a split prime, 4 and 0 raised bare ValueError and
    # ZeroDivisionError, and -7 returned a record; a_{KxK'} tested p = 0 for
    # ramification first, a bare ZeroDivisionError
    with pytest.raises(ParameterOutOfRange, match="is not a prime"):
        call()


def test_blind_class_count_names_first_ambiguous_prime(sieve_small):
    blind = _zeta5blind()
    with pytest.raises(AmbiguousClass, match=r"at p=2;"):
        pi_C_count(blind, blind.group.class_by_label("4a"), 10**3, sieve_small)


def test_memo_holds_one_int16_per_prime():
    sieve = sieve_primes(2 * 10**4)
    for fd in _table_fields():
        table = frobenius_table(fd, sieve, 5000)
        memo = sieve.derived[fd]
        # the element-to-kind and residue arrays are as small as the group and the conductor
        per_prime = {name for name, value in vars(memo).items() if isinstance(value, np.ndarray) and value.size > 100}
        assert per_prime == {"kind"} and memo.kind.dtype == np.int16, fd.name
        assert table.kind.dtype == np.int16 and not table.kind.flags.writeable and not table.primes.flags.writeable
        assert len(set(table.kinds)) == len(table.kinds), fd.name  # one record per kind


@pytest.mark.parametrize("fd", _table_fields(), ids=lambda fd: fd.name)
def test_counts_agree_with_the_per_prime_arrays(fd):
    # every count reads the tally of kinds; the per-prime cls and order say the same
    sieve = sieve_primes(2 * 10**4)
    classes = fd.group.classes
    ambiguous = set()
    for x in (100, 5000, sieve.limit):
        table = frobenius_table(fd, sieve, x)
        cls = _class_codes(table)
        order = np.array([data.frobenius_order or 0 for data in table.kinds])[table.kind]  # 0 where ramified
        tally = splitting_tally(fd, x, sieve)
        assert tally.by_class == {c.label: np.count_nonzero(cls == c.index) for c in classes}, x
        assert tally.ramified == np.count_nonzero(cls == RAMIFIED), x
        assert tally.unresolved == np.count_nonzero(cls == UNRESOLVED), x
        for c in classes:
            if np.any((cls == UNRESOLVED) & (order == c.order)):
                with pytest.raises(AmbiguousClass):
                    pi_C_count(fd, c, x, sieve)
                ambiguous.add(c.label)
            else:
                assert pi_C_count(fd, c, x, sieve).count == np.count_nonzero(cls == c.index), (x, c.label)
        for d in {c.order for c in classes}:
            assert pi_C_count(fd, d, x, sieve).count == np.count_nonzero(order == d), (x, d)
    split = {"zeta5blind": 4, "a4quartic": 3, "a5quintic": 5}.get(fd.name)  # the order of the inseparable classes
    assert ambiguous == {c.label for c in classes if c.order == split}


# -- class tallies: every count reads one memoised tally per x ----------------------

HISTOGRAM_FIELDS = [*BUILTIN_CATALOG.values(), quadratic_field(-3), quadratic_field(15), _zeta5blind(),
                    *parse_catalog(TABLE_ROWS, source="inline")]


def _scalar_tally(fd, sieve, x):
    """The oracle: (pi(x), counts by class index, ramified, ambiguous by order) of
    the primes p <= x, from the factoring oracle one prime at a time."""
    records = Counter(frobenius_data_by_factoring(fd, p) for p in sieve.upto(x).tolist())
    by_class, ramified, unresolved = [0] * len(fd.group.classes), 0, Counter()
    for data, n in records.items():
        if data.ramified:
            ramified += n
        elif data.ambiguous:
            unresolved[data.frobenius_order] += n
        else:
            by_class[data.conjugacy_class.index] += n
    return sum(records.values()), tuple(by_class), ramified, dict(unresolved)


@pytest.mark.parametrize("fd", HISTOGRAM_FIELDS, ids=lambda fd: fd.name)
def test_class_histogram_matches_scalar_oracle(fd):
    sieve = sieve_primes(3000)
    p = sieve.primes.tolist()
    # a first request classifies primes[:101]; then x at, below and above the
    # kept prime count, back to it, below the prefix, across two extensions
    # of the table, at no prime at all and at the whole sieve
    for x in (p[100], p[100], p[100] - 0.5, p[100] + 0.5, p[100], p[50] + 0.5, p[150], p[150] + 0.5,
              p[300] - 0.5, p[300], 1.5, sieve.limit):
        tally = _class_tally(fd, sieve, x)
        assert tally == _scalar_tally(fd, sieve, x), (fd.name, x)
        assert all(n > 0 for n in tally.unresolved.values()), (fd.name, x)  # orders without a prime are left out


def test_class_histogram_in_any_order():
    # fields, sieves and x interleaved: a tally never answers for another
    # field, sieve object or x.  The twin sieve holds the same primes as the
    # first; the holed one lacks 3 and 547, so a tally read back for the
    # wrong sieve would differ.  Tallies handed out earlier keep their counts
    first, twin = sieve_primes(2000), sieve_primes(2000)
    holed = PrimeSieve(limit=first.limit, primes=np.delete(first.primes, [1, 100]))
    fds = [BUILTIN_CATALOG["gaussian"], BUILTIN_CATALOG["zeta7"], BUILTIN_CATALOG["s3cubic"], quadratic_field(15)]
    queries = [(fd, sieve, x) for fd in fds for sieve in (first, twin, holed) for x in (2, 97, 546.5, 547, 1009.5, 2000)]
    order = queries * 2
    random.Random(5).shuffle(order)
    want, handed = {}, []
    for fd, sieve, x in order:
        key = (fd.name, id(sieve), x)
        if key not in want:
            want[key] = _scalar_tally(fd, sieve, x)
        tally = _class_tally(fd, sieve, x)
        assert tally == want[key], (fd.name, sieve.primes.size, x)
        handed.append((tally, want[key]))
    assert all(tally == counts for tally, counts in handed)


def test_class_histogram_is_read_only(sieve_small):
    fd = BUILTIN_CATALOG["zeta7"]
    tally = _class_tally(fd, sieve_small, 5000)
    with pytest.raises(AttributeError):
        tally.by_class = ()
    with pytest.raises(TypeError):
        tally.by_class[0] = 0
    assert _class_tally(fd, sieve_small, 5000) == _scalar_tally(fd, sieve_small, 5000)
    assert splitting_tally(fd, 5000, sieve_small).total() == sieve_small.count_leq(5000)


def test_unresolved_of_the_shared_tally_is_read_only():
    # the memo hands one tally to every caller, so a caller that writes to it
    # must not turn a later count's AmbiguousClass into a count of 0
    fd = next(fd for fd in parse_catalog(TABLE_ROWS, source="inline") if fd.name == "a4quartic")
    sieve = sieve_primes(1000)
    unresolved = _class_tally(fd, sieve, 1000).unresolved
    assert unresolved == {3: splitting_tally(fd, 1000, sieve).unresolved} and unresolved[3] > 0
    with pytest.raises(TypeError):
        unresolved[3] = 0
    with pytest.raises(TypeError):
        del unresolved[3]
    with pytest.raises(AttributeError):
        unresolved.clear()
    assert _class_tally(fd, sieve, 1000).unresolved == unresolved
    with pytest.raises(AmbiguousClass):
        pi_C_count(fd, fd.group.class_by_label("3a"), 1000, sieve)


def test_repeated_query_counts_once(monkeypatch):
    fd = BUILTIN_CATALOG["s3cubic"]
    sieve = sieve_primes(10**4)
    counted = []
    bincount = np.bincount

    def counting(kind, *args, **kwargs):
        counted.append(kind.size)
        return bincount(kind, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    tally = _class_tally(fd, sieve, 5000)
    assert counted == [sieve.count_leq(5000)]
    # the same x, and an x with the same prime count, read the kept tally
    assert _class_tally(fd, sieve, 5000) is tally and _class_tally(fd, sieve, 5000.5) is tally
    for cls in fd.group.classes:
        pi_C_count(fd, cls, 5000, sieve)
    splitting_tally(fd, 5000, sieve)
    assert counted == [sieve.count_leq(5000)]
    # another x counts afresh and is kept in its place
    _class_tally(fd, sieve, 3000)
    _class_tally(fd, sieve, 3000)
    assert counted == [sieve.count_leq(5000), sieve.count_leq(3000)]


# -- group tags checked at table time ----------------------------------------------

# S4 quartics (disc f not a square) tagged with groups of order 4 that the
# parse-time checks cannot disprove, as neither acts on the roots: the Klein
# four-group D4 has no element of order 3 or 4, and C4 none of order 3.
# liar4v is ramified at 2 and 3 (D_K is given as disc f = -2^4 3^2 251), and
# its first misfits are 5 of type (1, 3) and 11 of type (4), whose row np.unique
# sorts first; both lie on the trace route
MISMATCH_ROWS = {
    "liar4": ("liar4 | -1 -1 0 0 1 | D4 | -283", 2, (4,), "of order 4, the order of no element of D4"),
    "s4c4": ("s4c4 | -1 -1 0 0 1 | C4 | -283", 7, (1, 3), "of order 3, the order of no element of C4"),
    "liar4v": ("liar4v | 1 -2 -4 -4 1 | D4 | -36144", 5, (1, 3), "of order 3, the order of no element of D4"),
}


@pytest.mark.parametrize("name", sorted(MISMATCH_ROWS))
def test_group_mismatch_raises_when_the_table_is_built(name):
    row, p, ftype, fits = MISMATCH_ROWS[name]
    (fd,) = parse_catalog(row, source="inline")  # every parse-time check passes
    message = f"{name}: p={p} has factorization type {ftype} {fits}"
    with pytest.raises(GroupMismatch) as err:
        frobenius_data(fd, p)
    assert str(err.value) == message and err.value.code == "GroupMismatch"
    assert isinstance(err.value, ValidationError)
    # the primes below p fit, and the table names the same p: liar4's 2 on the
    # scalar route, s4c4's 7 and liar4v's 5 on the trace route
    for q in (2, 3, 5):
        if q < p:
            frobenius_data(fd, q)
    for call in (lambda s: frobenius_table(fd, s, 1000), lambda s: splitting_tally(fd, 1000, s),
                 lambda s: pi_C_count(fd, 2, 1000, s), lambda s: _class_tally(fd, s, 1000)):
        with pytest.raises(GroupMismatch) as err:
            call(sieve_primes(1000))
        assert str(err.value) == message


def test_on_roots_group_mismatch_names_the_cycle_type(monkeypatch):
    # no catalog tag gets here, since A_n holds every even cycle type and S_n all;
    # so S3 is made to lack its transpositions.  A group acting on the roots is
    # checked by cycle type, and the vectorised route names the smallest prime
    # of that type in the primes it classifies
    fd = BUILTIN_CATALOG["s3cubic"]
    classes_of_cycle_type = type(fd.group).classes_of_cycle_type
    monkeypatch.setattr(type(fd.group), "classes_of_cycle_type",
                        lambda g, ftype: [] if ftype == (1, 2) else classes_of_cycle_type(g, ftype))
    sieve = sieve_primes(2000)
    p = min(q for q in sieve.primes.tolist() if factor_poly_mod_p(fd.defining_poly, q) == [(1, 1), (2, 1)])
    assert p == 5  # above deg f, so on the trace route
    message = f"s3cubic: p={p} has factorization type (1, 2), the cycle type of no element of S3"
    for call in (lambda: frobenius_data(fd, p), lambda: frobenius_table(fd, sieve, 100)):
        with pytest.raises(GroupMismatch) as err:
            call()
        assert str(err.value) == message


# tallies to 10^5 of every built-in, demo and test row, which no group check may
# change: by class in class order, then ramified and unresolved.  s3x2's 2 is an
# index divisor, still counted ramified
TALLIES_TO_1E5 = {
    "rational": (9592, 0, 0),
    "gaussian": (4783, 4808, 1, 0),
    "sqrt5": (4777, 4814, 1, 0),
    "zeta5": (2387, 2390, 2412, 2402, 1, 0),
    "cyclo7plus": (3189, 3214, 3188, 1, 0),
    "zeta7": (1593, 1596, 1584, 1601, 1613, 1604, 1, 0),
    "s3cubic": (1567, 4823, 3201, 1, 0),
    "zeta5blind": (2387, 2390, 0, 0, 1, 4814),
    "s3row": (1567, 4823, 3201, 1, 0),
    "bad5": (4777, 4814, 1, 0),
    "s4quartic": (375, 1186, 2438, 3193, 2399, 1, 0),
    "a4quartic": (785, 2406, 0, 0, 2, 6399),
    "a5quintic": (153, 2400, 3184, 0, 0, 2, 3853),
    "big": (1625, 4777, 3187, 3, 0),
    "s3x2": (1567, 4823, 3200, 2, 0),
    "quad(-1)": (4783, 4808, 1, 0),
    "quad(2)": (4783, 4808, 1, 0),
    "quad(-2)": (4793, 4798, 1, 0),
    "quad(3)": (4771, 4819, 2, 0),
    "quad(-3)": (4784, 4807, 1, 0),
    "quad(5)": (4777, 4814, 1, 0),
    "quad(-5)": (4773, 4817, 2, 0),
    "quad(6)": (4786, 4804, 2, 0),
    "quad(-6)": (4795, 4795, 2, 0),
    "quad(7)": (4762, 4828, 2, 0),
    "quad(-7)": (4778, 4813, 1, 0),
    "quad(10)": (4778, 4812, 2, 0),
    "quad(-10)": (4776, 4814, 2, 0),
    "quad(11)": (4781, 4809, 2, 0),
    "quad(-11)": (4786, 4805, 1, 0),
    "quad(13)": (4786, 4805, 1, 0),
    "quad(-13)": (4766, 4824, 2, 0),
    "quad(14)": (4780, 4810, 2, 0),
    "quad(-14)": (4777, 4813, 2, 0),
    "quad(15)": (4767, 4822, 3, 0),
}


def test_rows_that_fit_their_group_classify_as_before():
    s3x2 = parse_catalog("s3x2 | -8 -4 0 1 | S3 | -12167", source="inline")
    fds = _table_fields() + s3x2 + load_catalog(DEMO_CATALOG)
    sieve = sieve_primes(10**5)
    got = {}
    for fd in fds:
        tally = splitting_tally(fd, sieve.limit, sieve)
        got[fd.name] = (*tally.by_class.values(), tally.ramified, tally.unresolved)
    assert got == TALLIES_TO_1E5
