import math

import pytest

from chebotarev_lab import families
from chebotarev_lab.arith import squarefree_part
from chebotarev_lab.errors import (
    AmbiguousClass,
    EqualFields,
    NotQuadratic,
    ParameterOutOfRange,
    UndecidableIntersectionRule,
    ValidationError,
)
from chebotarev_lab.families import (
    Family,
    avg_cheb_error,
    compositum_disc_check,
    resolvent_square_class,
)
from chebotarev_lab.fields import FieldDescriptor, builtin_field, frobenius_data, parse_catalog, quadratic_field
from chebotarev_lab.groups import build_group
from chebotarev_lab.sieve import sieve_primes

SQUAREFREE_SMALL = [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13, -13, 14, -14, 15]


def quads(ds):
    return tuple(quadratic_field(d) for d in ds)


def test_distinct_quadratics_multiplicity_one():
    fam = Family(fields=quads(SQUAREFREE_SMALL), q_bound=200.0)
    assert fam.intersection_rule == "quadratic-equality"
    assert fam.multiplicity == 1


def test_duplicate_quadratics_counted():
    fields = quads([-1, 2]) + quads([2])
    fam = Family(fields=fields, q_bound=20.0)
    assert fam.multiplicity == 2


def test_multiplicity_monotone_under_adding_fields():
    base = quads([-1, 2, 3])
    fam1 = Family(fields=base, q_bound=20.0)
    fam2 = Family(fields=base + quads([2]) , q_bound=20.0)
    assert fam2.multiplicity >= fam1.multiplicity


def _quintic(name, poly, disc_field=2869):
    return FieldDescriptor(name=name, defining_poly=poly, group=build_group("S5"), disc_field=disc_field)


def test_s5_resolvent_rule():
    # x^5 - x - 1 and its shift by 2 define the same field, hence share the
    # resolvent square class
    k1 = _quintic("q1", (-1, -1, 0, 0, 0, 1))
    k2 = _quintic("q2", (29, 79, 80, 40, 10, 1))  # (x+2)^5 - (x+2) - 1
    assert resolvent_square_class(k1) == resolvent_square_class(k2) == squarefree_part(2869)
    fam = Family(fields=(k1, k2), q_bound=3000.0)
    assert fam.intersection_rule == "resolvent-discriminant"
    assert fam.multiplicity == 2


# the a5quintic row x^5 + 20x + 16, its shift by 1 (one field, the same disc f = D_K = 32000^2),
# and x^5 - x^4 + 2x^2 - 2x + 2 (disc f = D_K = 136^2), another A5 field
A5_Q = 1024000000


def _a5quintics():
    a5 = build_group("A5")
    return [FieldDescriptor(name="a", defining_poly=(16, 20, 0, 0, 0, 1), group=a5, disc_field=A5_Q),
            FieldDescriptor(name="b", defining_poly=(37, 25, 10, 10, 5, 1), group=a5, disc_field=A5_Q),
            FieldDescriptor(name="c", defining_poly=(2, -2, 2, 0, -1, 1), group=a5, disc_field=18496)]


def test_simple_group_rule():
    # equal polynomials meet and different D_K do not; two polynomials with one D_K
    # (here one field) or one polynomial with two D_K are refused, not counted apart
    k1, k2, k3 = _a5quintics()
    fam = Family(fields=(k1, k3), q_bound=A5_Q)
    assert fam.intersection_rule == "simple-group"
    assert fam.multiplicity == 1
    assert Family(fields=(k1, k3, k1), q_bound=A5_Q).multiplicity == 2
    liar = k3._replace(name="liar", disc_field=-18496)
    for fields, shared in (((k1, k3, k2), "a and b share D_K = 1024000000 but not a defining polynomial"),
                           ((k3, liar), "c and liar share a defining polynomial but not D_K")):
        with pytest.raises(UndecidableIntersectionRule) as err:
            Family(fields=fields, q_bound=A5_Q)
        assert str(err.value) == (
            f"{shared}, so the simple-group rule cannot tell whether they meet;"
            " use the explicit-pairs rule (--rule explicit-pairs), under which a field meets only itself"
        )
    assert Family(fields=(k1, k2), q_bound=A5_Q, intersection_rule="explicit-pairs").multiplicity == 1


def test_a_name_means_one_field():
    # two fields under one name kept the later one's error in per_field, and
    # met under explicit-pairs (m 2); one field listed twice is still counted twice
    gaussian = quadratic_field(-1)
    impostor = quadratic_field(2)._replace(name="quad(-1)")
    for fields in ((gaussian, impostor), (impostor, gaussian, gaussian)):
        for rule in (None, "explicit-pairs"):
            with pytest.raises(ValidationError) as err:
                Family(fields=fields, q_bound=100.0, intersection_rule=rule)
            assert str(err.value) == "family has two different fields named 'quad(-1)'"
    twice = Family(fields=(gaussian, quadratic_field(-1)), q_bound=100.0, intersection_rule="explicit-pairs")
    report = avg_cheb_error(twice, 1000, sieve_primes(1000))
    assert (report.size, report.multiplicity, list(report.per_field)) == (2, 2, ["quad(-1)"])
    assert report.avg_error == report.per_field["quad(-1)"]


def test_undecidable_rule():
    # C2 resolves automatically; zeta5 carries the C4 tag, which has no rule,
    # and the family says so when it is built
    fam = Family(fields=(quadratic_field(5),), q_bound=10.0, intersection_rule=None)
    assert fam.intersection_rule == "quadratic-equality"
    z5 = builtin_field("zeta5")
    with pytest.raises(UndecidableIntersectionRule) as err:
        Family(fields=(z5,), q_bound=200.0)
    assert str(err.value) == (
        "no intersection rule for group tag C4;"
        " use the explicit-pairs rule (--rule explicit-pairs), under which a field meets only itself"
    )
    with pytest.raises(UndecidableIntersectionRule):
        Family(fields=quads([-1, 2]), q_bound=20.0, intersection_rule="no-such-rule")
    explicit = Family(fields=(z5, z5), q_bound=200.0, intersection_rule="explicit-pairs")
    assert explicit.multiplicity == 2  # the same field, named twice
    assert Family(fields=(z5,), q_bound=200.0, intersection_rule="explicit-pairs").multiplicity == 1


def test_unknown_rule_is_named():
    # a rule that does not exist is named, with the known ones, whatever the group tag
    for fields in (quads([-1, 2]), (builtin_field("zeta5"),)):
        with pytest.raises(UndecidableIntersectionRule) as err:
            Family(fields=fields, q_bound=200.0, intersection_rule="no-such-rule")
        assert str(err.value) == (
            "unknown intersection rule 'no-such-rule'; known:"
            " ['explicit-pairs', 'quadratic-equality', 'resolvent-discriminant', 'simple-group']"
        )


def test_intersection_symmetry():
    # a two-field family has m_F = 2 iff its fields meet; the order must not matter
    fields = quads(SQUAREFREE_SMALL[:8])
    for rule in ("quadratic-equality", "explicit-pairs"):
        for a in fields:
            for b in fields:
                ab = Family(fields=(a, b), q_bound=100.0, intersection_rule=rule).multiplicity
                ba = Family(fields=(b, a), q_bound=100.0, intersection_rule=rule).multiplicity
                assert ab == ba == (2 if a.disc_field == b.disc_field else 1), (rule, a.name, b.name)


def _pairwise_multiplicity(fields, meets) -> int:
    """m_F(Q) by its definition: max over K of #{K' : K and K' meet}."""
    return max(sum(1 for b in fields if meets(a, b)) for a in fields)


def test_multiplicity_matches_pairwise_definition():
    # each rule on a family with repeated fields, against the pairwise count
    simple = _a5quintics()[::2]  # a and c: different D_K
    quintics = [
        _quintic("q1", (-1, -1, 0, 0, 0, 1)),
        _quintic("q2", (29, 79, 80, 40, 10, 1)),  # the same field as q1
        _quintic("q3", (-2, 0, 0, 0, 0, 1), 50000),  # x^5 - 2, disc f = 2^4 5^5: another resolvent class
    ]
    z5 = builtin_field("zeta5")
    # gaussian and quad(-1) share D_K = -4 under different names
    quadratic = [builtin_field("gaussian"), *quads([-1, 2, 3, 2, 5])]
    cases = [
        ("quadratic-equality", quadratic, lambda a, b: a.disc_field == b.disc_field),
        ("explicit-pairs", quadratic, lambda a, b: a.name == b.name),
        ("resolvent-discriminant", quintics,
         lambda a, b: squarefree_part(a.poly_disc) == squarefree_part(b.poly_disc)),
        ("simple-group", simple, lambda a, b: a.defining_poly == b.defining_poly),
        ("explicit-pairs", [z5], lambda a, b: a.name == b.name),
    ]
    for rule, base, meets in cases:
        for picks in ((0,), (0, 1), (0, 0, 1), (1, 0, 1, 1), tuple(range(len(base))) * 2 + (0,)):
            fields = tuple(base[i % len(base)] for i in picks)
            fam = Family(fields=fields, q_bound=A5_Q, intersection_rule=rule)
            assert fam.multiplicity == _pairwise_multiplicity(fields, meets), (rule, picks)


def test_resolvent_rule_classifies_each_field_once(monkeypatch):
    # m_F counts keys: each field's resolvent square class is computed once,
    # not once for each pair it is in
    calls = []

    def counting(n):
        calls.append(n)
        return squarefree_part(n)

    monkeypatch.setattr(families, "squarefree_part", counting)
    fields = tuple(_quintic(f"q{i}", (-1, -1, 0, 0, 0, 1)) for i in range(6))
    fam = Family(fields=fields, q_bound=3000.0)
    assert len(calls) == len(fields)
    assert fam.intersection_rule == "resolvent-discriminant"
    assert fam.multiplicity == 6


def test_resolvent_square_class_examples():
    s3 = build_group("S3")
    assert resolvent_square_class(
        FieldDescriptor(name="c1", defining_poly=(-1, -1, 0, 1), group=s3, disc_field=-12167)
    ) == -23
    assert resolvent_square_class(
        FieldDescriptor(name="c2", defining_poly=(-1, 1, 0, 1), group=s3, disc_field=-29791)
    ) == -31
    s2 = build_group("S2")
    assert resolvent_square_class(
        FieldDescriptor(name="r2", defining_poly=(-2, 0, 1), group=s2, disc_field=8)
    ) == 2
    with pytest.raises(ValidationError):
        resolvent_square_class(quadratic_field(5))  # C2 tag, not S_n


def test_compositum_zeta12_case():
    check = compositum_disc_check(quadratic_field(-1), quadratic_field(-3))
    assert check.disc_compositum == 144  # Q(zeta_12)
    assert check.subfield_discs == (-4, -3, 12)
    assert check.divides_bound  # 144 | 4^2 3^2
    assert check.conductor_divides  # 144/12 = 12 | 12


def test_compositum_sqrt2_sqrt3():
    check = compositum_disc_check(quadratic_field(2), quadratic_field(3))
    assert check.subfield_discs == (8, 12, 24)
    assert check.disc_compositum == 2304
    assert check.divides_bound  # 2304 | 9216
    assert check.conductor_divides  # 24 | 96


def test_compositum_sweep_all_pairs():
    import itertools

    fields = quads(SQUAREFREE_SMALL)
    for a, b in itertools.combinations(fields, 2):
        check = compositum_disc_check(a, b)
        assert check.divides_bound, (a.name, b.name)
        assert check.conductor_divides, (a.name, b.name)


def test_compositum_errors(catalog):
    with pytest.raises(NotQuadratic):
        compositum_disc_check(quadratic_field(-1), catalog["zeta5"])
    with pytest.raises(EqualFields):
        compositum_disc_check(quadratic_field(5), quadratic_field(5))


def test_avg_error_single_field_reduces(sieve_small, catalog):
    fam = Family(fields=(quadratic_field(-1),), q_bound=10.0)
    report = avg_cheb_error(fam, 10**3, sieve_small)
    assert report.avg_error == report.per_field["quad(-1)"]
    assert report.size == 1 and report.multiplicity == 1


def test_avg_error_two_pass_consistency(sieve_small):
    fields = quads(SQUAREFREE_SMALL[:6])
    fam = Family(fields=fields, q_bound=100.0)
    report = avg_cheb_error(fam, 10**3, sieve_small)
    # second pass: recompute the mean from the per-field column
    again = sum(report.per_field.values()) / len(report.per_field)
    assert report.avg_error == pytest.approx(again, abs=1e-12)


def test_avg_error_q_invariance(sieve_small):
    fields = quads(SQUAREFREE_SMALL[:5])
    r1 = avg_cheb_error(Family(fields=fields, q_bound=100.0), 10**3, sieve_small)
    r2 = avg_cheb_error(Family(fields=fields, q_bound=10**4), 10**3, sieve_small)
    assert r1.avg_error == r2.avg_error


def _scalar_worst_error(fd, sieve, x):
    """The oracle: max over C of |pi_C(x) - (|C|/|G|) pi(x)|, from ``frobenius_data`` one prime at a time."""
    primes = sieve.upto(x).tolist()
    records = [frobenius_data(fd, p) for p in primes]
    assert not any(data.ambiguous for data in records)
    return max(abs(sum(data.conjugacy_class == c for data in records) - c.size / fd.group.order * len(primes))
               for c in fd.group.classes)


@pytest.mark.parametrize("fields,q,rule", [
    (quads(SQUAREFREE_SMALL[:8]), 100.0, None),
    (tuple(parse_catalog("s3a | -1 -1 0 1 | S3 | -12167\ns3b | 1 1 0 1 | S3 | -29791", source="inline")),
     3 * 10**4, "explicit-pairs"),
], ids=["quadratic", "S3"])
def test_avg_error_matches_scalar_oracle(fields, q, rule):
    sieve = sieve_primes(3000)
    family = Family(fields=fields, q_bound=q, intersection_rule=rule)
    for x in (2.5, 100, 1000.5, 2999):
        report = avg_cheb_error(family, x, sieve)
        want = {fd.name: _scalar_worst_error(fd, sieve, x) for fd in fields}
        assert report.per_field == want, x
        assert report.avg_error == math.fsum(want.values()) / len(fields), x


def test_ambiguous_family_names_its_first_unresolved_prime():
    # A4 acting on the roots: a prime of type (1, 3) has its Frobenius in 3a or 3b,
    # which the type cannot tell apart; the smallest such prime, 5, is named as psi names it
    fields = tuple(parse_catalog("a4quartic | 12 8 0 0 1 | A4 | 331776", source="inline"))
    family = Family(fields=fields, q_bound=10**6, intersection_rule="explicit-pairs")
    sieve = sieve_primes(1000)
    with pytest.raises(AmbiguousClass) as err:
        avg_cheb_error(family, 1000, sieve)
    assert str(err.value) == "a4quartic: class not resolvable at p=5"
    # below 5 there is nothing to name
    assert avg_cheb_error(family, 4.5, sieve).per_field == {"a4quartic": _scalar_worst_error(fields[0], sieve, 4.5)}


@pytest.mark.parametrize("x", [0, 1, 1.5, math.nan, math.inf])
def test_avg_error_refuses_x_below_2_and_non_finite(x, monkeypatch):
    # x / (log x)^2 needs log x > 0; the refusal comes before any field is counted
    def refuse(*args):
        raise AssertionError("a class tally was read")

    monkeypatch.setattr(families, "_class_tally", refuse)
    family = Family(fields=quads([-1, 2]), q_bound=10.0)
    with pytest.raises(ParameterOutOfRange, match=r"x must be finite and >= 2, got"):
        avg_cheb_error(family, x, sieve_primes(100))


def test_family_validation():
    with pytest.raises(ValidationError):
        Family(fields=(), q_bound=10.0)
    with pytest.raises(ValidationError):
        Family(fields=(quadratic_field(-1), quadratic_field(101)), q_bound=100.0)
    mixed = (quadratic_field(-1), FieldDescriptor(
        name="cubic", defining_poly=(-1, -1, 0, 1), group=build_group("S3"), disc_field=-23
    ))
    with pytest.raises(ValidationError):
        Family(fields=mixed, q_bound=100.0)


def test_avg_error_counts_a_repeated_field_once_per_listing():
    # #F counts each listing, so the sum does too: the average of three worst-class
    # errors of 4.0 is 4.0, where a sum keyed by name gave 8.0 / 3
    sieve = sieve_primes(1000)
    fields = quads([-1, -1, 2])
    report = avg_cheb_error(Family(fields, 100), 1000, sieve)
    want = [_scalar_worst_error(fd, sieve, 1000) for fd in fields]
    assert want == [4.0, 4.0, 4.0]
    assert report.avg_error == math.fsum(want) / len(fields)
    assert report.per_field == {"quad(-1)": 4.0, "quad(2)": 4.0}
    assert (report.size, report.multiplicity) == (3, 2)
