import pytest

from chebotarev_lab import families
from chebotarev_lab.arith import squarefree_part
from chebotarev_lab.errors import (
    EqualFields,
    NotQuadratic,
    UndecidableIntersectionRule,
    ValidationError,
)
from chebotarev_lab.families import (
    Family,
    avg_cheb_error,
    compositum_disc_check,
    resolvent_square_class,
)
from chebotarev_lab.fields import FieldDescriptor, builtin_field, quadratic_field
from chebotarev_lab.groups import build_group

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


def _quintic(name, poly):
    return FieldDescriptor(name=name, defining_poly=poly, group=build_group("S5"), disc_field=2869)


def test_s5_resolvent_rule():
    # x^5 - x - 1 and its shift by 2 define the same field, hence share the
    # resolvent square class
    k1 = _quintic("q1", (-1, -1, 0, 0, 0, 1))
    k2 = _quintic("q2", (29, 79, 80, 40, 10, 1))  # (x+2)^5 - (x+2) - 1
    assert resolvent_square_class(k1) == resolvent_square_class(k2) == squarefree_part(2869)
    fam = Family(fields=(k1, k2), q_bound=3000.0)
    assert fam.intersection_rule == "resolvent-discriminant"
    assert fam.multiplicity == 2


def test_simple_group_rule():
    a5 = build_group("A5")
    k1 = FieldDescriptor(name="a", defining_poly=(-2, -1, 0, 0, 0, 1), group=a5, disc_field=10**4 + 3)
    k2 = FieldDescriptor(name="b", defining_poly=(-4, -3, 0, 0, 0, 1), group=a5, disc_field=10**4 + 7)
    fam = Family(fields=(k1, k2), q_bound=10**5)
    assert fam.intersection_rule == "simple-group"
    assert fam.multiplicity == 1
    dup = Family(fields=(k1, k1, k2), q_bound=10**5)
    assert dup.multiplicity == 2


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
    a5 = build_group("A5")
    simple = [
        FieldDescriptor(name="a", defining_poly=(-2, -1, 0, 0, 0, 1), group=a5, disc_field=10**4 + 3),
        FieldDescriptor(name="b", defining_poly=(-4, -3, 0, 0, 0, 1), group=a5, disc_field=10**4 + 7),
    ]
    quintics = [
        _quintic("q1", (-1, -1, 0, 0, 0, 1)),
        _quintic("q2", (29, 79, 80, 40, 10, 1)),  # the same field as q1
        _quintic("q3", (-2, 0, 0, 0, 0, 1)),  # x^5 - 2: another resolvent class
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
            fam = Family(fields=fields, q_bound=10**5, intersection_rule=rule)
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
