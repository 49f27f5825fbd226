"""Families F(Q): intersection multiplicity, resolvent grouping, compositum
discriminant checks, and averaged Chebotarev error reports.

Nontrivial-intersection detection is rule-based per group tag, and each rule
says two fields meet iff one key is equal: quadratic fields by discriminant,
S_n closures (n >= 5) by their resolvent quadratic, simple groups by D_K,
where two fields with one D_K must have one defining polynomial.  Other tags
need the explicit-pairs rule, under which a field meets only itself (by name).
"""

from __future__ import annotations

import math
from collections import Counter
from operator import attrgetter
from typing import NamedTuple

from .arith import fundamental_disc, squarefree_part
from .errors import (
    AmbiguousClass,
    EqualFields,
    NotQuadratic,
    ParameterOutOfRange,
    UndecidableIntersectionRule,
    ValidationError,
)
from .fields import FieldDescriptor, _class_tally, _first_unresolved
from .sieve import PrimeSieve

RULE_QUADRATIC = "quadratic-equality"
RULE_RESOLVENT = "resolvent-discriminant"
RULE_SIMPLE = "simple-group"
RULE_EXPLICIT = "explicit-pairs"
_USE_EXPLICIT = f"use the {RULE_EXPLICIT} rule (--rule {RULE_EXPLICIT}), under which a field meets only itself"

_SIMPLE_TAGS = {"A5"}


def default_rule(group_name: str) -> str | None:
    if group_name == "C2":
        return RULE_QUADRATIC
    if group_name in _SIMPLE_TAGS:
        return RULE_SIMPLE
    if group_name.startswith("S") and group_name[1:].isdigit() and int(group_name[1:]) >= 5:
        return RULE_RESOLVENT
    return None


class _FamilyRecord(NamedTuple):
    fields: tuple[FieldDescriptor, ...]
    q_bound: float
    intersection_rule: str
    multiplicity: int  # derived


class Family(_FamilyRecord):
    """Fields sharing one group tag, bounded by |D_K| <= Q.

    ``multiplicity`` is m_F(Q): the largest number of fields in the family
    that meet one of them nontrivially, a field always meeting itself.  It is
    computed once, when the family is built, so a rule that cannot decide
    (among them the simple-group rule on two polynomials with one D_K)
    raises UndecidableIntersectionRule before anything is counted.  A rule
    of None is the group tag's default rule.  A field may be listed more
    than once, but two different fields may not share a name.
    """

    __slots__ = ()

    def __new__(cls, fields: tuple[FieldDescriptor, ...], q_bound: float, intersection_rule: str | None = None):
        if not fields:
            raise ValidationError("family must be non-empty")
        named: dict[str, FieldDescriptor] = {}
        for fd in fields:  # one field may be listed twice, but a name means one field
            if named.setdefault(fd.name, fd) != fd:
                raise ValidationError(f"family has two different fields named {fd.name!r}")
        tags = {fd.group.name for fd in fields}
        if len(tags) != 1:
            raise ValidationError(f"family mixes group tags: {sorted(tags)}")
        for fd in fields:
            if fd.abs_disc > q_bound:
                raise ValidationError(f"{fd.name}: |D_K| = {fd.abs_disc} exceeds Q = {q_bound}")
        if intersection_rule is None:
            (tag,) = tags
            intersection_rule = default_rule(tag)
            if intersection_rule is None:
                raise UndecidableIntersectionRule(f"no intersection rule for group tag {tag}; {_USE_EXPLICIT}")
        elif intersection_rule not in _RULE_KEYS:
            raise UndecidableIntersectionRule(
                f"unknown intersection rule {intersection_rule!r}; known: {sorted(_RULE_KEYS)}"
            )
        if intersection_rule == RULE_SIMPLE:
            _check_simple_keys(fields)
        multiplicity = max(Counter(map(_RULE_KEYS[intersection_rule], fields)).values())
        return super().__new__(cls, fields, q_bound, intersection_rule, multiplicity)

    def __getnewargs__(self):
        return self[:3]

    @classmethod
    def _make(cls, values):
        # _replace comes here: check and derive again, as the constructor does
        return cls(*tuple(values)[:3])

    @property
    def m(self) -> int:
        """|G| - 1 of the family's group."""
        return self.fields[0].m

    @property
    def size(self) -> int:
        return len(self.fields)


def resolvent_square_class(fd: FieldDescriptor) -> int:
    """Squarefree part (sign retained) of the defining-polynomial discriminant.

    For an S_n closure this identifies the quadratic resolvent subfield.
    """
    if not fd.group.name.startswith("S"):
        raise ValidationError(f"{fd.name}: resolvent square class needs an S_n group tag")
    return squarefree_part(fd.poly_disc)


# two fields of a family meet nontrivially iff their keys under its rule are equal
_RULE_KEYS = {
    RULE_QUADRATIC: attrgetter("disc_field"),
    RULE_RESOLVENT: resolvent_square_class,
    RULE_SIMPLE: attrgetter("disc_field"),
    RULE_EXPLICIT: attrgetter("name"),
}


def _check_simple_keys(fields: tuple[FieldDescriptor, ...]) -> None:
    """Refuse two fields that share D_K or a defining polynomial but not both:
    for a simple G, K cap K' is Q or K = K', so equal polynomials meet and
    different D_K, an invariant of K, do not.  The rule trusts the D_K
    given, of which the constructor checks only the prime support."""
    first: dict[object, FieldDescriptor] = {}
    for fd in fields:
        for key, shared in ((fd.disc_field, f"D_K = {fd.disc_field} but not a defining polynomial"),
                            (fd.defining_poly, "a defining polynomial but not D_K")):
            a = first.setdefault(key, fd)
            if (a.disc_field, a.defining_poly) != (fd.disc_field, fd.defining_poly):
                raise UndecidableIntersectionRule(f"{a.name} and {fd.name} share {shared},"
                                                  f" so the {RULE_SIMPLE} rule cannot tell whether they meet;"
                                                  f" {_USE_EXPLICIT}")


# -- compositum discriminants ---------------------------------------------------


class CompositumCheck(NamedTuple):
    """Discriminant of a biquadratic compositum with its divisibility checks."""

    disc_compositum: int
    subfield_discs: tuple[int, int, int]
    divides_bound: bool  # D_KK' | D_K^2 D_K'^2
    conductor_divides: bool  # D_KK'/(D_K D_K') | D_K D_K'


def compositum_disc_check(a: FieldDescriptor, b: FieldDescriptor) -> CompositumCheck:
    """Biquadratic compositum via the three-quadratic-subfield product formula.

    Requires two distinct quadratic fields (so the intersection is Q).
    """
    if a.group.order != 2 or b.group.order != 2:
        raise NotQuadratic("compositum check supports quadratic fields only")
    if a.disc_field == b.disc_field:
        raise EqualFields("fields coincide; the compositum formula needs distinct quadratics")
    d1, d2 = a.disc_field, b.disc_field
    d3 = fundamental_disc(d1 * d2)
    disc_comp = abs(d1 * d2 * d3)
    bound = (d1 * d2) ** 2
    divides = bound % disc_comp == 0
    cond = disc_comp // abs(d1 * d2)
    conductor_ok = disc_comp % abs(d1 * d2) == 0 and abs(d1 * d2) % cond == 0
    return CompositumCheck(
        disc_compositum=disc_comp,
        subfield_discs=(d1, d2, d3),
        divides_bound=divides,
        conductor_divides=conductor_ok,
    )


# -- averaged Chebotarev error ----------------------------------------------------


class AvgErrorReport(NamedTuple):
    """Average of the per-field worst-class errors, with shape diagnostics."""

    x: float
    q_bound: float
    size: int
    multiplicity: int
    avg_error: float
    per_field: dict[str, float]
    diagnostics: dict[str, float]


def avg_cheb_error(
    family: Family,
    x: float,
    sieve: PrimeSieve,
    eps: float = 0.5,
) -> AvgErrorReport:
    """(1/#F) sum over K of max_C |pi_C(x) - (|C|/|G|) pi(x)|, exactly, read
    off each field's class tally to x.  A field with an unresolved prime p <= x
    raises AmbiguousClass naming the smallest.

    Diagnostics carry the level-of-distribution shape x/(log x)^2 and the
    exceptional-budget ratio m_F(Q) Q^eps / #F; constants stay symbolic.
    x must be finite and >= 2, where log x > 0.
    """
    if not (2 <= x < math.inf):
        raise ParameterOutOfRange(f"x must be finite and >= 2, got {x}")
    per_field: dict[str, float] = {}
    errors = []  # one per listing, so a field listed twice counts twice, as in #F
    for fd in family.fields:
        tally = _class_tally(fd, sieve, x)
        if tally.unresolved:
            p = _first_unresolved(fd, sieve, x)
            raise AmbiguousClass(f"{fd.name}: class not resolvable at p={p}")
        order = fd.group.order
        errors.append(max(abs(n - c.size / order * tally.n) for c, n in zip(fd.group.classes, tally.by_class)))
        per_field[fd.name] = errors[-1]
    avg = math.fsum(errors) / family.size
    shape = x / math.log(x) ** 2.0
    diagnostics = {
        "eps": eps,
        "shape_x_over_logx_power": shape,
        "avg_over_shape": avg / shape,
        "mF_Qeps_over_size": family.multiplicity * family.q_bound**eps / family.size,
    }
    return AvgErrorReport(
        x=x,
        q_bound=family.q_bound,
        size=family.size,
        multiplicity=family.multiplicity,
        avg_error=avg,
        per_field=per_field,
        diagnostics=diagnostics,
    )
