import itertools
import math
from collections import Counter

import pytest

from chebotarev_lab.errors import UnknownGroup
from chebotarev_lab.groups import (
    build_group,
    perm_compose,
    perm_cycle_type,
)

CATALOG_NAMES = [
    "C1", "C2", "C3", "C4", "C6", "C12",
    "S2", "S3", "S4", "S5",
    "A3", "A4", "A5",
    "D4", "D6", "D8", "D10", "D12",
]


def test_c2():
    g = build_group("C2")
    assert g.order == 2
    assert [c.size for c in g.classes] == [1, 1]


def test_s3_classes():
    # derived by enumerating permutations and conjugating exhaustively
    g = build_group("S3")
    assert g.order == 6
    assert [(c.size, c.order) for c in g.classes] == [(1, 1), (3, 2), (2, 3)]


def test_a5_classes_brute_force():
    g = build_group("A5")
    assert g.order == 60
    assert len(g.classes) == 5
    # independent oracle: conjugate raw permutation tuples
    perms = g.perms
    index = {p: i for i, p in enumerate(perms)}

    def inverse(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    seen = set()
    classes = 0
    for p in perms:
        if index[p] in seen:
            continue
        members = {index[perm_compose(perm_compose(q, p), inverse(q))] for q in perms}
        seen |= members
        classes += 1
    assert classes == 5


def test_group_axioms_exhaustive():
    # table axioms are validated on construction; re-check closure/inverses here
    for name in CATALOG_NAMES:
        g = build_group(name)
        n = g.order
        for a, b in itertools.product(range(min(n, 12)), repeat=2):
            assert 0 <= g.mul(a, b) < n
        for a in range(n):
            assert g.mul(a, g.inv(a)) == 0
        assert sum(c.size for c in g.classes) == n
        for c in g.classes:
            assert n % c.size == 0
            assert all(g.element_orders[e] == c.order for e in c.members)


def test_unknown_group():
    with pytest.raises(UnknownGroup):
        build_group("Q8")
    with pytest.raises(UnknownGroup):
        build_group("C13")
    with pytest.raises(UnknownGroup):
        build_group("S6")


def test_dihedral_structure():
    d8 = build_group("D8")
    commutes = [[d8.mul(a, b) == d8.mul(b, a) for b in d8.elements()] for a in d8.elements()]
    assert d8.order == 8 and not all(map(all, commutes))  # not abelian
    assert sorted(d8.element_orders) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert sum(map(all, commutes)) == 2  # the center is {1, r^2}


def test_abelian_subgroups_s3():
    g = build_group("S3")
    subs = g.abelian_subgroups()
    sizes = sorted(len(h) for h in subs)
    # trivial, three reflections, one rotation subgroup
    assert sizes == [1, 2, 2, 2, 3]
    rot = next(h for h in subs if len(h) == 3)
    assert g.is_normal(rot)
    refl = next(h for h in subs if len(h) == 2)
    assert not g.is_normal(refl)


def test_abelian_subgroups_a4_contains_v4():
    g = build_group("A4")
    subs = g.abelian_subgroups()
    v4 = [h for h in subs if len(h) == 4]
    assert len(v4) == 1
    assert g.is_normal(v4[0])


def test_perm_cycle_type():
    assert perm_cycle_type((1, 2, 0, 4, 3)) == (2, 3)


def test_power_matches_permutation_power():
    g = build_group("S4")
    for e in range(g.order):
        perm = g.perms[e]
        for k in (2, 3, 5):
            q = perm
            for _ in range(k - 1):
                q = perm_compose(perm, q)
            assert g.perms[g.power(e, k)] == q


@pytest.mark.parametrize("name", ["S2", "S3", "S4", "S5", "A3", "A4", "A5"])
def test_classes_of_cycle_type(name):
    # S_n: one class per cycle type.  A_n: an even type is one class exactly
    # when its order is (the split 3a/3b of A3, A4 and 5a/5b of A5 are not),
    # and an odd type none
    g = build_group(name)
    n = len(g.perms[0])
    in_g = Counter(perm_cycle_type(p) for p in g.perms)
    for ftype in sorted({perm_cycle_type(p) for p in itertools.permutations(range(n))}):
        classes = g.classes_of_cycle_type(ftype)
        assert all(perm_cycle_type(g.perms[e]) == ftype for c in classes for e in c.members), ftype
        assert sum(c.size for c in classes) == in_g[ftype], ftype
        if name.startswith("S"):
            assert len(classes) == 1, ftype
        elif classes:
            assert (len(classes) == 1) == (len(g.classes_of_order(math.lcm(*ftype))) == 1), ftype


def test_power_classes_hold_every_power_of_every_member():
    for name in CATALOG_NAMES:
        g = build_group(name)
        for c in g.classes:
            for e in c.members:
                assert [g.class_of(g.power(e, k)).index for k in range(2 * g.order)] == \
                    [g.power_classes[c.index][k % g.order] for k in range(2 * g.order)], (name, c.label)
