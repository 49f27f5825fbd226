"""Finite groups given by multiplication tables, with conjugacy classes.

The built-in catalog covers cyclic C_d (d <= 12), symmetric and alternating
S_n / A_n (n <= 5), and dihedral groups labeled by their order (D4 ... D12).
Element 0 is always the identity.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import UnknownGroup, ValidationError


class ConjugacyClass:
    """A conjugacy class: representative element, members, common order.

    Read-only, and compared by identity, as FiniteGroup: build_group is cached.
    """

    __slots__ = ("index", "label", "representative", "members", "order")

    def __init__(self, index: int, label: str, representative: int, members: frozenset[int], order: int):
        for name, value in zip(self.__slots__, (index, label, representative, members, order)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a ConjugacyClass")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a ConjugacyClass")

    def __reduce__(self):
        return ConjugacyClass, (self.index, self.label, self.representative, self.members, self.order)

    def __repr__(self) -> str:
        return (f"ConjugacyClass(index={self.index}, label={self.label!r}, representative={self.representative},"
                f" members={self.members!r}, order={self.order})")

    @property
    def size(self) -> int:
        return len(self.members)


class FiniteGroup:
    """Immutable finite group on elements 0..order-1 with a full table."""

    def __init__(self, name: str, table: list[list[int]], perms: list[tuple[int, ...]] | None = None):
        self.name = name
        self.order = len(table)
        self._table = np.asarray(table, dtype=np.int64)
        self.perms = perms  # permutation realization, when built from one
        self._validate_table()
        self.element_orders = tuple(self._element_order(a) for a in range(self.order))
        self.classes = self._conjugacy_classes()
        self._class_of = {e: c for c in self.classes for e in c.members}
        # power_classes[c, k % |G|]: the index of the class holding the k-th powers of class c, and a
        # last row of -1, no class, for a prime with none; set here, as every attribute, since one set
        # later would slow every attribute read of the group
        self.power_classes = np.array(
            [[self.class_of(self.power(c.representative, k)).index for k in range(self.order)] for c in self.classes]
            + [[-1] * self.order]
        )
        self.power_classes.flags.writeable = False

    # -- construction-time checks -------------------------------------

    def _validate_table(self) -> None:
        n = self.order
        t = self._table
        if t.shape != (n, n):
            raise ValidationError(f"{self.name}: table must be {n}x{n}")
        if t.min() < 0 or t.max() >= n:
            raise ValidationError(f"{self.name}: table entries out of range")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise ValidationError(f"{self.name}: element 0 is not an identity")
        # closure as latin square: every row/column is a permutation
        for i in range(n):
            if len(set(t[i].tolist())) != n or len(set(t[:, i].tolist())) != n:
                raise ValidationError(f"{self.name}: table is not a latin square")
        # associativity, vectorized over all triples
        if not np.array_equal(t[t], t[:, t]):
            raise ValidationError(f"{self.name}: table is not associative")
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(t[a] == 0)
            if hits.size != 1:
                raise ValidationError(f"{self.name}: element {a} lacks a unique inverse")
            inv[a] = hits[0]
        self._inv = inv

    # -- basic operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        out = 0
        base = a
        while k > 0:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def _element_order(self, a: int) -> int:
        k = 1
        x = a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    # -- conjugacy classes ----------------------------------------------

    def _conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        seen: set[int] = set()
        raw: list[tuple[int, frozenset[int]]] = []
        for a in range(self.order):
            if a in seen:
                continue
            members = frozenset(self.conj(a, g) for g in range(self.order))
            seen |= members
            raw.append((min(members), members))
        raw.sort(key=lambda t: (self.element_orders[t[0]], len(t[1]), t[0]))
        classes: list[ConjugacyClass] = []
        by_order: dict[int, int] = {}
        for idx, (rep, members) in enumerate(raw):
            d = self.element_orders[rep]
            if any(self.element_orders[e] != d for e in members):
                raise ValidationError(f"{self.name}: conjugacy class with mixed orders")
            if self.order % d != 0:
                raise ValidationError(f"{self.name}: element order does not divide |G|")
            seq = by_order.get(d, 0)
            by_order[d] = seq + 1
            label = str(d) if self._count_classes_of_order(raw, d) == 1 else f"{d}{chr(ord('a') + seq)}"
            classes.append(ConjugacyClass(idx, label, rep, members, d))
        if sum(c.size for c in classes) != self.order:
            raise ValidationError(f"{self.name}: classes do not partition the group")
        if any(self.order % c.size != 0 for c in classes):
            raise ValidationError(f"{self.name}: class size does not divide |G|")
        return tuple(classes)

    def _count_classes_of_order(self, raw, d: int) -> int:
        return sum(1 for rep, _ in raw if self.element_orders[rep] == d)

    def class_of(self, a: int) -> ConjugacyClass:
        return self._class_of[a]

    def class_by_label(self, label: str) -> ConjugacyClass:
        for c in self.classes:
            if c.label == label:
                return c
        raise ValidationError(f"{self.name}: no conjugacy class labeled {label!r}")

    def classes_of_order(self, d: int) -> list[ConjugacyClass]:
        return [c for c in self.classes if c.order == d]

    def classes_of_cycle_type(self, cycle_type: tuple[int, ...]) -> list[ConjugacyClass]:
        """Classes of the given ascending cycle type (permutation groups only), as ``classes_of_order``."""
        if self.perms is None:
            raise ValidationError(f"{self.name}: no permutation realization")
        return [c for c in self.classes if perm_cycle_type(self.perms[c.representative]) == cycle_type]

    # -- subgroups --------------------------------------------------------

    def subgroup_closure(self, gens: frozenset[int] | set[int]) -> frozenset[int]:
        out = {0} | set(gens)
        frontier = list(out)
        while frontier:
            a = frontier.pop()
            for b in list(out):
                for c in (self.mul(a, b), self.mul(b, a), self.inv(a)):
                    if c not in out:
                        out.add(c)
                        frontier.append(c)
        return frozenset(out)

    def is_normal(self, h: frozenset[int]) -> bool:
        return all(self.conj(a, g) in h for a in h for g in range(self.order))

    def abelian_subgroups(self) -> list[frozenset[int]]:
        """All abelian subgroups, as closures of commuting pairs.

        Abelian subgroups of every catalog group are generated by at most two
        elements, so pair closures enumerate them all.
        """
        found: set[frozenset[int]] = {frozenset({0})}
        for a in range(1, self.order):
            found.add(self.subgroup_closure({a}))
        for a in range(1, self.order):
            for b in range(a + 1, self.order):
                if self.mul(a, b) == self.mul(b, a):
                    h = self.subgroup_closure({a, b})
                    if all(self.mul(x, y) == self.mul(y, x) for x in h for y in h):
                        found.add(h)
        return sorted(found, key=lambda h: (len(h), sorted(h)))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# -- permutation helpers ----------------------------------------------------


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            out.append(length)
    return tuple(sorted(out))


def perm_sign(perm: tuple[int, ...]) -> int:
    return (-1) ** sum(length - 1 for length in perm_cycle_type(perm))


def _group_from_perms(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[perm_compose(a, b)] for b in perms] for a in perms]
    return FiniteGroup(name, table, perms=perms)


def _cyclic(name: str, d: int) -> FiniteGroup:
    table = [[(i + j) % d for j in range(d)] for i in range(d)]
    return FiniteGroup(name, table)


def _dihedral(name: str, n: int) -> FiniteGroup:
    # elements 0..n-1 are rotations r^i, n..2n-1 are reflections s r^i
    def mul(a: int, b: int) -> int:
        ra, sa = a % n, a >= n
        rb, sb = b % n, b >= n
        if not sa:
            r = (ra + rb) % n
            return r + (n if sb else 0)
        r = (ra - rb) % n
        return r if sb else r + n

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(name, table)


@lru_cache(maxsize=None)
def build_group(name: str) -> FiniteGroup:
    """Construct a catalog group: C2..C12, S2..S5, A3..A5, D4..D12 (by order)."""
    if name.startswith("C") and name[1:].isdigit():
        d = int(name[1:])
        if 1 <= d <= 12:
            return _cyclic(name, d)
    if name.startswith("S") and name[1:].isdigit():
        n = int(name[1:])
        if 2 <= n <= 5:
            return _group_from_perms(name, [tuple(p) for p in itertools.permutations(range(n))])
    if name.startswith("A") and name[1:].isdigit():
        n = int(name[1:])
        if 3 <= n <= 5:
            perms = [tuple(p) for p in itertools.permutations(range(n)) if perm_sign(tuple(p)) == 1]
            return _group_from_perms(name, perms)
    if name.startswith("D") and name[1:].isdigit():
        order = int(name[1:])
        if order % 2 == 0 and 4 <= order <= 12:
            return _dihedral(name, order // 2)
    raise UnknownGroup(f"group {name!r} is not in the catalog")
