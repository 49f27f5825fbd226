import gc
import itertools
import math
import random
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev_lab import chebotarev
from chebotarev_lab.chebotarev import (
    base_change_compare,
    flexi_error_report,
    is_admissible,
    partial_summation_pi,
    pi_C_count,
    pi_count,
    psi_weighted_class,
    psi_weighted_items,
    splitting_tally,
)
from chebotarev_lab.families import Family, avg_cheb_error
from chebotarev_lab.errors import (
    AmbiguousClass,
    DomainTooSmall,
    ParameterOutOfRange,
    SieveRangeExceeded,
    UnsupportedSubgroupAction,
)
from chebotarev_lab.fields import (
    BUILTIN_CATALOG,
    FieldDescriptor,
    _class_tally,
    frobenius_data,
    frobenius_table,
    load_catalog,
    parse_catalog,
)
from chebotarev_lab.groups import build_group
from chebotarev_lab.oracles import naive_psi_gaussian_split, psi_weighted_scalar
from chebotarev_lab.sieve import PrimeSieve, sieve_primes
from chebotarev_lab.weights import WeightParams
from chebotarev_lab.zfr import classical_eta_profile, rational_eta_profile


def test_pi_count_examples(sieve_large):
    assert pi_count(10, sieve_large) == 4
    assert pi_count(100, sieve_large) == 25
    assert pi_count(10**6, sieve_large) == 78498


def test_gaussian_class_counts(catalog, sieve_medium):
    g = catalog["gaussian"]
    split = pi_C_count(g, g.group.class_by_label("1"), 100, sieve_medium)
    inert = pi_C_count(g, g.group.class_by_label("2"), 100, sieve_medium)
    assert split.count == 11
    assert inert.count == 13
    assert split.count + inert.count + 1 == 25  # one ramified prime
    assert split.expected == pytest.approx(12.5)


def test_empty_window(catalog, sieve_small):
    g = catalog["gaussian"]
    assert pi_C_count(g, g.group.class_by_label("1"), 2.5, sieve_small).count == 0


def test_class_union_counting(catalog, sieve_small):
    # zeta5 without the residue action: order-4 classes are inseparable
    z5 = catalog["zeta5"]
    blind = FieldDescriptor(
        name="zeta5blind",
        defining_poly=z5.defining_poly,
        group=z5.group,
        disc_field=z5.disc_field,
    )
    union = pi_C_count(blind, 4, 10**3, sieve_small)
    exact_a = pi_C_count(z5, z5.group.class_by_label("4a"), 10**3, sieve_small)
    exact_b = pi_C_count(z5, z5.group.class_by_label("4b"), 10**3, sieve_small)
    assert union.count == exact_a.count + exact_b.count
    with pytest.raises(AmbiguousClass):
        pi_C_count(blind, z5.group.class_by_label("4a"), 10**3, sieve_small)
    with pytest.raises(ParameterOutOfRange):
        pi_C_count(z5, 8, 10**3, sieve_small)


def test_partition_identity(catalog, sieve_medium, nontrivial_fields):
    for fd in nontrivial_fields + [catalog["rational"]]:
        for x in (10**3, 10**4):
            tally = splitting_tally(fd, x, sieve_medium)
            assert tally.unresolved == 0
            assert tally.total() == pi_count(x, sieve_medium), (fd.name, x)


def test_equidistribution_trend_gaussian_and_zeta5(catalog, sieve_large):
    # |pi_C(x) - (|C|/|G|) pi(x)| / (sqrt(x) log x) stays below the (non-normative)
    # GRH-scale harness threshold 2 up to x = 1e6
    for name in ("gaussian", "zeta5"):
        fd = catalog[name]
        for x in (10**4, 10**5, 10**6):
            tally = splitting_tally(fd, x, sieve_large)
            pi_x = pi_count(x, sieve_large)
            for cls in fd.group.classes:
                err = abs(tally.by_class[cls.label] - cls.size / fd.group.order * pi_x)
                assert err / (math.sqrt(x) * math.log(x)) < 2.0, (name, x, cls.label)


# -- admissibility ------------------------------------------------------------


def _all_subgroups(group):
    # independent oracle: closures of every pair of elements, then joins
    subs = {frozenset({0})}
    for a in range(group.order):
        for b in range(group.order):
            subs.add(group.subgroup_closure({a, b}))
    changed = True
    while changed:
        changed = False
        for h1, h2 in itertools.combinations(sorted(subs, key=sorted), 2):
            joined = group.subgroup_closure(h1 | h2)
            if joined not in subs:
                subs.add(joined)
                changed = True
    return subs


def _oracle_admissible(group, cls):
    for h in _all_subgroups(group):
        if not (h & cls.members):
            continue
        abelian = all(group.mul(a, b) == group.mul(b, a) for a in h for b in h)
        if abelian and (group.is_normal(h) or len(h) == group.order):
            return True
    return False


@pytest.mark.parametrize("name", ["C2", "C4", "S3", "D8", "A4"])
def test_admissibility_vs_exhaustive_subgroup_oracle(name):
    group = build_group(name)
    for cls in group.classes:
        got = is_admissible(group, cls) is not None
        assert got == _oracle_admissible(group, cls), (name, cls.label)


def test_admissibility_hand_table():
    s3 = build_group("S3")
    assert is_admissible(s3, s3.class_by_label("1")).subgroup == frozenset({0})
    assert is_admissible(s3, s3.class_by_label("3")) is not None
    assert is_admissible(s3, s3.class_by_label("2")) is None
    a4 = build_group("A4")
    labels_admissible = {c.label: is_admissible(a4, c) is not None for c in a4.classes}
    assert labels_admissible["1"] and labels_admissible["2"]
    assert not labels_admissible["3a"] and not labels_admissible["3b"]
    # abelian groups: every class certified
    c4 = build_group("C4")
    assert all(is_admissible(c4, c) is not None for c in c4.classes)
    d8 = build_group("D8")
    assert all(is_admissible(d8, c) is not None for c in d8.classes)


def test_admissibility_central_class_uses_cyclic_subgroup():
    d8 = build_group("D8")
    central = next(c for c in d8.classes if c.size == 1 and c.order == 2)
    cert = is_admissible(d8, central)
    assert cert is not None
    assert cert.subgroup == d8.subgroup_closure({central.representative})
    assert cert.dedekind_quotient == "H normal (Aramata-Brauer)"


def test_strong_artin_override():
    s3 = build_group("S3")
    cls = s3.class_by_label("2")
    cert = is_admissible(s3, cls, strong_artin=True)
    assert cert is not None and cert.conditional
    assert cert.dedekind_quotient == "H = G"


# -- weighted sums ---------------------------------------------------------------


def test_psi_zero_when_class_missing(catalog, sieve_small):
    # x = 3, eps small: the support holds only p = 2 (ramified) and p = 3
    # (inert); the split class gets nothing
    g = catalog["gaussian"]
    params = WeightParams(x=3.0, eps=0.01)
    assert psi_weighted_class(g, g.group.class_by_label("1"), params, sieve_small) == 0.0


def test_psi_matches_naive_oracle_exactly(catalog, sieve_medium):
    g = catalog["gaussian"]
    params = WeightParams(x=10**4, eps=0.1)
    psi = psi_weighted_class(g, g.group.class_by_label("1"), params, sieve_medium)
    assert psi == naive_psi_gaussian_split(params)


DEMO_CATALOG = Path(__file__).resolve().parents[1] / "demos" / "catalog_quadratics.txt"


@pytest.mark.parametrize("name", [*BUILTIN_CATALOG, "quad(-3)", "quad(15)"])
def test_psi_matches_scalar_oracle_exactly(name, sieve_medium):
    # the catalog quadratics take the chi_{D_K} route, the built-ins the
    # residue and trace routes
    fd = BUILTIN_CATALOG.get(name) or {f.name: f for f in load_catalog(DEMO_CATALOG)}[name]
    for x in (3, 97, 6614, 10**5):
        for eps in (0.01, 0.1, 0.2499):
            params = WeightParams(x=x, eps=eps)
            want = psi_weighted_scalar(fd, params, sieve_medium)
            for cls in fd.group.classes:
                items = psi_weighted_items(fd, cls, params, sieve_medium)
                assert items == want[cls.index], (name, x, eps, cls.label)


# x prime puts p = x on the upper ramp, x = p + 1/2 puts p on the plateau, and
# x = p - 1/2 puts p just past x; x = 3 and 5 leave the plateau block empty,
# and x = 7 and 11 hold its first primes
PLATEAU_EDGE_XS = (3, 5, 7, 11, 96.5, 97, 97.5, 1008.5, 1009, 1009.5, 7918.5, 7919, 7919.5)


@pytest.mark.parametrize("name", ["gaussian", "zeta7", "s3cubic", "quad(15)"])
def test_psi_plateau_edges_match_scalar_oracle(name, sieve_medium):
    fd = BUILTIN_CATALOG.get(name) or {f.name: f for f in load_catalog(DEMO_CATALOG)}[name]
    for x in PLATEAU_EDGE_XS:
        for eps in (0.001, 0.2499):
            params = WeightParams(x=x, eps=eps)
            scalar = psi_weighted_scalar(fd, params, sieve_medium)
            for cls in fd.group.classes:
                want = scalar[cls.index]
                assert psi_weighted_items(fd, cls, params, sieve_medium) == want, (name, x, eps, cls.label)
                assert psi_weighted_class(fd, cls, params, sieve_medium) == math.fsum(v for _, v in want)


def _weighed_pairs(params, sieve):
    """(p, k) pairs of every prime of the sieve, ramified or not, outside the
    plateau block isqrt(2 x e^eps) < p <= x (1 - 1e-9) and above the lower end
    of supp f, where t = k log p / log x has t - 1/2 > -2w: the pairs f must
    weigh, whatever the field."""
    n_hi = params.x * math.exp(params.eps)
    root = math.isqrt(int(2 * n_hi))
    count = 0
    for p in sieve.upto(n_hi).tolist():
        if root < p <= params.x * (1.0 - 1e-9):
            continue
        k = 1
        while k * math.log(p) <= params.log_x + params.eps:
            count += k * math.log(p) / params.log_x - 0.5 > -2 * params.boxcar_width
            k += 1
    return count


@pytest.mark.parametrize("name", ["gaussian", "zeta5", "zeta7", "s3cubic"])
def test_psi_calls_f_only_off_the_plateau(name, sieve_medium, monkeypatch):
    # f does not depend on the field: the first query at a (sieve, params)
    # calls f once per off-plateau pair of the sieve in supp f, ramified
    # primes included, and every other class and every other field at the
    # same (sieve, params) calls it not at all.  The sieve keeps the weights
    # of the last params alone, so new params, and params met before, weigh again
    first = BUILTIN_CATALOG[name]
    fields = [first, *(fd for fd in BUILTIN_CATALOG.values() if fd is not first)]
    sieve = PrimeSieve(limit=sieve_medium.limit, primes=sieve_medium.primes)  # keeps no psi weights yet
    calls = []
    f_eval = chebotarev.f_eval

    def counting(params, t):
        calls.append(t)
        return f_eval(params, t)

    monkeypatch.setattr(chebotarev, "f_eval", counting)
    for x, eps in ((11, 0.001), (1009, 0.1), (10**4 - 0.5, 0.2499), (11, 0.001)):
        params = WeightParams(x=x, eps=eps)
        want = _weighed_pairs(params, sieve)
        for fd in fields:
            for cls in fd.group.classes:
                calls.clear()
                psi_weighted_class(fd, cls, params, sieve)
                first_query = fd is first and cls.index == 0
                assert len(calls) == (want if first_query else 0), (name, x, eps, fd.name, cls.label)


def _catalog_field(name):
    return BUILTIN_CATALOG.get(name) or {f.name: f for f in load_catalog(DEMO_CATALOG)}[name]


def test_psi_sums_match_scalar_oracle_in_any_order(sieve_small):
    # fields, sieves, x, eps and classes interleaved: the kept sums must never
    # answer for another field, sieve object or parameters.  The sieves start
    # with no sums kept; the second holds the same primes as the first; the
    # third lacks 3 and 547, so a value read back for the wrong sieve would differ
    first, twin = sieve_primes(sieve_small.limit), sieve_primes(sieve_small.limit)
    holed = PrimeSieve(limit=sieve_small.limit, primes=np.delete(sieve_small.primes, [1, 100]))
    fields = [_catalog_field(name) for name in ("gaussian", "zeta7", "s3cubic", "quad(15)")]
    queries = [
        (fd, sieve, WeightParams(x=x, eps=eps), cls)
        for fd in fields
        for sieve in (first, twin, holed)
        for x in (97, 1009.5, 5000)
        for eps in (0.01, 0.2)
        for cls in fd.group.classes
    ]
    rng = random.Random(5)
    order = queries * 2
    rng.shuffle(order)
    want = {}
    for fd, sieve, params, cls in order:
        key = (fd.name, id(sieve), params)
        if key not in want:
            want[key] = [math.fsum(v for _, v in pairs) for pairs in psi_weighted_scalar(fd, params, sieve)]
        got = psi_weighted_class(fd, cls, params, sieve)
        assert got == want[key][cls.index], (fd.name, sieve.primes.size, params, cls.label)


def test_psi_errors_raise_on_every_class_query(catalog, sieve_small):
    # a request that raises keeps nothing, so each class query raises again,
    # and the sums kept from an earlier request stay as they were
    fd = catalog["zeta5"]
    blind = FieldDescriptor(
        name="zeta5blind", defining_poly=fd.defining_poly, group=fd.group, disc_field=fd.disc_field
    )
    sieve = sieve_primes(sieve_small.limit)  # keeps no psi sums yet
    kept = WeightParams(x=100, eps=0.1)
    psi_weighted_class(fd, fd.group.classes[0], kept, sieve)
    for field, params, error in (
        (fd, WeightParams(x=sieve.limit, eps=0.1), SieveRangeExceeded),
        (blind, WeightParams(x=1000, eps=0.1), AmbiguousClass),
    ):
        for _ in range(2):
            for cls in field.group.classes:
                with pytest.raises(error):
                    psi_weighted_class(field, cls, params, sieve)
    scalar = psi_weighted_scalar(fd, kept, sieve)
    for cls in fd.group.classes:
        want = math.fsum(v for _, v in scalar[cls.index])
        assert psi_weighted_class(fd, cls, kept, sieve) == want


def _kept_psi_table(sieve, params):
    """The sieve's table of weighed terms at params, once its rows are checked:
    ascending in (p, k), none in the plateau block, and no term 0.0."""
    kept, weights = sieve.derived["psi_weights"]
    assert kept == params and weights.i.size == weights.k.size == weights.t.size
    rows = list(zip(weights.i.tolist(), weights.k.tolist()))
    assert rows == sorted(set(rows))
    assert not ((weights.start <= weights.i) & (weights.i < weights.stop)).any()
    assert (weights.t > 0.0).all()
    return weights


def test_psi_fields_at_interleaved_params_match_scalar_oracle(sieve_small):
    # the sieve keeps the weights of the last params for every field: fields
    # at one params read one entry, and a change of params weighs again, so
    # interleaving fields and params must still give the scalar terms bit for bit.
    # p4 leaves the plateau block empty, and p5 puts x = 11, a prime, just past it on the upper ramp
    sieve = sieve_primes(sieve_small.limit)  # keeps no psi weights yet
    a, b, c, d = (_catalog_field(name) for name in ("gaussian", "zeta7", "s3cubic", "quad(15)"))
    p1, p2, p3 = WeightParams(x=1009.5, eps=0.1), WeightParams(x=5000, eps=0.2499), WeightParams(x=97, eps=0.01)
    p4, p5 = WeightParams(x=3, eps=0.1), WeightParams(x=11, eps=0.2499)
    queries = [(a, p1), (b, p1), (a, p2), (b, p1), (c, p2), (c, p1), (d, p1), (a, p1), (b, p2), (d, p3), (a, p3),
               (c, p4), (c, p3), (b, p4), (b, p5), (c, p5), (b, p3), (d, p2)]
    for fd, params in queries:
        scalar = psi_weighted_scalar(fd, params, sieve)
        for cls in fd.group.classes:
            want = scalar[cls.index]
            assert psi_weighted_class(fd, cls, params, sieve) == math.fsum(v for _, v in want), (fd.name, params)
            assert psi_weighted_items(fd, cls, params, sieve) == want, (fd.name, params, cls.label)
        weights = _kept_psi_table(sieve, params)
        if params == p4:
            assert weights.start == weights.stop
    # the fields at one params read one entry
    entry = sieve.derived["psi_weights"]
    psi_weighted_class(b, b.group.classes[1], p2, sieve)
    assert sieve.derived["psi_weights"] is entry
    # s3cubic's ramified 23 enters the table as 23^2, which no class of s3cubic takes
    items = [psi_weighted_items(c, cls, p1, sieve) for cls in c.group.classes]
    weights = _kept_psi_table(sieve, p1)
    assert [k for i, k in zip(weights.i.tolist(), weights.k.tolist()) if sieve.primes[i] == 23] == [2]
    assert all(n != 23**2 for pairs in items for n, _ in pairs)


@pytest.mark.parametrize("name", ["gaussian", "zeta7", "s3cubic"])
def test_psi_prime_at_the_top_of_supp_f(name, sieve_small):
    # x = p e^-eps puts p where supp f ends, so f(log p / log x) is 0.0: the
    # sieve's table has no row for p, which no class may take as a term
    fd = BUILTIN_CATALOG[name]
    sieve = sieve_primes(sieve_small.limit)  # keeps no psi weights yet
    for p, eps in ((97, 0.1), (1009, 0.01), (5003, 0.2499), (7919, 0.1)):
        params = WeightParams(x=p / math.exp(eps), eps=eps)
        scalar = psi_weighted_scalar(fd, params, sieve)
        for cls in fd.group.classes:
            want = scalar[cls.index]
            assert psi_weighted_items(fd, cls, params, sieve) == want, (name, p, eps, cls.label)
            assert psi_weighted_class(fd, cls, params, sieve) == math.fsum(v for _, v in want)
        weights = _kept_psi_table(sieve, params)
        top = sieve.count_leq(params.x * math.exp(eps)) - 1
        assert sieve.primes[top] == p and top not in weights.i and top >= weights.stop


def test_psi_errors_between_fields_keep_the_weights(catalog, sieve_small, monkeypatch):
    # a request that raises between two fields at the same params leaves the
    # kept weights as they were: the second field weighs nothing, and both
    # fields' sums equal the scalar oracle's
    gaussian, z5 = catalog["gaussian"], catalog["zeta5"]
    blind = FieldDescriptor(
        name="zeta5blind", defining_poly=z5.defining_poly, group=z5.group, disc_field=z5.disc_field
    )
    sieve = sieve_primes(sieve_small.limit)  # keeps no psi weights yet
    params = WeightParams(x=1000, eps=0.1)
    psi_weighted_class(gaussian, gaussian.group.classes[0], params, sieve)
    entry = sieve.derived["psi_weights"]
    calls = []
    f_eval = chebotarev.f_eval
    monkeypatch.setattr(chebotarev, "f_eval", lambda params, t: calls.append(t) or f_eval(params, t))
    for field, request, error in (
        (blind, params, AmbiguousClass),
        (blind, WeightParams(x=2000, eps=0.1), AmbiguousClass),
        (z5, WeightParams(x=sieve.limit, eps=0.1), SieveRangeExceeded),
    ):
        with pytest.raises(error):
            psi_weighted_class(field, field.group.classes[0], request, sieve)
        assert sieve.derived["psi_weights"] is entry
    for fd in (z5, gaussian):
        scalar = psi_weighted_scalar(fd, params, sieve)
        for cls in fd.group.classes:
            assert psi_weighted_class(fd, cls, params, sieve) == math.fsum(v for _, v in scalar[cls.index])
    assert calls == [] and sieve.derived["psi_weights"] is entry


def test_psi_sums_keep_no_dropped_sieve_alive(catalog):
    fd = catalog["gaussian"]
    state = tuple(fd)
    sieve = sieve_primes(3000)
    for other, x in ((catalog["zeta7"], 700), (catalog["s3cubic"], 700)):
        psi_weighted_class(other, other.group.classes[0], WeightParams(x=x, eps=0.2), sieve)
    params = WeightParams(x=1000, eps=0.1)
    psi_weighted_class(fd, fd.group.classes[0], params, sieve)
    # the shared weights: one params, then two ints and the table's columns of numbers, and no descriptor
    weights = _kept_psi_table(sieve, params)
    assert type(weights) is chebotarev._PsiWeights
    assert type(weights.start) is int and type(weights.stop) is int
    assert [(type(c), c.dtype) for c in weights[2:]] == [(np.ndarray, np.intp), (np.ndarray, np.intp),
                                                         (np.ndarray, np.float64)]
    assert weights.i.max() == sieve.count_leq(1000 * math.exp(0.1)) - 1
    ref = weakref.ref(sieve)
    del sieve
    gc.collect()
    assert ref() is None
    assert tuple(fd) == state


def test_log_units_equal_math_log():
    # U * 2^-53 is math.log(p) itself, exactly, for every prime of the sieve
    sieve = sieve_primes(10**6)
    units = chebotarev._log_units(sieve, len(sieve))
    assert units.dtype == np.int64 and units.max() < 2**58
    assert (units * 2.0**-53).tolist() == [math.log(p) for p in sieve.primes.tolist()]


def test_log_units_grow_geometrically_with_x(catalog):
    # a first psi to x e^eps computes log p for the read-ahead floor of 2^10
    # primes; rising x extends the kept prefix at least doubling it each time,
    # so it is rebuilt O(log x) times
    fd, sieve, eps = catalog["gaussian"], sieve_primes(10**6), 0.01
    psi_weighted_class(fd, fd.group.classes[0], WeightParams(x=1000, eps=eps), sieve)
    assert sieve.count_leq(1000 * math.exp(eps)) == 169
    assert sieve.derived["psi_log_units"].size == 1024
    sizes = []
    for x in np.geomspace(1000, 5 * 10**5, 60).tolist():
        psi_weighted_class(fd, fd.group.classes[0], WeightParams(x=x, eps=eps), sieve)
        size = sieve.derived["psi_log_units"].size
        assert sieve.count_leq(x * math.exp(eps)) <= size <= len(sieve)
        if size not in sizes:
            sizes.append(size)
    assert all(b >= 2 * a for a, b in zip(sizes, sizes[1:])) and len(sizes) <= 10, sizes


@settings(max_examples=15, deadline=None)
@given(
    x=st.floats(min_value=3, max_value=2 * 10**5),
    eps=st.floats(min_value=1e-6, max_value=0.25, exclude_max=True),
    name=st.sampled_from(["gaussian", "zeta7", "quad(15)"]),
)
def test_psi_class_equals_fsum_of_scalar_terms(x, eps, name, sieve_large):
    # the exact-integer plateau sums give the compensated sum of the scalar terms, bit for bit
    fd = _catalog_field(name)
    params = WeightParams(x=x, eps=eps)
    scalar = psi_weighted_scalar(fd, params, sieve_large)
    for cls in fd.group.classes:
        want = math.fsum(v for _, v in scalar[cls.index])
        assert psi_weighted_class(fd, cls, params, sieve_large) == want, (name, x, eps, cls.label)


def test_psi_sharp_cutoff_proxy(catalog, sieve_medium):
    # eps -> 0 proxy: within 1% of the sharp count psi_C(x) - psi_C(sqrt x)
    g = catalog["gaussian"]
    x = 10**4
    params = WeightParams(x=x, eps=1e-3)
    cls = g.group.class_by_label("1")
    psi = psi_weighted_class(g, cls, params, sieve_medium)
    sharp = 0.0
    for p in sieve_medium.upto(x).tolist():
        if p == 2:
            continue
        logp = math.log(p)
        pk, k = p, 1
        while pk <= x:
            if math.sqrt(x) < pk and pow(p, k, 4) == 1:
                sharp += logp
            pk *= p
            k += 1
    assert abs(psi - sharp) <= 0.01 * sharp


def test_partial_summation_identity(sieve_small):
    # sharp data on primes recovers pi(x) exactly
    x = 10**4
    data = [(int(p), math.log(int(p))) for p in sieve_small.upto(x)]
    assert partial_summation_pi(data) == pytest.approx(pi_count(x, sieve_small), abs=1e-9)
    assert partial_summation_pi([]) == 0.0


def test_partial_summation_boundary_bound(catalog, sieve_medium):
    # conversion differs from pi_C only by supp-f boundary and prime-power mass
    g = catalog["gaussian"]
    x = 10**4
    params = WeightParams(x=x, eps=0.05)
    cls = g.group.class_by_label("1")
    items = psi_weighted_items(g, cls, params, sieve_medium)
    converted = partial_summation_pi(items)
    exact = pi_C_count(g, cls, x, sieve_medium).count
    budget = 0.0
    for n, value in items:
        weight = value / math.log(n)
        if _is_prime(n) and math.sqrt(x) <= n <= x:
            budget += abs(weight - 1.0)  # plateau primes each contribute exactly 1
        else:
            budget += abs(weight)  # ramp primes and prime powers
    missed_small = sum(1 for p in sieve_medium.upto(math.sqrt(x)).tolist() if p % 4 == 1)
    assert abs(converted - exact) <= budget + missed_small + 1e-9


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))


# -- base change ----------------------------------------------------------------


def test_base_change_h_equals_g(catalog, sieve_medium):
    for name in ("gaussian", "s3cubic", "zeta5"):
        fd = catalog[name]
        full = frozenset(fd.group.elements())
        for cls in fd.group.classes:
            check = base_change_compare(fd, cls, full, 10**3, sieve_medium)
            assert check.lhs == 0.0, (name, cls.label)
            assert check.passed


def test_base_change_s3_sextic(catalog, sieve_medium):
    fd = catalog["s3cubic"]
    cls = fd.group.class_by_label("3")
    h = fd.group.subgroup_closure({cls.representative})
    assert len(h) == 3
    for x in (10**3, 10**4):
        check = base_change_compare(fd, cls, h, x, sieve_medium)
        assert check.passed, (x, check)
        # the two-sided counts agree up to the inert/ramified fringe
        assert abs(check.pi_c - check.scale * check.pi_ch) <= 2


def test_base_change_abelian_proper_subgroups(catalog, sieve_medium):
    z5 = catalog["zeta5"]
    g2 = next(c for c in z5.group.classes if c.order == 2).representative
    h = z5.group.subgroup_closure({g2})
    for cls in z5.group.classes:
        if not (h & cls.members):
            continue
        check = base_change_compare(z5, cls, h, 10**4, sieve_medium)
        assert check.passed
    z7 = catalog["zeta7"]
    g3 = next(c for c in z7.group.classes if c.order == 3).representative
    h3 = z7.group.subgroup_closure({g3})
    identity = z7.group.classes[0]
    assert base_change_compare(z7, identity, h3, 10**4, sieve_medium).passed


def test_base_change_validation(catalog, sieve_small):
    g = catalog["gaussian"]
    cls1 = g.group.class_by_label("1")
    with pytest.raises(UnsupportedSubgroupAction):
        base_change_compare(g, cls1, frozenset({1}), 100, sieve_small)  # not a subgroup
    with pytest.raises(ParameterOutOfRange):
        base_change_compare(g, g.group.class_by_label("2"), frozenset({0}), 100, sieve_small)
    z5 = catalog["zeta5"]
    blind = FieldDescriptor(
        name="zeta5blind",
        defining_poly=z5.defining_poly,
        group=z5.group,
        disc_field=z5.disc_field,
    )
    with pytest.raises(UnsupportedSubgroupAction):
        base_change_compare(
            blind, z5.group.classes[0], frozenset(z5.group.elements()), 10**3, sieve_small
        )


def test_ambiguity_errors_name_the_smallest_ambiguous_prime(catalog, sieve_small):
    # the counts find ambiguity in the class tally, and only then walk the
    # table for the prime the message names: the smallest ambiguous p <= x (or
    # <= x e^eps for psi), here 2 and, on a sieve without 2 and 3, 7
    z5 = catalog["zeta5"]
    blind = FieldDescriptor(
        name="zeta5blind", defining_poly=z5.defining_poly, group=z5.group, disc_field=z5.disc_field
    )
    four_a, whole = z5.group.class_by_label("4a"), frozenset(z5.group.elements())
    late = PrimeSieve(limit=sieve_small.limit, primes=sieve_small.primes[sieve_small.primes > 3])
    for sieve in (sieve_small, late):
        p = min(q for q in sieve.primes.tolist() if frobenius_data(blind, q).ambiguous)
        assert p == (2 if sieve is sieve_small else 7)
        for error, message, call in (
            (AmbiguousClass, f"zeta5blind: order-4 classes are not separated at p={p}; request the class union instead",
             lambda: pi_C_count(blind, four_a, 1000, sieve)),
            (AmbiguousClass, f"zeta5blind: class not resolvable at p={p}",
             lambda: psi_weighted_class(blind, four_a, WeightParams(x=1000, eps=0.1), sieve)),
            (UnsupportedSubgroupAction, f"zeta5blind: class not resolvable at p={p}",
             lambda: base_change_compare(blind, z5.group.classes[0], whole, 1000, sieve)),
        ):
            with pytest.raises(error) as err:
                call()
            assert str(err.value) == message
    # below the first ambiguous prime there is nothing to name
    assert pi_C_count(blind, four_a, 5, late).count == 0
    # zeta7 without its action leaves orders 3 and 6 unresolved: a class names the
    # smallest prime of its own order, 3 for order 6, not 2, of order 3
    z7 = catalog["zeta7"]
    blind7 = FieldDescriptor(name="zeta7blind", defining_poly=z7.defining_poly, group=z7.group,
                             disc_field=z7.disc_field)
    for label, p in (("3a", 2), ("6b", 3)):
        with pytest.raises(AmbiguousClass) as err:
            pi_C_count(blind7, z7.group.class_by_label(label), 1000, sieve_small)
        assert str(err.value) == (f"zeta7blind: order-{label[0]} classes are not separated at p={p};"
                                  " request the class union instead")


# -- error reports ------------------------------------------------------------------


def test_flexi_error_report(catalog, sieve_medium):
    g = catalog["gaussian"]
    profile_k = classical_eta_profile(4, 2)
    profile_q = rational_eta_profile()
    report = flexi_error_report(
        g, g.group.class_by_label("1"), 10**5, profile_k, profile_q, sieve_medium
    )
    assert report.actual_error == abs(4783 - 0.5 * 9592)
    assert report.li_shape > 0 and report.pi_shape is not None
    assert report.pi_shape <= report.li_shape
    assert report.certificate is not None
    assert report.li_ratio == report.actual_error / report.li_shape


def test_flexi_domain_guard(catalog, sieve_small):
    g = catalog["s3cubic"]  # (log(e * 12167))^4 is about 1.2e4
    with pytest.raises(DomainTooSmall):
        flexi_error_report(
            g,
            g.group.class_by_label("1"),
            10**3,
            classical_eta_profile(12167, 6),
            rational_eta_profile(),
            sieve_small,
        )


def test_flexi_trivial_field(catalog, sieve_small):
    fd = catalog["rational"]
    report = flexi_error_report(
        fd,
        fd.group.classes[0],
        10**4,
        classical_eta_profile(1, 1),
        rational_eta_profile(),
        sieve_small,
    )
    assert report.actual_error == 0.0
    assert report.li_shape > 0 and report.pi_shape > 0


def test_psi_leaves_the_kept_histogram_to_the_counts(monkeypatch):
    # psi checks ambiguity on its own table, so a family query at x after psi
    # at x reads the histogram it kept: no unweighted np.bincount runs
    sieve = sieve_primes(10**4)
    family = Family(fields=(BUILTIN_CATALOG["gaussian"], BUILTIN_CATALOG["sqrt5"]), q_bound=20.0)
    bincount, counted = np.bincount, []

    def counting(x, weights=None, minlength=0):
        if weights is None:
            counted.append(len(x))
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", counting)
    for x in (2000.0, 5000.0):
        avg_cheb_error(family, x, sieve)
        assert counted, x  # the first query at x counts
        for fd in family.fields:
            psi_weighted_class(fd, fd.group.classes[1], WeightParams(x=x, eps=0.2), sieve)
        counted.clear()
        avg_cheb_error(family, x, sieve)
        assert counted == [], x


# -- the class tally: the counts of one x read one memoised tally ------------------

# A4 and A5 acting on the roots, and zeta5 without its residue action: the
# classes of order 3, 5 and 4 are not separated, so their primes are unresolved
TALLY_FIELDS = {fd.name: fd for fd in parse_catalog(
    "a4quartic | 12 8 0 0 1 | A4 | 331776\na5quintic | 16 20 0 0 0 1 | A5 | 1024000000", source="inline")}
TALLY_FIELDS["zeta5blind"] = FieldDescriptor(name="zeta5blind", defining_poly=BUILTIN_CATALOG["zeta5"].defining_poly,
                                             group=BUILTIN_CATALOG["zeta5"].group, disc_field=125)
TALLY_XS = (2.5, 100, 1000.5, 4999, 2 * 10**4)


@pytest.mark.parametrize("name,d", [("a4quartic", 3), ("a5quintic", 5), ("zeta5blind", 4)])
def test_order_union_counts_its_unresolved_primes(name, d):
    # an ambiguous record counts in its order's union, a ramified one in none
    fd = TALLY_FIELDS[name]
    sieve = sieve_primes(2 * 10**4)
    size = sum(c.size for c in fd.group.classes_of_order(d))
    orders = [(p, frobenius_data(fd, p).frobenius_order) for p in sieve.upto(max(TALLY_XS)).tolist()]
    for x in TALLY_XS:
        count = pi_C_count(fd, d, x, sieve)
        assert count.count == sum(p <= x and order == d for p, order in orders), x
        assert count.expected == size / fd.group.order * sieve.count_leq(x), x
    assert splitting_tally(fd, sieve.limit, sieve).unresolved == count.count > 0


@pytest.mark.parametrize("name,label", [("a4quartic", "3a"), ("a4quartic", "3b"), ("a5quintic", "5a"),
                                        ("zeta5blind", "4b")])
def test_ambiguous_class_names_its_first_unresolved_prime(name, label):
    fd = TALLY_FIELDS[name]
    cls = fd.group.class_by_label(label)
    sieve = sieve_primes(2 * 10**4)
    p = next(q for q in sieve.primes.tolist() if frobenius_data(fd, q).ambiguous)  # the smallest
    assert frobenius_data(fd, p).frobenius_order == cls.order
    assert pi_C_count(fd, cls, p - 0.5, sieve).count == 0  # below it there is nothing to name
    for x in (p, 4999, sieve.limit):
        with pytest.raises(AmbiguousClass) as err:
            pi_C_count(fd, cls, x, sieve)
        assert str(err.value) == (f"{name}: order-{cls.order} classes are not separated at p={p};"
                                  " request the class union instead")


def test_queries_of_one_x_search_the_sieve_and_count_once(monkeypatch):
    fd = BUILTIN_CATALOG["s3cubic"]
    sieve = sieve_primes(10**4)
    frobenius_table(fd, sieve, sieve.limit)  # warm: every prime classified,
    _class_tally(fd, sieve, 3000)  # and the tally of another x kept
    calls = []
    bincount, count_leq = np.bincount, PrimeSieve.count_leq

    def counting_bincount(kind, *args, **kwargs):
        calls.append(("bincount", kind.size))
        return bincount(kind, *args, **kwargs)

    def counting_count_leq(self, x):
        calls.append(("count_leq", x))
        return count_leq(self, x)

    monkeypatch.setattr(np, "bincount", counting_bincount)
    monkeypatch.setattr(PrimeSieve, "count_leq", counting_count_leq)
    for _ in range(3):
        for cls in fd.group.classes:
            pi_C_count(fd, cls, 5000, sieve)
        for d in (1, 2, 3):
            pi_C_count(fd, d, 5000, sieve)
        splitting_tally(fd, 5000, sieve)
    assert calls == [("count_leq", 5000), ("bincount", count_leq(sieve, 5000))]


def _session_counts(fd, x, sieve):
    """The splitting tally and every class and order count of fd at x, an ambiguous class by its message."""
    counts = []
    for cls in fd.group.classes:
        try:
            counts.append(pi_C_count(fd, cls, x, sieve))
        except AmbiguousClass as exc:
            counts.append(str(exc))
    orders = sorted({cls.order for cls in fd.group.classes})
    return splitting_tally(fd, x, sieve), counts, [pi_C_count(fd, d, x, sieve) for d in orders]


def test_rising_x_session_counts_as_a_cold_sieve():
    # base_change_compare leaves the tally of its x^(1/f) prefix counts as the
    # kept one, and the counts of x that follow must not read it
    s3 = BUILTIN_CATALOG["s3cubic"]
    a3 = frozenset(e for e in s3.group.elements() if s3.group.element_orders[e] in (1, 3))
    fds = [s3, BUILTIN_CATALOG["zeta7"], *TALLY_FIELDS.values()]
    sieve = sieve_primes(2 * 10**4)
    for x in (2.5, 50, 50.5, 97, 97, 1000.5, 1000.5, 1009, 4999, 12345.5, 2 * 10**4):
        for cls in (s3.group.class_by_label("1"), s3.group.class_by_label("3")):  # the classes A3 meets
            check = base_change_compare(s3, cls, a3, x, sieve)
            cold = PrimeSieve(limit=sieve.limit, primes=sieve.primes)
            assert check == base_change_compare(s3, cls, a3, x, cold), (x, cls.label)
            for fd in fds:
                cold = PrimeSieve(limit=sieve.limit, primes=sieve.primes)
                assert _session_counts(fd, x, sieve) == _session_counts(fd, x, cold), (x, fd.name)


# -- plans: what a query needs of the kinds or of (G, C, H) is built once ---------

LATE = parse_catalog("late | -2052 -1 1 | C2 | 8209", source="inline")[0]  # 8209 is past the 1024th prime, 8161


def _scalar_tally(fd, x, sieve):
    """(by class index, ramified, unresolved) of the primes p <= x, one ``frobenius_data`` at a time."""
    by_class, ramified, unresolved = [0] * len(fd.group.classes), 0, 0
    for p in sieve.upto(x).tolist():
        data = frobenius_data(fd, p)
        if data.ramified:
            ramified += 1
        elif data.ambiguous:
            unresolved += 1
        else:
            by_class[data.conjugacy_class.index] += 1
    return by_class, ramified, unresolved


def _check_against_scalar(fd, x, sieve, eps=0.1):
    by_class, ramified, unresolved = _scalar_tally(fd, x, sieve)
    tally = splitting_tally(fd, x, sieve)
    assert (list(tally.by_class.values()), tally.ramified, tally.unresolved) == (by_class, ramified, unresolved), x
    for cls in fd.group.classes:
        assert pi_C_count(fd, cls, x, sieve).count == by_class[cls.index], (x, cls.label)
    params = WeightParams(x=x, eps=eps)
    scalar = psi_weighted_scalar(fd, params, sieve)
    for cls in fd.group.classes:
        assert psi_weighted_class(fd, cls, params, sieve) == math.fsum(v for _, v in scalar[cls.index]), (x, cls)
        assert psi_weighted_items(fd, cls, params, sieve) == scalar[cls.index], (x, cls.label)


def test_late_ramified_prime_counts_below_and_above_it():
    # the first request classifies the first 2^10 primes, to 8161, and the
    # ramified prime 8209 only when a later request extends past them
    sieve = sieve_primes(2 * 10**4)
    _check_against_scalar(LATE, 5000, sieve)
    assert sieve.derived["frobenius_table", LATE].kind.size == 1024 == sieve.count_leq(8161)
    for x in (5000, 8161, 8208.5, 8209, 8209.5, 12000.5, 2 * 10**4 / math.exp(0.1), 5000):
        _check_against_scalar(LATE, x, sieve)
        assert splitting_tally(LATE, x, sieve).ramified == (x >= 8209), x


def test_a_kind_met_on_extension_updates_the_plan():
    # s3cubic on a sieve that holds no split prime below 2 * 10^4: the first
    # 2^10 primes meet three kinds, and the split kind is met only when a
    # request extends the kinds past them; tallies, counts and psi then read it
    s3 = BUILTIN_CATALOG["s3cubic"]
    full = sieve_primes(3 * 10**4)
    kept = [p for p in full.primes.tolist() if p > 2 * 10**4 or frobenius_data(s3, p).factorization_type != (1, 1, 1)]
    sieve = PrimeSieve(limit=full.limit, primes=kept)
    _check_against_scalar(s3, 5000, sieve)
    codes = sieve.derived["frobenius_table", s3].kind_code
    assert len(codes) == 3 and s3.group.class_by_label("1").index not in codes
    for x in (9000.5, 15000, 2 * 10**4 + 11, 25000, 5000, 27000):
        _check_against_scalar(s3, x, sieve)
    codes = sieve.derived["frobenius_table", s3].kind_code
    assert len(codes) == 4 and s3.group.class_by_label("1").index in codes
    assert splitting_tally(s3, 27000, sieve).by_class["1"] > 0


def _k_h_degrees(group, h, c_h, sigma):
    """The residue degrees f of the primes of K^H, above a prime with Frobenius
    sigma, whose Frobenius lies in C_H: one per <sigma>-orbit on the cosets gH."""
    cosets = sorted({frozenset(group.mul(a, b) for b in h) for a in group.elements()}, key=min)
    seen, out = set(), []
    for coset in cosets:
        if coset in seen:
            continue
        c, f = coset, 0
        while c not in seen:
            seen.add(c)
            c = frozenset(group.mul(sigma, a) for a in c)
            f += 1
        g = min(coset)
        if group.mul(group.mul(group.inv(g), group.power(sigma, f)), g) in c_h:
            out.append(f)
    return out


def _base_change_by_hand(fd, cls, h, x, records):
    group = fd.group
    g0 = min(h & cls.members)
    c_h = {group.conj(g0, b) for b in h}
    pi_c = pi_ch = 0
    for p, data in records:
        if p > x or data.ramified:
            continue
        pi_c += data.conjugacy_class is cls
        pi_ch += sum(p**f <= x for f in _k_h_degrees(group, h, c_h, data.conjugacy_class.representative))
    scale = cls.size / group.order * len(h) / len(c_h)
    rhs = cls.size / group.order * (group.order * math.sqrt(x) + 2.0 / math.log(2.0) * math.log(fd.abs_disc))
    return chebotarev.BaseChangeCheck(lhs=abs(pi_c - scale * pi_ch), rhs_bound=rhs, pi_c=pi_c, pi_ch=pi_ch,
                                      scale=scale, x=x)


def test_base_change_at_interleaved_queries_equals_a_recomputation():
    # S3 with A3 and with H = G, and every subgroup of the abelian built-ins,
    # at interleaved x, classes and H: each plan is read by later queries of
    # its (G, C, H), and every check equals one recomputed prime by prime
    sieve = sieve_primes(6000)
    queries = []
    for name in ("gaussian", "sqrt5", "zeta5", "cyclo7plus", "zeta7", "s3cubic"):
        fd = BUILTIN_CATALOG[name]
        group = fd.group
        if name == "s3cubic":
            subgroups = [frozenset(e for e in group.elements() if group.element_orders[e] in (1, 3)),
                         frozenset(group.elements())]
        else:
            subgroups = sorted(_all_subgroups(group), key=sorted)
        records = [(p, frobenius_data(fd, p)) for p in sieve.primes.tolist()]
        for h in subgroups:
            for cls in group.classes:
                if h & cls.members:
                    for x in (2.5, 97, 1000.5, 5999):
                        queries.append((fd, cls, h, x, records))
    random.Random(28).shuffle(queries)
    for fd, cls, h, x, records in queries:
        want = _base_change_by_hand(fd, cls, h, x, records)
        assert base_change_compare(fd, cls, h, x, sieve) == want, (fd.name, cls.label, sorted(h), x)


def test_refused_subgroups_raise_on_every_call(sieve_small):
    gaussian, s3 = BUILTIN_CATALOG["gaussian"], BUILTIN_CATALOG["s3cubic"]
    transposition = s3.group.class_by_label("2")
    a3 = frozenset(e for e in s3.group.elements() if s3.group.element_orders[e] in (1, 3))
    for _ in range(3):
        with pytest.raises(UnsupportedSubgroupAction, match="H is not a subgroup"):
            base_change_compare(gaussian, gaussian.group.classes[1], frozenset({1}), 100, sieve_small)
        with pytest.raises(UnsupportedSubgroupAction, match="H is not a subgroup"):
            base_change_compare(s3, transposition, frozenset({0, transposition.representative, 1, 2}), 100,
                                sieve_small)
        with pytest.raises(ParameterOutOfRange, match="H does not meet the conjugacy class"):
            base_change_compare(s3, transposition, a3, 100, sieve_small)
        assert base_change_compare(s3, s3.group.class_by_label("3"), a3, 100, sieve_small).passed


def _smallest_x_reaching(p, eps):
    """The smallest float x whose support end x * e^eps, as psi computes it, is >= p."""
    x = p * math.exp(-eps)
    while x * math.exp(eps) < p:
        x = math.nextafter(x, math.inf)
    while math.nextafter(x, 0.0) * math.exp(eps) >= p:
        x = math.nextafter(x, 0.0)
    return x


@pytest.mark.parametrize("name", ["zeta5blind", "a4quartic"])
def test_psi_names_the_smallest_ambiguous_prime_after_tallies(name):
    # tallies build the plan, with its ambiguous kinds, before psi asks: psi
    # still raises, naming the smallest ambiguous prime p <= x e^eps, and the
    # same plan answers below that prime
    fd = TALLY_FIELDS[name]
    sieve = sieve_primes(10**4)
    holed = PrimeSieve(limit=sieve.limit, primes=sieve.primes[sieve.primes > 3])
    for s in (sieve, holed):
        p = min(q for q in s.primes.tolist() if frobenius_data(fd, q).ambiguous)
        for x in (100, 5000, 1000.5):
            splitting_tally(fd, x, s)
        assert min(s.derived["frobenius_table", fd].kind_code) < -1  # an ambiguous kind
        for x in (1000.5, 100, max(3, _smallest_x_reaching(p, 0.1))):  # WeightParams needs x >= 3
            for cls in fd.group.classes:
                with pytest.raises(AmbiguousClass) as err:
                    psi_weighted_class(fd, cls, WeightParams(x=x, eps=0.1), s)
                assert str(err.value) == f"{name}: class not resolvable at p={p}"
        if p * math.exp(-0.1) > 3:
            below = WeightParams(x=p * math.exp(-0.1) * (1 - 1e-6), eps=0.1)  # supp f ends just below p
            scalar = psi_weighted_scalar(fd, below, s)
            for cls in fd.group.classes:
                assert psi_weighted_class(fd, cls, below, s) == math.fsum(v for _, v in scalar[cls.index])


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda fd, sieve: pi_C_count(fd, fd.group.classes[0], NAN, sieve),
    lambda fd, sieve: splitting_tally(fd, NAN, sieve),
    lambda fd, sieve: pi_count(NAN, sieve),
    lambda fd, sieve: base_change_compare(fd, fd.group.classes[0], frozenset({0}), NAN, sieve),
    lambda fd, sieve: sieve.upto(NAN),
    lambda fd, sieve: sieve.count_leq(NAN),
], ids=["pi_C_count", "splitting_tally", "pi_count", "base_change_compare", "upto", "count_leq"])
def test_nan_x_is_a_typed_error(call):
    # on a fresh sieve and after a query has kept a tally, NaN is refused before any search
    fd = BUILTIN_CATALOG["s3cubic"]
    sieve = sieve_primes(1000)
    for _ in range(2):
        with pytest.raises(ParameterOutOfRange, match="^x must be a number, got nan$"):
            call(fd, sieve)
        splitting_tally(fd, 500, sieve)
