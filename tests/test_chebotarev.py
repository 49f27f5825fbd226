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
from chebotarev_lab.errors import (
    AmbiguousClass,
    DomainTooSmall,
    ParameterOutOfRange,
    SieveRangeExceeded,
    UnsupportedSubgroupAction,
)
from chebotarev_lab.fields import BUILTIN_CATALOG, FieldDescriptor, frobenius_data, load_catalog
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
            for cls in fd.group.classes:
                items = psi_weighted_items(fd, cls, params, sieve_medium)
                assert items == psi_weighted_scalar(fd, cls, params, sieve_medium), (name, x, eps, cls.label)


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
            for cls in fd.group.classes:
                want = psi_weighted_scalar(fd, cls, params, sieve_medium)
                assert psi_weighted_items(fd, cls, params, sieve_medium) == want, (name, x, eps, cls.label)
                assert psi_weighted_class(fd, cls, params, sieve_medium) == math.fsum(v for _, v in want)


def _weighed_pairs(fd, cls, params, sieve):
    """(p, k) pairs with the k-th Frobenius power in cls, outside the plateau
    block isqrt(2 x e^eps) < p <= x (1 - 1e-9) and above the lower end of
    supp f, where t = k log p / log x has t - 1/2 > -2w: the pairs f must weigh."""
    n_hi = params.x * math.exp(params.eps)
    root = math.isqrt(int(2 * n_hi))
    count = 0
    for p in sieve.upto(n_hi).tolist():
        data = frobenius_data(fd, p)
        if data.ramified or root < p <= params.x * (1.0 - 1e-9):
            continue
        sigma = data.conjugacy_class.representative
        k = 1
        while k * math.log(p) <= params.log_x + params.eps:
            if k * math.log(p) / params.log_x - 0.5 > -2 * params.boxcar_width:
                count += fd.group.class_of(fd.group.power(sigma, k)) == cls
            k += 1
    return count


@pytest.mark.parametrize("name", ["gaussian", "zeta5", "zeta7", "s3cubic"])
def test_psi_calls_f_only_off_the_plateau(name, sieve_medium, monkeypatch):
    # one pass weighs the pairs of every class: the first class query at an
    # (x, eps) calls f once per pair of any class, the others not at all
    fd = BUILTIN_CATALOG[name]
    sieve = PrimeSieve(limit=sieve_medium.limit, primes=sieve_medium.primes)  # keeps no psi sums yet
    calls = []
    f_eval = chebotarev.f_eval

    def counting(params, t):
        calls.append(t)
        return f_eval(params, t)

    monkeypatch.setattr(chebotarev, "f_eval", counting)
    for x, eps in ((11, 0.001), (1009, 0.1), (10**4 - 0.5, 0.2499)):
        params = WeightParams(x=x, eps=eps)
        want = sum(_weighed_pairs(fd, cls, params, sieve) for cls in fd.group.classes)
        for i, cls in enumerate(fd.group.classes):
            calls.clear()
            psi_weighted_class(fd, cls, params, sieve)
            assert len(calls) == (want if i == 0 else 0), (name, x, eps, cls.label)


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
        key = (fd.name, id(sieve), params, cls.index)
        if key not in want:
            want[key] = math.fsum(v for _, v in psi_weighted_scalar(fd, cls, params, sieve))
        got = psi_weighted_class(fd, cls, params, sieve)
        assert got == want[key], (fd.name, sieve.primes.size, params, cls.label)


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
    for cls in fd.group.classes:
        want = math.fsum(v for _, v in psi_weighted_scalar(fd, cls, kept, sieve))
        assert psi_weighted_class(fd, cls, kept, sieve) == want


def test_psi_sums_keep_no_dropped_sieve_alive(catalog):
    fd = catalog["gaussian"]
    state = dict(vars(fd))
    sieve = sieve_primes(3000)
    psi_weighted_class(fd, fd.group.classes[0], WeightParams(x=1000, eps=0.1), sieve)
    ref = weakref.ref(sieve)
    del sieve
    gc.collect()
    assert ref() is None
    assert vars(fd) == state


def test_log_units_equal_math_log():
    # U * 2^-53 is math.log(p) itself, exactly, for every prime of the sieve
    sieve = sieve_primes(10**6)
    units = chebotarev._log_units(sieve, len(sieve))
    assert units.dtype == np.int64 and units.max() < 2**58
    assert (units * 2.0**-53).tolist() == [math.log(p) for p in sieve.primes.tolist()]


def test_log_units_grow_geometrically_with_x(catalog):
    # a first psi computes log p only to x e^eps; rising x extends the kept
    # prefix at most doubling it each time, so it is rebuilt O(log x) times
    fd, sieve, eps = catalog["gaussian"], sieve_primes(10**6), 0.01
    psi_weighted_class(fd, fd.group.classes[0], WeightParams(x=1000, eps=eps), sieve)
    need = sieve.count_leq(1000 * math.exp(eps))
    assert need <= sieve.derived["psi_log_units"].size <= 2 * need
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
    for cls in fd.group.classes:
        want = math.fsum(v for _, v in psi_weighted_scalar(fd, cls, params, sieve_large))
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
