"""The record contract: every public record is read-only; value records
compare and hash by value, identity objects by identity; constructors that
check or derive fields do so again for ``_replace`` and copies."""

import copy
import math
import pickle

import pytest

from chebotarev_lab.artin import LocalRootMultiset, local_roots
from chebotarev_lab.chebotarev import (
    ChebotarevCount,
    base_change_compare,
    flexi_error_report,
    is_admissible,
    pi_C_count,
    splitting_tally,
)
from chebotarev_lab.errors import ParameterOutOfRange, ValidationError
from chebotarev_lab.families import Family, avg_cheb_error, compositum_disc_check
from chebotarev_lab.fields import (
    BUILTIN_CATALOG,
    CyclotomicAction,
    FieldDescriptor,
    FrobeniusData,
    frobenius_data,
    frobenius_table,
    parse_catalog,
    quadratic_field,
)
from chebotarev_lab.groups import ConjugacyClass, build_group
from chebotarev_lab.large_sieve import DirichletPolynomial, MeanValueWindow, mvt_report, zero_density_report
from chebotarev_lab.oracles import Partition
from chebotarev_lab.sieve import PrimeSieve, sieve_primes
from chebotarev_lab.weights import WeightParams, check_decay_shifted_line
from chebotarev_lab.zfr import classical_eta_profile, constant_zfr, eta_large_zfr_closed, rational_eta_profile

ZETA7 = BUILTIN_CATALOG["zeta7"]
S3_ROW = "s3row | -1 -1 0 1 | S3 | -12167"


def _records():
    """One of each public record, from the functions that return it where there is one."""
    fd, gaussian = ZETA7, BUILTIN_CATALOG["gaussian"]
    sieve = sieve_primes(1000)
    cls = fd.group.classes[1]
    family = Family(fields=(quadratic_field(-1), quadratic_field(2)), q_bound=10.0)
    window = MeanValueWindow(t_height=1.0, y=2.0, u=100.0)
    params = WeightParams(x=100.0, eps=0.1)
    zfr = constant_zfr(0.1)
    profile = classical_eta_profile(4, 2)
    return [
        fd,
        fd.residue_action,
        frobenius_data(fd, 29),
        frobenius_table(fd, sieve, 100),
        cls,
        sieve,
        pi_C_count(fd, cls, 100, sieve),
        splitting_tally(fd, 100, sieve),
        is_admissible(fd.group, cls),
        base_change_compare(fd, cls, frozenset(fd.group.elements()), 100, sieve),
        flexi_error_report(gaussian, gaussian.group.classes[1], 100, profile, rational_eta_profile(), sieve),
        family,
        compositum_disc_check(quadratic_field(-1), quadratic_field(2)),
        avg_cheb_error(family, 100, sieve),
        local_roots(fd, 29),
        Partition((2, 1)),
        DirichletPolynomial({1: 1.0, 2: 0.5j}),
        window,
        mvt_report(family, window, sieve),
        zero_density_report(family, 1.0, 0.9),
        params,
        check_decay_shifted_line(params, 1.0),
        zfr,
        zfr.pieces[0],
        eta_large_zfr_closed(100.0, 0.5, 1, 1000.0),
        profile,
    ]


def _field_names(record):
    return record._fields if isinstance(record, tuple) else [n for n in type(record).__slots__ if n != "__weakref__"]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_every_record_is_read_only(record):
    for name in _field_names(record):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 0  # no instance dict to put it in


def test_every_public_record_class_is_covered():
    import chebotarev_lab

    exported = {name for name in chebotarev_lab.__all__ if isinstance(getattr(chebotarev_lab, name), type)}
    assert exported - {type(r).__name__ for r in _records()} == {"FiniteGroup"}  # a group is built, not a record


def test_value_records_compare_and_hash_by_value():
    twins = [
        (parse_catalog(S3_ROW)[0], parse_catalog(S3_ROW)[0]),
        (frobenius_data(ZETA7, 29), FrobeniusData(False, (1,) * 6, 1, ZETA7.group.classes[0])),
        (ZETA7.residue_action, CyclotomicAction(7, tuple(ZETA7.residue_action.residue_class))),
    ]
    for a, b in twins:
        assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    fd = twins[0][0]
    assert fd != FieldDescriptor(name="other", defining_poly=fd.defining_poly, group=fd.group, disc_field=fd.disc_field)
    # a record equals the plain tuple of its fields
    assert fd == (fd.name, fd.defining_poly, fd.group, fd.disc_field, None, fd.poly_disc)


def test_weight_params_compare_and_hash_by_x_and_eps():
    params = WeightParams(x=6614.0, eps=0.1)
    assert params == WeightParams(x=6614.0, eps=0.1) == (6614.0, 0.1)
    assert hash(params) == hash(WeightParams(x=6614.0, eps=0.1)) == hash((6614.0, 0.1))
    assert params != WeightParams(x=6614.0, eps=0.2) and params != WeightParams(x=6615.0, eps=0.1)
    assert not params != WeightParams(x=6614.0, eps=0.1)
    assert params != tuple(params)  # the derived fields are not compared


def test_identity_objects_compare_by_identity():
    cls = ZETA7.group.classes[1]
    twin = ConjugacyClass(cls.index, cls.label, cls.representative, cls.members, cls.order)
    assert cls == cls and cls != twin and {cls: 1}.get(twin) is None
    sieve = sieve_primes(100)
    other = PrimeSieve(limit=100, primes=sieve.primes)
    assert sieve == sieve and sieve != other and {sieve: 1}.get(other) is None


def test_reprs():
    assert repr(ZETA7) == "FieldDescriptor(zeta7, G=C6, D=-16807)"
    assert repr(WeightParams(x=6614.0, eps=0.1)) == "WeightParams(x=6614.0, eps=0.1)"
    assert repr(sieve_primes(1000)) == "PrimeSieve(limit=1000)"
    assert repr(ChebotarevCount(10.0, "1", 2, 1.5, 0.5)) == (
        "ChebotarevCount(x=10.0, class_label='1', count=2, expected=1.5, error=0.5)")


def test_replace_checks_and_derives_again():
    params = WeightParams(x=100.0, eps=0.1)._replace(x=1000.0)
    assert tuple(params) == tuple(WeightParams(x=1000.0, eps=0.1))
    with pytest.raises(ParameterOutOfRange):
        params._replace(eps=0.5)
    fd = parse_catalog(S3_ROW)[0]
    other = fd._replace(defining_poly=(1, 1, 0, 1), disc_field=-29791)  # disc f = -31, D_K = -31^3
    assert type(other) is FieldDescriptor and other.poly_disc == -31
    with pytest.raises(ValidationError):
        fd._replace(defining_poly=(0, 0, 0, 1))
    family = Family(fields=(quadratic_field(-1), quadratic_field(2)), q_bound=10.0)
    assert family._replace(fields=family.fields * 2).multiplicity == 2
    with pytest.raises(ValidationError):
        family._replace(q_bound=1.0)
    for record, change in ((Partition((2, 1)), {"parts": (1, 2)}), (LocalRootMultiset(2, 4), {"group_order": 3}),
                           (DirichletPolynomial({1: 1.0}), {"terms": {0: 1.0}}),
                           (MeanValueWindow(1.0, 2.0, 10.0), {"u": 1.0})):
        assert record._replace() == record
        with pytest.raises(ValidationError):
            record._replace(**change)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_rebuild_through_the_constructor(clone):
    params = WeightParams(x=100.0, eps=0.1)
    assert tuple(clone(params)) == tuple(params)
    family = Family(fields=(quadratic_field(-1), quadratic_field(2)), q_bound=10.0)
    assert clone(family).multiplicity == family.multiplicity
    fd = clone(BUILTIN_CATALOG["s3cubic"])
    assert fd.poly_disc == -23 and fd.group.name == "S3"
    cls = clone(build_group("S3").classes[1])
    assert (cls.label, cls.members) == ("2", frozenset({1, 2, 5}))
    sieve = sieve_primes(100)
    sieve.derived["kept"] = 1
    twin = clone(sieve)
    assert twin.primes.tolist() == sieve.primes.tolist() and not twin.primes.flags.writeable
    assert twin.derived == {}  # what the layers derived is not carried over
