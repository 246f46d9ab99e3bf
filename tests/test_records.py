"""The immutable record base of the library's 18 record classes: construction
by position or keyword with defaults, frozen fields, equality and hash by
class and field values, the dataclass repr, and pickling."""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest

from gwbounds.classify_f3 import F3Class, F3Thresholds, classify_f3
from gwbounds.classify_gp import GPThresholds, gp_thresholds
from gwbounds.errors import DomainError, require_count
from gwbounds.fl_bounds import SWITCHES, UPPER_ON_S, BoundDirection
from gwbounds.genetics import TraitModel, VGInf, WFModel, vg_inf
from gwbounds.pgf_core import (
    Binomial,
    FiniteThree,
    FixedPoint,
    FractionalLinear,
    GeneralizedPoisson,
    Moments,
    MuDerivatives,
    NegBinomial,
    Poisson,
    Record,
    extinction_probability,
    moments,
)
from gwbounds.sinf_estimates import SeriesCoeffs, SinfBounds, sinf_bounds_all, sinf_series

F3_LAW = FiniteThree(p0=0.2, p1=0.5, p2=0.2, p3=0.1)
TRAIT = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=100)

# One record of each class, most of them as the library returns them.
RECORDS = [
    Poisson(m=1.5).mu_table(),
    moments(Poisson(m=1.5)),
    extinction_probability(Poisson(m=1.5)),
    Poisson(m=1.5),
    Binomial(n=5, p=0.3),
    NegBinomial(r=5, p=0.3),
    FractionalLinear(pi=0.5, rho=0.2),
    F3_LAW,
    GeneralizedPoisson(mu=1.2, lam=0.2),
    BoundDirection(SWITCHES, switch_n=7, conjectured=True),
    classify_f3(F3_LAW).thresholds,
    classify_f3(F3_LAW),
    gp_thresholds(0.1),
    sinf_bounds_all(Poisson(m=1.2), 0.2),
    sinf_series(Poisson(m=1.5).mu_table()),
    TRAIT,
    WFModel(pop_size=100, s_sel=0.1, effective_size=100.0),
    vg_inf(TRAIT, Poisson(m=1.1)),
]
CLASSES = [MuDerivatives, Moments, FixedPoint, Poisson, Binomial, NegBinomial,
           FractionalLinear, FiniteThree, GeneralizedPoisson, BoundDirection,
           F3Thresholds, F3Class, GPThresholds, SinfBounds, SeriesCoeffs,
           TraitModel, WFModel, VGInf]

by_class = pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)


def fields(record):
    return {name: getattr(record, name) for name in type(record)._fields}


def test_one_record_of_each_class():
    assert [type(r) for r in RECORDS] == CLASSES
    assert all(issubclass(cls, Record) for cls in CLASSES)


@by_class
def test_repr_is_the_dataclass_repr(record):
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    assert repr(record) == repr(twin(**fields(record)))


@by_class
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and repr(back) == repr(record)


@by_class
def test_equal_values_are_equal_records_with_equal_hashes(record):
    cls = type(record)
    by_keyword = cls(**fields(record))
    by_position = cls(*fields(record).values())
    assert by_keyword == record and by_position == record
    assert hash(by_keyword) == hash(record) == hash(by_position)
    # Binomial(n=5, p=0.3) and NegBinomial(r=5, p=0.3) are among the others.
    assert all(record != other for other in RECORDS if other is not record)


@by_class
def test_a_record_equals_itself_and_its_values_follow_its_fields(record):
    # Equality tests identity first: a slot hit compares a law with itself.
    assert record == record and not record != record
    assert record._values() == tuple(fields(record).values())


def test_a_record_with_a_nan_field_equals_itself():
    record = vg_inf(TRAIT, F3_LAW)  # F3 has no series: simple is NaN
    assert math.isnan(record.simple)
    assert record == record and not record != record


@by_class
def test_another_class_with_equal_values_is_not_equal(record):
    cls = type(record)
    twin = type(cls.__name__, (cls,), {})(**fields(record))
    assert twin._fields == cls._fields and repr(twin) == repr(record)
    assert twin != record and record != twin


@by_class
def test_fields_cannot_be_assigned_or_deleted(record):
    name, value = next(iter(fields(record).items()))
    with pytest.raises(AttributeError, match=repr(name)):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match=repr(name)):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == value


@by_class
def test_missing_unknown_and_repeated_fields_are_type_errors(record):
    cls = type(record)
    values = fields(record)
    first = next(iter(values))
    with pytest.raises(TypeError, match=cls.__name__):
        cls(**{k: v for k, v in values.items() if k != first})
    with pytest.raises(TypeError, match=cls.__name__):
        cls(**values, no_such_field=1)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*values.values(), 1)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(values[first], **values)


def test_bound_direction_defaults():
    assert BoundDirection(UPPER_ON_S) == BoundDirection(UPPER_ON_S, None, False)
    assert BoundDirection(SWITCHES, 3) == BoundDirection(
        kind=SWITCHES, switch_n=3, conjectured=False)
    assert BoundDirection(UPPER_ON_S, conjectured=True).switch_n is None


def test_pinned_reprs():
    assert repr(BoundDirection(UPPER_ON_S)) == \
        "BoundDirection(kind='UpperOnS', switch_n=None, conjectured=False)"
    assert repr(F3_LAW) == "FiniteThree(p0=0.2, p1=0.5, p2=0.2, p3=0.1)"


def test_construction_validates_and_so_does_unpickling():
    # A pickle holds the field values, and loading one calls the constructor.
    with pytest.raises(DomainError, match="m > 1"):
        Poisson(1.0)
    data = pickle.dumps(Poisson(m=1.5))
    assert struct.pack(">d", 1.5) in data
    with pytest.raises(DomainError, match="m > 1"):
        pickle.loads(data.replace(struct.pack(">d", 1.5), struct.pack(">d", 1.0)))


@pytest.mark.parametrize("record, message", [
    (lambda: Poisson(m=float("inf")), "Poisson requires a finite m, got inf"),
    (lambda: GeneralizedPoisson(mu=float("inf"), lam=0.2),
     "GeneralizedPoisson requires a finite mu, got inf"),
    (lambda: TraitModel(theta_mut=float("inf"), alpha=1.0, s_sel=0.1, pop_size=100),
     "TraitModel requires a finite theta_mut, got inf"),
    (lambda: TraitModel(theta_mut=1.0, alpha=float("inf"), s_sel=0.1, pop_size=100),
     "TraitModel requires a finite alpha, got inf"),
    (lambda: WFModel(pop_size=100, s_sel=float("inf"), effective_size=100.0),
     "WFModel requires a finite s_sel, got inf"),
    (lambda: WFModel(pop_size=100, s_sel=0.1, effective_size=float("inf")),
     "WFModel requires a finite effective_size, got inf"),
], ids=["poisson", "gp", "theta_mut", "alpha", "wf_s", "wf_ne"])
def test_non_finite_parameters_are_domain_errors(record, message):
    with pytest.raises(DomainError) as info:
        record()
    assert str(info.value) == message


@pytest.mark.parametrize("record, message", [
    (lambda: Binomial(n=5.5, p=0.3), "n must be an integer >= 2, got 5.5"),
    (lambda: NegBinomial(r=2.5, p=0.3), "r must be an integer >= 1, got 2.5"),
    (lambda: WFModel(100.0, 0.1, 100.0), "pop_size must be an integer >= 2, got 100.0"),
    (lambda: TraitModel(1, 1, 0.1, 100.5), "pop_size must be an integer >= 2, got 100.5"),
], ids=["binomial", "negbinomial", "wf", "trait"])
def test_non_integer_sizes_are_domain_errors(record, message):
    with pytest.raises(DomainError) as info:
        record()
    assert str(info.value) == message


@pytest.mark.parametrize("record, message", [
    (lambda: MuDerivatives(1.0, 2.0, 2.0, -1.0, 3.0, 1.0), "mu30 must be >= 0, got -1.0"),
    (lambda: Binomial(n=5, p=1.5), "Binomial requires p in (0,1), got 1.5"),
    (lambda: Binomial(n=2, p=0.3), "Binomial requires mean n*p > 1, got 0.6"),
    (lambda: NegBinomial(r=0, p=0.3), "r must be an integer >= 1, got 0"),
    (lambda: NegBinomial(r=5, p=1.0), "NegBinomial requires p in (0,1), got 1.0"),
    (lambda: NegBinomial(r=1, p=0.6), "NegBinomial requires mean r(1-p)/p > 1"),
    (lambda: FractionalLinear(pi=0.5, rho=0.0),
     "FractionalLinear requires rho in (0,1), got 0.0"),
    (lambda: FiniteThree(p0=0.0, p1=0.5, p2=0.3, p3=0.2), "FiniteThree requires p0 > 0"),
    (lambda: FiniteThree(p0=0.5, p1=0.5, p2=0.0, p3=0.0), "FiniteThree requires p0 + p1 < 1"),
    (lambda: GeneralizedPoisson(mu=0.0, lam=0.5),
     "GeneralizedPoisson requires mu > 0, got 0.0"),
    (lambda: TraitModel(1.0, 1.0, 0.0, 100), "s_sel must be > 0, got 0.0"),
    (lambda: TraitModel(1.0, 1.0, 0.1, 1), "pop_size must be an integer >= 2, got 1"),
    (lambda: WFModel(1, 0.1, 1.0), "pop_size must be an integer >= 2, got 1"),
    (lambda: WFModel(100, 0.0, 100.0), "s_sel must be > 0, got 0.0"),
    (lambda: WFModel(100, 0.1, 0.0), "effective_size must be > 0, got 0.0"),
], ids=["mu30", "binomial_p", "binomial_mean", "negbinomial_r", "negbinomial_p",
        "negbinomial_mean", "fl_rho", "f3_p0", "f3_p0_p1", "gp_mu", "trait_s_sel",
        "trait_pop_size", "wf_pop_size", "wf_s_sel", "wf_effective_size"])
def test_out_of_domain_parameters_are_domain_errors(record, message):
    with pytest.raises(DomainError) as info:
        record()
    assert str(info.value) == message


class Index:
    """An integer type that is not int: it has __index__, as operator.index
    takes, and compares as its value."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __ge__(self, other):
        return self.value >= other

    def __repr__(self):
        return f"Index({self.value})"


@pytest.mark.parametrize("n", [3, 4, True, np.int64(3), np.int64(7), Index(3), Index(9)],
                         ids=repr)
def test_require_count_accepts_integers_at_and_above_least(n):
    least = 1 if n is True else 3
    assert require_count("n", n, least) is None


@pytest.mark.parametrize("n, least, message", [
    (3.0, 0, "n must be an integer >= 0, got 3.0"),
    (-1, 0, "n must be an integer >= 0, got -1"),
    ("3", 0, "n must be an integer >= 0, got '3'"),
    (None, 0, "n must be an integer >= 0, got None"),
    (2, 3, "n must be an integer >= 3, got 2"),
    (False, 1, "n must be an integer >= 1, got False"),
    (np.int64(2), 3, f"n must be an integer >= 3, got {np.int64(2)!r}"),
    (Index(2), 3, "n must be an integer >= 3, got Index(2)"),
], ids=repr)
def test_require_count_rejects_other_values_with_its_message(n, least, message):
    with pytest.raises(DomainError) as info:
        require_count("n", n, least)
    assert str(info.value) == message
