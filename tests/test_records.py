"""``records.record`` against ``dataclasses.dataclass``, the implementation it replaced.

Each case declares the same class body twice, once as a record and once
as a frozen dataclass twin, and requires the same outcome from both: the
same repr or the same exception class.  The four classes that compared
by value as dataclasses (``Budget``, ``PurityReport``,
``DefinabilityResult`` and ``CriterionResult``) are compared with twins
built from their own fields and ``__post_init__``.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from ppmod.acceptance import CriterionResult
from ppmod.construct import Budget
from ppmod.defcat import PurityReport
from ppmod.errors import ValidationFailure
from ppmod.fixtures import mod_rr
from ppmod.formulas import SubgroupRep
from ppmod.lattice import DefinabilityResult
from ppmod.records import FrozenRecordError, record, replace

RECORD = {False: record, True: record(eq=True)}
DATACLASS = {eq: dataclasses.dataclass(frozen=True, eq=eq) for eq in (False, True)}


def outcome(fn, *args, **kwargs):
    """``("value", repr)`` of the call, or ``("raises", class, message)``: the
    class both implementations share, and the message of a ppmod error only
    (the two word their ``TypeError`` messages differently)."""
    try:
        return "value", repr(fn(*args, **kwargs))
    except (ValidationFailure, TypeError, AttributeError) as e:
        kind = next(k for k in (ValidationFailure, TypeError, AttributeError) if isinstance(e, k))
        return "raises", kind, str(e) if kind is ValidationFailure else None


def point_class(decorate):
    class Point:
        x: int
        y: int = 2
        z: tuple = ()

        def __post_init__(self):
            if self.x < 0:
                raise ValidationFailure(f"negative x: {self.x}")

    return decorate(Point)


def twins(eq=False):
    return point_class(RECORD[eq]), point_class(DATACLASS[eq])


def inherited_classes(decorate):
    @decorate
    class Base:
        field: str
        labels: tuple

        def __post_init__(self):
            object.__setattr__(self, "_key", (self.field, self.labels))

    @decorate
    class Child(Base):
        basis: int
        from_r: object = None

    return Base, Child


def twin_of(cls):
    """A frozen dataclass with ``cls``'s name, fields, defaults and ``__post_init__``."""
    names = cls.__record_fields__
    ns = {"__annotations__": {n: object for n in names}, "__qualname__": cls.__qualname__}
    ns.update({n: getattr(cls, n) for n in names if hasattr(cls, n)})
    if hasattr(cls, "__post_init__"):
        ns["__post_init__"] = cls.__post_init__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


CALLS = [
    ((1,), {}),
    ((1, 5), {}),
    ((1, 5, (3,)), {}),
    ((), {"x": 1}),
    ((), {"z": "s", "x": 4}),
    ((1,), {"z": 4}),
    ((-1,), {}),
    ((), {"y": 1}),
    ((), {}),
    ((1, 2, 3, 4), {}),
    ((1,), {"x": 2}),
    ((1,), {"w": 2}),
]


@pytest.mark.parametrize("eq", [False, True])
@pytest.mark.parametrize("args, kwargs", CALLS, ids=[str(c) for c in CALLS])
def test_construction_matches_dataclass(args, kwargs, eq):
    rec, dc = twins(eq)
    assert outcome(rec, *args, **kwargs) == outcome(dc, *args, **kwargs)


def test_inherited_fields_come_first():
    rec_base, rec_child = inherited_classes(record)
    dc_base, dc_child = inherited_classes(DATACLASS[False])
    assert rec_child.__record_fields__ == tuple(f.name for f in dataclasses.fields(dc_child))
    assert rec_child.__record_fields__ == ("field", "labels", "basis", "from_r")
    assert rec_base.__record_fields__ == ("field", "labels")
    calls = [(("F2", ("a",), 3), {}), (("F2",), {"labels": (), "basis": 1, "from_r": 2})]
    for args, kwargs in calls:
        rec, dc = rec_child(*args, **kwargs), dc_child(*args, **kwargs)
        assert repr(rec) == repr(dc)
        # the base's __post_init__ runs for the subclass too
        assert rec._key == dc._key == (rec.field, rec.labels)


def test_budget_still_validates_in_post_init():
    with pytest.raises(ValidationFailure, match="budget field bound_vars must be positive"):
        Budget(0, 1, 1, 1)
    twin = twin_of(Budget)
    for values in itertools.product(range(3), repeat=4):
        assert outcome(Budget, *values) == outcome(twin, *values)
        names = dict(zip(Budget.__record_fields__, values))
        assert outcome(Budget, **names) == outcome(twin, **names)


@pytest.mark.parametrize("eq", [False, True])
def test_fields_cannot_be_assigned_or_deleted(eq):
    for cls in twins(eq):
        p = cls(1, 5)
        for name in ("x", "z", "w"):
            with pytest.raises(AttributeError):
                setattr(p, name, 9)
        for name in ("x", "z"):
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert (p.x, p.y, p.z) == (1, 5, ())
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'x'"):
        twins(eq)[0](1).x = 2


def test_library_records_are_frozen():
    m = mod_rr()
    s = SubgroupRep(m, 1, np.zeros((0, m.dim), dtype=np.uint8))
    for obj, name in [(m, "dim"), (Budget(1, 1, 1, 1), "stages"), (s, "arity")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 2)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # SubgroupRep declares its slots: no instance dict per evaluate value
    assert not hasattr(s, "__dict__")


def test_repr_matches_dataclass():
    rec, dc = twins()
    for args in [(1,), (1, "two", (3, "4")), (0, None, {"a": [1]})]:
        assert repr(rec(*args)) == repr(dc(*args))
    assert repr(rec(1)) == f"{rec.__qualname__}(x=1, y=2, z=())"

    def own_repr(decorate):
        class Named:
            x: int

            def __repr__(self):
                return f"<{self.x}>"

        return decorate(Named)

    assert repr(own_repr(record)(3)) == repr(own_repr(DATACLASS[False])(3)) == "<3>"
    budget = Budget(1, 2, 3, 4)
    assert repr(budget) == "Budget(bound_vars=1, equations=2, candidates=3, stages=4)"
    assert repr(budget) == repr(twin_of(Budget)(1, 2, 3, 4))


@pytest.mark.parametrize("eq", [False, True])
def test_eq_and_hash_match_dataclass(eq):
    rec, dc = twins(eq)
    values = [(1,), (1, 2), (1, 3), (2, 2, (1,))]
    for a, b in itertools.product(values, repeat=2):
        assert (rec(*a) == rec(*b)) == (dc(*a) == dc(*b))
        assert (rec(*a) != rec(*b)) == (dc(*a) != dc(*b))
        if eq:
            assert hash(rec(*a)) == hash(dc(*a))
    other = twins(eq)[0]
    assert (rec(1) == other(1)) is False  # another class never compares equal
    assert (rec(1) == (1, 2, ())) == (dc(1) == (1, 2, ()))


def test_the_value_classes_compare_by_value():
    # these four compared by field tuple as dataclasses; identity would pass every other test
    closure = np.zeros((1, 2), dtype=np.uint8)
    cases = [
        (Budget, (2, 1, 8, 3), (2, 1, 8, 4)),
        (PurityReport, (True, False, None, ("e", "phi")), (True, True, None, None)),
        (CriterionResult, (1, "tensor", True, "ok", 0.5), (1, "tensor", False, "ok", 0.5)),
        (DefinabilityResult, (True, "phi", closure), (False, "phi", closure)),
    ]
    for cls, values, others in cases:
        twin = twin_of(cls)
        a, b, c = cls(*values), cls(*values), cls(*others)
        assert a == b and not a != b and a != c
        assert (a == b, a == c) == (twin(*values) == twin(*values), twin(*values) == twin(*others))
        assert outcome(hash, a) == outcome(hash, twin(*values))
        if cls is not DefinabilityResult:  # an array field is unhashable either way
            assert hash(a) == hash(b)


def test_replace_reruns_post_init():
    rec, dc = twins()
    for changes in [{"y": 7}, {"x": 3, "z": (1,)}, {}, {"x": -1}, {"w": 1}]:
        want = outcome(dataclasses.replace, dc(1, 5), **changes)
        assert outcome(replace, rec(1, 5), **changes) == want
    p = rec(1, 5)
    q = replace(p, y=7)
    assert q is not p and (p.y, q.y, q.x) == (5, 7, 1)
    with pytest.raises(ValidationFailure, match="budget field stages must be positive"):
        replace(Budget(1, 1, 1, 1), stages=0)
    # the base's __post_init__ runs again, as it does for a relabelled RingTable
    _, child = inherited_classes(record)
    c = replace(child("F2", ("a",), 3), labels=("b",))
    assert c._key == ("F2", ("b",))
