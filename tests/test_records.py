"""eos.frozen_record against @dataclass(frozen=True): twins of one record
body must print, compare, hash, refuse writes, replace, copy and pickle
alike.  The tests use nothing of the package but eos, which needs no numpy."""

import copy
import pickle
from dataclasses import FrozenInstanceError, asdict, dataclass, fields, is_dataclass, replace

import pytest

from thermocap.eos import frozen_record


# the twins have one body; a record class may hold another record
@frozen_record
class Point:
    """A record."""

    x: float
    label: str = "p"
    tags: tuple = ()
    inner: object = None

    def __post_init__(self):
        if not self.x >= 0.0:
            raise ValueError(f"x must be >= 0, got {self.x!r}")
        object.__setattr__(self, "x", float(self.x))


@dataclass(frozen=True)
class StdPoint:
    """A record."""

    x: float
    label: str = "p"
    tags: tuple = ()
    inner: object = None

    def __post_init__(self):
        if not self.x >= 0.0:
            raise ValueError(f"x must be >= 0, got {self.x!r}")
        object.__setattr__(self, "x", float(self.x))


@frozen_record(eq=False)
class Handle:
    """A record compared by identity."""

    x: float


@dataclass(frozen=True, eq=False)
class StdHandle:
    """A record compared by identity."""

    x: float


TWINS = [(Point, StdPoint), (Handle, StdHandle)]
# inner, if set, is the x of a nested record of the twin's own kind
VALUES = [dict(x=1), dict(x=0.5, label="it's", tags=(1, "a", None, -0.0)),
          dict(x=2.0, inner=2.5), dict(x=1e300, tags=((),))]


def _both(values):
    def build(cls):
        inner = values.get("inner")
        return cls(**{**values, "inner": None if inner is None else cls(x=inner)})
    return build(Point), build(StdPoint)


@pytest.mark.parametrize("values", VALUES)
def test_repr_is_the_dataclass_text(values):
    ours, std = _both(values)
    assert repr(ours) == repr(std).replace("StdPoint(", "Point(")
    assert repr(Handle(3)) == repr(StdHandle(3)).replace("StdHandle(", "Handle(") == "Handle(x=3)"


@pytest.mark.parametrize("values", VALUES)
def test_eq_and_hash_are_the_dataclass_field_tuples(values):
    ours, std = _both(values)
    again, std_again = _both(values)
    assert ours == again and not ours != again and std == std_again
    assert hash(ours) == hash(again) == hash(std)
    other, std_other = _both({**values, "label": "q"})
    assert (ours == other) == (std == std_other) is False
    # across classes each side returns NotImplemented, so == falls back to identity
    assert ours.__eq__(std) is NotImplemented and std.__eq__(ours) is NotImplemented
    assert ours != std and ours.__eq__(1.0) is NotImplemented


@pytest.mark.parametrize("twins", TWINS, ids=lambda t: t[0].__name__)
def test_writes_and_deletes_raise_the_dataclass_errors(twins):
    for record in (cls(x=1.0) for cls in twins):
        for name in ("x", "no_field"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 2.0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert record.x == 1.0 and not hasattr(record, "no_field")


def test_replace_reruns_post_init_validation():
    for cls in (Point, StdPoint):
        record = cls(x=1, label="a")
        moved = replace(record, x=2)
        assert (moved.x, moved.label, type(moved.x)) == (2.0, "a", float)
        assert record.x == 1.0
        with pytest.raises(ValueError, match="x must be >= 0, got -1"):
            replace(record, x=-1)


@pytest.mark.parametrize("values", VALUES)
def test_asdict_pickle_and_deepcopy_round_trip(values):
    ours, std = _both(values)
    assert is_dataclass(ours) and [f.name for f in fields(ours)] == [f.name for f in fields(std)]
    assert asdict(ours) == asdict(std)
    for copied in (pickle.loads(pickle.dumps(ours)), copy.deepcopy(ours)):
        assert copied == ours and copied is not ours and repr(copied) == repr(ours)
        with pytest.raises(FrozenInstanceError):
            copied.x = 3.0


def test_eq_false_records_compare_and_hash_by_identity():
    for cls in (Handle, StdHandle):
        a, b = cls(1.0), cls(1.0)
        assert a == a and a != b and not a == b
        assert hash(a) == object.__hash__(a) and len({a, b}) == 2
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
