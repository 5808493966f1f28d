"""The value and record types: construction by position or keyword, field
names, repr, equality and hashing, (im)mutability, and copies with changed
fields that go through validation."""

import numpy as np
import pytest

from spincollapse.automaton import RunResult, StepRecord
from spincollapse.bloch import Axis, SpinState
from spincollapse.pfn import (BoolProjection, Const, Measure, Not, Op,
                              TruthTable, Var)
from spincollapse.solver import (Candidate, CollapseSolution, LevelSetCurve,
                                 SolverConfig, Status)

AXIS = Axis(0.5, 1.0, True)
STATE = SpinState(0.4, 1.0)

# immutable values: (type, fields by keyword, changes _replace refuses)
VALUES = [
    (Axis, dict(theta=0.5, phi=1.0, labels_swapped=True), dict(theta=4.0)),
    (SpinState, dict(rho=0.4, tau=1.0), dict(rho=1.5)),
    (SolverConfig, dict(grid_n=256, method="closed_form"), dict(grid_n=63)),
    (Const, dict(value=1), None),
    (Var, dict(name="x1"), None),
    (Not, dict(arg=Var("x")), None),
    (Op, dict(op="|", args=(Var("x"), Not(Var("y")))), None),
    (TruthTable, dict(memory_depth=0, bits=(0, 1, 1, 1)), dict(bits=(0, 1))),
    (BoolProjection, dict(xi=1, eta=0), dict(eta=2)),
    (Measure, dict(kind="sphere_area"), dict(kind="area")),
]
# mutable records: (type, fields by keyword)
RECORDS = [
    (CollapseSolution, dict(status=Status.NORMAL, axis_f=AXIS, s_up=0.1,
                            s_i=0.9, candidates=[Candidate(AXIS, 0.9, 0.1, 0)],
                            curves=[])),
    (StepRecord, dict(step_index=1, state_before=STATE, axis_before=AXIS,
                      status=Status.NORMAL, axis_after=AXIS, outcome=1,
                      state_after=STATE, s_i=0.9, s_up=0.1,
                      world_id="world-0")),
    (RunResult, dict(records=[], halted=True, halt_reason="trivial",
                     death_step=None)),
]


def ids(cases):
    return [case[0].__name__ for case in cases]


def expected_repr(cls, fields):
    return (f"{cls.__name__}("
            + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")")


@pytest.mark.parametrize("cls, fields", [case[:2] for case in VALUES + RECORDS],
                         ids=ids(VALUES + RECORDS))
def test_construction_fields_and_repr(cls, fields):
    value = cls(**fields)
    assert [getattr(value, k) for k in fields] == list(fields.values())
    assert cls(*fields.values()) == value
    assert repr(value) == expected_repr(cls, fields)


@pytest.mark.parametrize("cls, fields, invalid", VALUES, ids=ids(VALUES))
class TestValues:
    def test_immutable(self, cls, fields, invalid):
        value = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.note = "values take no new attributes"
        assert [getattr(value, k) for k in fields] == list(fields.values())

    def test_equal_and_hashed_by_type_and_value(self, cls, fields, invalid):
        value, twin = cls(**fields), cls(**fields)
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1
        # neither the plain tuple of its fields nor another type's value
        # with the same fields, whichever side of the comparison it is on
        plain = tuple(fields.values())
        assert value != plain and plain != value
        assert not value == plain and not plain == value
        other = Var if cls is not Var else Const
        if len(fields) == 1:
            assert value != other(*plain) and other(*plain) != value

    def test_replace_copies_through_validation(self, cls, fields, invalid):
        value = cls(**fields)
        name = next(iter(fields))
        assert value._replace() == value
        assert value._make(value) == value
        if invalid is None:
            return
        for bad in (lambda: value._replace(**invalid),
                    lambda: cls._make({**fields, **invalid}.values()),
                    lambda: cls(**{**fields, **invalid})):
            with pytest.raises(ValueError):
                bad()
        assert value == cls(**fields)  # untouched
        assert value._replace(**{name: fields[name]}) == value


def test_values_replace_one_field():
    assert AXIS._replace(labels_swapped=False) == Axis(0.5, 1.0)
    assert SolverConfig()._replace(method="closed_form") == \
        SolverConfig(method="closed_form")
    assert SolverConfig() == SolverConfig(1024, "grid")


@pytest.mark.parametrize("cls, fields", RECORDS, ids=ids(RECORDS))
class TestRecords:
    def test_mutable_with_fixed_fields(self, cls, fields):
        record = cls(**fields)
        name = next(iter(fields))
        setattr(record, name, None)
        assert getattr(record, name) is None
        with pytest.raises(AttributeError):
            record.note = "records take no new attributes"

    def test_equal_by_type_and_value_and_unhashable(self, cls, fields):
        record, twin = cls(**fields), cls(**fields)
        assert record == twin and not record != twin
        with pytest.raises(TypeError):
            hash(record)
        name = next(iter(fields))
        setattr(twin, name, None)
        assert record != twin and not record == twin
        assert record != tuple(fields.values())

    def test_replace_copies(self, cls, fields):
        record = cls(**fields)
        name, value = next(iter(fields.items()))
        changed = record._replace(**{name: None})
        assert changed is not record and getattr(changed, name) is None
        assert changed._replace(**{name: value}) == record
        assert getattr(record, name) == value


def test_curves_are_equal_only_to_themselves():
    arrays = [np.array([0.1, 0.2]) for _ in range(4)]
    curve = LevelSetCurve(0.3, *arrays, component_id=2)
    twin = LevelSetCurve(0.3, *arrays, component_id=2)
    assert curve == curve and curve != twin
    assert len({curve, twin}) == 2
    assert not curve.contains_zero_entropy
    curve.contains_zero_entropy = True
    assert repr(curve).startswith("LevelSetCurve(level=0.3, theta=array(")
    with pytest.raises(AttributeError):
        curve.note = "curves take no new attributes"
