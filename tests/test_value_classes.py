"""Behaviour shared by the package's ten immutable value classes: the
constructor, repr, equality and hash, immutability, pattern matching,
copying, pickling and the validation messages."""

import copy
import math
import pickle

import pytest

from sombortrees import (
    DegreeSequence,
    DegreeSequenceError,
    DescentStep,
    DescentTrace,
    PruferCode,
    QConstant,
    ScoreAssignment,
    SpectrumSummary,
    SwitchError,
    SwitchPlan,
    TreeError,
    VerificationReport,
    Violation,
    ViolationKind,
)

SEQ = DegreeSequence((3, 2, 2, 1, 1, 1))
PLAN = SwitchPlan(1, 2, 3, 4)
STEP = DescentStep(PLAN, ViolationKind.SAME_LEVEL, 2.5, 1.5, 3.0, 2.0)
Q = QConstant(0.125, "single-value")

# (class, positional args, keyword args, repr) for each value class; the
# fields are named in order in the keyword args.
CASES = [
    (DegreeSequence, ((3, 2, 2, 1, 1, 1),), {"degrees": (3, 2, 2, 1, 1, 1)},
     "DegreeSequence(degrees=(3, 2, 2, 1, 1, 1))"),
    (ScoreAssignment, ((2.75, 1.5),), {"values": (2.75, 1.5)},
     "ScoreAssignment(values=(2.75, 1.5))"),
    (PruferCode, (5, (1, 1, 2)), {"n": 5, "code": (1, 1, 2)},
     "PruferCode(n=5, code=(1, 1, 2))"),
    (SwitchPlan, (1, 2, 3, 4), {"u": 1, "v": 2, "w": 3, "t": 4},
     "SwitchPlan(u=1, v=2, w=3, t=4)"),
    (Violation, (ViolationKind.SAME_LEVEL, PLAN),
     {"kind": ViolationKind.SAME_LEVEL, "plan": PLAN},
     "Violation(kind=<ViolationKind.SAME_LEVEL: 'SAME_LEVEL'>, "
     "plan=SwitchPlan(u=1, v=2, w=3, t=4))"),
    (DescentStep, (PLAN, ViolationKind.SAME_LEVEL, 2.5, 1.5, 3.0, 2.0),
     {"plan": PLAN, "kind": ViolationKind.SAME_LEVEL, "pso_before": 2.5,
      "pso_after": 1.5, "so_before": 3.0, "so_after": 2.0},
     "DescentStep(plan=SwitchPlan(u=1, v=2, w=3, t=4), "
     "kind=<ViolationKind.SAME_LEVEL: 'SAME_LEVEL'>, pso_before=2.5, "
     "pso_after=1.5, so_before=3.0, so_after=2.0)"),
    (DescentTrace, ((STEP,),), {"steps": (STEP,)},
     "DescentTrace(steps=(DescentStep(plan=SwitchPlan(u=1, v=2, w=3, t=4), "
     "kind=<ViolationKind.SAME_LEVEL: 'SAME_LEVEL'>, pso_before=2.5, "
     "pso_after=1.5, so_before=3.0, so_after=2.0),))"),
    (SpectrumSummary, ((1.5, 2.5), (3, 4)), {"values": (1.5, 2.5), "multiplicities": (3, 4)},
     "SpectrumSummary(values=(1.5, 2.5), multiplicities=(3, 4))"),
    (QConstant, (0.125, "single-value"), {"value": 0.125, "branch": "single-value"},
     "QConstant(value=0.125, branch='single-value')"),
    (VerificationReport, (SEQ, 60, 1.5, None, 1.5, True, None, Q),
     {"seq": SEQ, "tree_count": 60, "z1": 1.5, "z2": None, "greedy_so": 1.5,
      "minimum_attained": True, "sandwich_holds": None, "q_used": Q},
     "VerificationReport(seq=DegreeSequence(degrees=(3, 2, 2, 1, 1, 1)), "
     "tree_count=60, z1=1.5, z2=None, greedy_so=1.5, minimum_attained=True, "
     "sandwich_holds=None, q_used=QConstant(value=0.125, branch='single-value'))"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_repr(cls, args, kwargs, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_keyword_construction_and_match_args(cls, args, kwargs, text):
    value = cls(**kwargs)
    assert value == cls(*args)
    assert cls.__match_args__ == tuple(kwargs)
    assert tuple(getattr(value, name) for name in cls.__match_args__) == args


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_equality_and_hash_by_class_and_fields(cls, args, kwargs, text):
    first, second = cls(*args), cls(*args)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    for other_cls, other_args, _, _ in CASES:
        if other_cls is not cls:
            assert first != other_cls(*other_args)
    assert first != args


def test_no_equality_across_classes_with_equal_fields():
    assert DegreeSequence((2, 1, 1)) != ScoreAssignment((2, 1, 1))
    assert ScoreAssignment((2, 1, 1)) != DegreeSequence((2, 1, 1))


def test_unequal_fields_compare_unequal():
    assert SwitchPlan(1, 2, 3, 4) != SwitchPlan(1, 2, 4, 3)
    assert QConstant(0.125, "single-value") != QConstant(0.125, "spectrum-gap")


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, args, kwargs, text):
    value = cls(*args)
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trips(cls, args, kwargs, text):
    value = cls(*args)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == value and hash(other) == hash(value)
        assert repr(other) == text


def test_match_statement_binds_fields_in_order():
    match Violation(ViolationKind.SAME_LEVEL, PLAN):
        case Violation(kind, SwitchPlan(u, v, w, t)):
            assert (kind, u, v, w, t) == (ViolationKind.SAME_LEVEL, 1, 2, 3, 4)
        case _:
            pytest.fail("no match")


def test_sequence_fields_become_tuples():
    assert DegreeSequence([2, 1, 1]).degrees == (2, 1, 1)
    assert PruferCode(4, [1, 1]).code == (1, 1)
    spectrum = SpectrumSummary([1.5, 2.5], [3, 4])
    assert (spectrum.values, spectrum.multiplicities) == ((1.5, 2.5), (3, 4))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DegreeSequence(()), DegreeSequenceError, "degree sequence must be non-empty"),
        (lambda: DegreeSequence((2, 1.0)), DegreeSequenceError, "degree 1.0 is not an integer"),
        (lambda: DegreeSequence((True,)), DegreeSequenceError, "degree True is not an integer"),
        (lambda: DegreeSequence((1, -1)), DegreeSequenceError, "degree -1 is negative"),
        (lambda: DegreeSequence((1, 2)), DegreeSequenceError,
         "degrees must be non-increasing, got (1, 2)"),
        (lambda: PruferCode(1, ()), TreeError, "Prufer codes exist only for n >= 2"),
        (lambda: PruferCode(4, (1,)), TreeError, "code for n=4 must have length 2, got 1"),
        (lambda: PruferCode(4, (1, 5)), TreeError, "code entry 5 out of range 1..4"),
        (lambda: PruferCode(4, (1, True)), TreeError, "code entry True out of range 1..4"),
        (lambda: PruferCode(3.0, (1,)), TreeError, "vertex count must be an integer, got 3.0"),
        (lambda: PruferCode(True, ()), TreeError, "vertex count must be an integer, got True"),
        (lambda: SwitchPlan(1, 2, 1, 3), SwitchError,
         "switch vertices must be four distinct labels, got (1, 2, 1, 3)"),
        (lambda: SpectrumSummary((), ()), ValueError, "spectrum must contain at least one value"),
        (lambda: SpectrumSummary((1.0,), (1, 2)), ValueError,
         "values and multiplicities differ in length"),
        (lambda: SpectrumSummary((2.0, 1.0), (1, 1)), ValueError,
         "spectrum values must be strictly increasing"),
        (lambda: SpectrumSummary((1.0,), (0,)), ValueError, "multiplicities must be positive"),
        (lambda: SpectrumSummary((1.0, math.nan), (1, 1)), ValueError,
         "spectrum values must be finite"),
        (lambda: SpectrumSummary((1.0, math.inf), (1, 1)), ValueError,
         "spectrum values must be finite"),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
