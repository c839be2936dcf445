"""The value classes' contract: construction, validation, equality,
hashing, repr, immutability, pickling and copying.

CodeParams, Duplication, ChannelSpec and BlockRecord are small immutable
records. These tests pin what callers may rely on, independent of how the
classes are written.
"""

import copy
import pickle

import pytest

from dupcode import ChannelSpec, CodeParams, Duplication, derive_params
from dupcode.codec import BlockRecord

RECORD = BlockRecord(1, 37, 6, 0, ((0, 1, 2),))

# (value, an equal value built another way, a different value of the same class)
CASES = [
    (CodeParams(4, 40, 3, 13), CodeParams(q=4, n=40, L=3, K=13), CodeParams(4, 64, 3, 13)),
    (Duplication(0, 37), Duplication(i=0, l=37), Duplication(0, 38)),
    (ChannelSpec(7), ChannelSpec(seed=7, l_min=None, l_max=None), ChannelSpec(7, 5)),
    (
        RECORD,
        BlockRecord(i=1, l=37, r=6, t=0, fillers=((0, 1, 2),)),
        BlockRecord(1, 37, 6, 1, ((0, 1, 2),)),
    ),
]
IDS = ["CodeParams", "Duplication", "ChannelSpec", "BlockRecord"]
FIRST_FIELD = {"CodeParams": "q", "Duplication": "i", "ChannelSpec": "seed", "BlockRecord": "i"}


def test_fields_read_back_as_constructed():
    p = CodeParams(q=4, n=40, L=3, K=13)
    assert (p.q, p.n, p.L, p.K) == (4, 40, 3, 13)
    assert p == derive_params(4, 40)
    d = Duplication(5, 13)
    assert (d.i, d.l) == (5, 13)
    assert (RECORD.i, RECORD.l, RECORD.r, RECORD.t) == (1, 37, 6, 0)
    assert RECORD.fillers == ((0, 1, 2),)
    match d:
        case Duplication(i, l):
            assert (i, l) == (5, 13)
        case _:
            pytest.fail("Duplication does not match its positional pattern")


def test_channel_spec_defaults():
    spec = ChannelSpec(seed=3)
    assert (spec.seed, spec.l_min, spec.l_max) == (3, None, None)
    spec = ChannelSpec(3, l_max=9)
    assert (spec.seed, spec.l_min, spec.l_max) == (3, None, 9)
    assert ChannelSpec(3, 4, 9) == ChannelSpec(seed=3, l_min=4, l_max=9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CodeParams(4, 40, 3),
        lambda: CodeParams(4, 40, 3, 13, 0),
        lambda: CodeParams(q=4, n=40, L=3, K=13, M=1),
        lambda: Duplication(0),
        lambda: Duplication(0, 13, i=0),
        lambda: ChannelSpec(),
        lambda: ChannelSpec(1, 2, 3, 4),
        lambda: BlockRecord(1, 37, 6, 0, (), ()),
    ],
)
def test_wrong_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CodeParams(300, 100, 1, 5), "alphabet size q must be <= 256, got 300"),
        (lambda: CodeParams(4, 40, 2, 9), "window length L=2 is too short: q**L < n=40"),
        (lambda: CodeParams(4, 40, 3, 9), "threshold K must be 4*L + 1 = 13, got 9"),
        (lambda: Duplication(-1, 3), "invalid duplication (i=-1, l=3)"),
        (lambda: Duplication(0, 0), "invalid duplication (i=0, l=0)"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("value,same,other", CASES, ids=IDS)
def test_equality_and_hash(value, same, other):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other
    table = {value: "a", other: "b"}
    assert table[same] == "a" and len(table) == 2
    assert len({value, same, other}) == 2


def test_classes_never_compare_equal_to_each_other_or_to_tuples():
    """Equality holds only within one class; other operands get
    NotImplemented, so Python falls back to identity."""
    assert Duplication(0, 37).__eq__(ChannelSpec(0, 37)) is NotImplemented
    assert Duplication(0, 37).__eq__((0, 37)) is NotImplemented
    assert Duplication(0, 37) != (0, 37)
    assert ChannelSpec(0, 37, None) != Duplication(0, 37)
    assert CodeParams(4, 40, 3, 13) != (4, 40, 3, 13)


@pytest.mark.parametrize(
    "value,text",
    [
        (CodeParams(4, 40, 3, 13), "CodeParams(q=4, n=40, L=3, K=13)"),
        (Duplication(0, 37), "Duplication(i=0, l=37)"),
        (ChannelSpec(3), "ChannelSpec(seed=3, l_min=None, l_max=None)"),
        (ChannelSpec(seed=3, l_min=5), "ChannelSpec(seed=3, l_min=5, l_max=None)"),
        (
            RECORD,
            "BlockRecord(i=1, l=37, r=6, t=0, fillers=((0, 1, 2),))",
        ),
    ],
)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,same,other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, same, other):
    name = FIRST_FIELD[type(value).__name__]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == before and value == same


@pytest.mark.parametrize("value,same,other", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(value, same, other):
    for clone in (
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is type(value)
        assert clone == value and repr(clone) == repr(value)
