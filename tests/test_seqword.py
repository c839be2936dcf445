"""EditableWord against a plain-list model, plus its byte and cursor contracts."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupcode.seqword import EditableWord

from oracles import CursorTravel


def test_build_and_read_back():
    w = EditableWord.from_word((3, 1, 4, 1, 5, 9, 2, 6))
    assert len(w) == 8
    assert w.to_word() == bytes((3, 1, 4, 1, 5, 9, 2, 6))
    assert [w.get(i) for i in range(8)] == [3, 1, 4, 1, 5, 9, 2, 6]
    assert list(w) == [3, 1, 4, 1, 5, 9, 2, 6]
    w.audit()


def test_empty_word():
    w = EditableWord.from_word(())
    assert len(w) == 0
    assert w.to_word() == b""
    w.insert(0, (7,))
    assert w.to_word() == bytes((7,))


def test_insert_delete_slice():
    w = EditableWord.from_word((0, 1, 2, 3))
    w.insert(2, (9, 9))
    assert w.to_word() == bytes((0, 1, 9, 9, 2, 3))
    removed = w.delete_range(1, 4)
    assert removed == bytes((1, 9, 9))
    assert w.to_word() == bytes((0, 2, 3))
    assert w.slice(1, 3) == bytes((2, 3))
    assert w.to_word() == bytes((0, 2, 3))  # slice does not mutate
    w.audit()


def test_split_and_join():
    w = EditableWord.from_word(tuple(range(10)))
    left, right = w.split(4)
    assert left.to_word() == bytes((0, 1, 2, 3))
    assert right.to_word() == bytes((4, 5, 6, 7, 8, 9))
    back = EditableWord.join(left, right)
    assert back.to_word() == bytes(range(10))
    back.audit()


def test_index_bounds_checked():
    w = EditableWord.from_word((1, 2, 3))
    with pytest.raises(IndexError):
        w.get(3)
    with pytest.raises(IndexError):
        w.get(-1)
    with pytest.raises(IndexError):
        w.insert(4, (0,))
    with pytest.raises(IndexError):
        w.delete_range(1, 4)


@pytest.mark.parametrize("bad", [256, -1])
def test_out_of_range_symbol_leaves_word_unchanged(bad):
    w = EditableWord.from_word((1, 2, 3, 4))
    w.insert(2, (9,))  # cursor now mid-word
    with pytest.raises(ValueError):
        w.insert(1, (5, bad))
    with pytest.raises(ValueError):
        w.insert(5, (bad,))
    assert w.to_word() == bytes((1, 2, 9, 3, 4))
    w.audit()
    with pytest.raises(ValueError):
        EditableWord.from_word((0, bad))


def test_accepts_any_symbol_sequence():
    assert EditableWord.from_word(range(3)).to_word() == bytes((0, 1, 2))
    assert EditableWord.from_word(bytes((255, 7))).to_word() == bytes((255, 7))
    # an ndarray is read symbol by symbol, never as raw memory
    w = EditableWord.from_word(np.array([3, 1], dtype=np.int64))
    w.insert(1, np.array([2], dtype=np.int64))
    assert w.to_word() == bytes((3, 2, 1))


def test_split_and_join_consume_their_operands():
    w = EditableWord.from_word(tuple(range(10)))
    w.insert(7, (42,))
    left, right = w.split(3)
    assert len(w) == 0 and w.to_word() == b""
    assert left.to_word() == bytes((0, 1, 2))
    assert right.to_word() == bytes((3, 4, 5, 6, 42, 7, 8, 9))
    right.insert(0, (41,))
    back = EditableWord.join(left, right)
    assert len(left) == 0 and left.to_word() == b""
    assert len(right) == 0 and right.to_word() == b""
    assert back.to_word() == bytes((0, 1, 2, 41, 3, 4, 5, 6, 42, 7, 8, 9))
    with pytest.raises(ValueError):
        EditableWord.join(back, back)


@pytest.mark.parametrize("other", [(2,), [2], b"\x02", None])
def test_join_refuses_an_operand_that_is_not_a_word(other):
    """Either operand may be the stray one; the word operand keeps its
    symbols and its cursor."""
    w = EditableWord.from_word((0, 1, 2, 3))
    w.insert(1, (7,))  # leaves the cursor inside the word
    cursor = len(w._left)
    for args in ((w, other), (other, w)):
        with pytest.raises(ValueError, match=f"got {type(other).__name__}"):
            EditableWord.join(*args)
        assert w.to_word() == bytes((0, 7, 1, 2, 3)) and len(w._left) == cursor


def test_reads_on_both_sides_of_the_cursor():
    model = list(range(0, 120, 3))
    w = EditableWord.from_word(model)
    # inserts move the cursor left and right; deletes land before, after
    # and across it
    edits = [("ins", 0), ("ins", 17), ("del", 30, 34), ("ins", 38), ("del", 2, 5),
             ("ins", 9), ("del", 6, 20), ("ins", 20), ("del", 0, 3)]
    for edit in edits:
        if edit[0] == "ins":
            w.insert(edit[1], (200, 201))
            model[edit[1] : edit[1]] = [200, 201]
        else:
            _, a, b = edit
            assert w.delete_range(a, b) == bytes(model[a:b])
            del model[a:b]
        m = len(model)
        assert len(w) == m
        assert [w.get(i) for i in range(m)] == model
        for a in range(m + 1):
            for b in range(a, m + 1, 5):
                assert w.slice(a, b) == bytes(model[a:b])
        assert w.to_word() == bytes(model)


def _random_ops(seed: int, rounds: int, audit_every: int) -> None:
    rng = random.Random(seed)
    model: list[int] = []
    tree = EditableWord.from_word(())
    for step in range(rounds):
        op = rng.random()
        m = len(model)
        if op < 0.45 or m == 0:
            at = rng.randint(0, m)
            chunk = [rng.randrange(10) for _ in range(rng.randint(1, 5))]
            model[at:at] = chunk
            tree.insert(at, tuple(chunk))
        elif op < 0.75:
            a = rng.randint(0, m)
            b = rng.randint(a, min(m, a + 6))
            expect = bytes(model[a:b])
            del model[a:b]
            assert tree.delete_range(a, b) == expect
        elif op < 0.9:
            a = rng.randint(0, m)
            b = rng.randint(a, m)
            assert tree.slice(a, b) == bytes(model[a:b])
        else:
            k = rng.randint(0, m)
            left, right = tree.split(k)
            assert left.to_word() == bytes(model[:k])
            tree = EditableWord.join(left, right)
        if m and rng.random() < 0.2:
            at = rng.randrange(len(model))
            assert tree.get(at) == model[at]
        if step % audit_every == 0:
            tree.audit()
            assert tree.to_word() == bytes(model)
    assert tree.to_word() == bytes(model)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_ops_match_list_model(seed):
    _random_ops(seed, rounds=1500, audit_every=100)


@settings(max_examples=60, deadline=None)
@given(word=st.lists(st.integers(0, 3), max_size=60), k=st.integers(0, 80))
def test_split_join_identity(word, k):
    w = EditableWord.from_word(tuple(word))
    k = min(k, len(word))
    left, right = w.split(k)
    rebuilt = EditableWord.join(left, right)
    rebuilt.audit()
    assert rebuilt.to_word() == bytes(word)


# -- the private replay step that codec.decode uses ---------------------------


def _at_cursor(model: list[int], c: int) -> EditableWord:
    w = EditableWord.from_word(model)
    w._seek(c)
    assert len(w._left) == c
    return w


def test_bytes_reads_the_list_slice_at_every_cursor_position():
    model = [7, 0, 3, 255, 1, 1, 9, 4, 2]
    m = len(model)
    for c in range(m + 1):
        w = _at_cursor(model, c)
        for a in range(m + 1):
            for b in range(a, m + 1):
                assert bytes(w._bytes(a, b)) == bytes(model[a:b]), (c, a, b)
        assert len(w._left) == c  # reads never move the cursor
        assert w.to_word() == bytes(model)


def _step(monkeypatch, model: list[int], cursor: int, step) -> tuple[int, bytes, int]:
    """Run step on model with the cursor at `cursor`; return the symbols the
    cursor then moved over, the word, and where the cursor ended."""
    w = _at_cursor(model, cursor)
    with monkeypatch.context() as patch:
        travel = CursorTravel(patch)
        step(w)
    w.audit()
    return travel.symbols, w.to_word(), len(w._left)


def _public_redo(w: EditableWord, i: int, l: int) -> None:
    m = len(w)
    w.delete_range(m - l, m)
    w.insert(i + l, w.slice(i, i + l))


@pytest.mark.parametrize("where", ["left of the cursor", "straddling it", "right of it"])
def test_redo_matches_the_list_model_and_the_public_calls(monkeypatch, where):
    """_redo(i, l) on the tail [m - l, m) left of the cursor (the cursor at
    the end, as on decode's first block), straddling it, or right of it."""
    model = list(range(40, 70))
    m = len(model)
    cases = 0
    for l in range(1, m // 2 + 1):
        for i in range(0, m - 2 * l + 1):
            cursor = {"left of the cursor": m, "straddling it": m - l + l // 2, "right of it": i}[where]
            if where == "straddling it" and not m - l < cursor < m:
                continue
            expect = bytes(model[: i + l] + model[i : i + l] + model[i + l : m - l])
            travel, word, end = _step(monkeypatch, model, cursor, lambda w: w._redo(i, l))
            assert (word, end) == (expect, i + 2 * l), (i, l, cursor)
            public = _step(monkeypatch, model, cursor, lambda w: _public_redo(w, i, l))
            assert (travel, word, end) == public, (i, l, cursor)
            cases += 1
    assert cases > 100


@pytest.mark.parametrize("seed", range(3))
def test_redo_of_a_run_matches_one_redo_per_block(monkeypatch, seed):
    """_redo(i, l, c) gives the word of c calls of _redo(i, l), the list
    model's w[:i+l] + w[i:i+l]*c + w[i+l : m-c*l], for any cursor, and
    leaves the cursor at i + (c + 1)*l. It moves the cursor over (c - 1)*l
    fewer symbols: each single call after the first seeks back from i + 2l
    to i + l. From the word's end it saves (c - 1)*l more, for there the
    tail cut moves the cursor with no seek, by c*l at once where the first
    single call moves it by l."""
    rng = random.Random(seed)
    cases = 0
    for _ in range(300):
        m = rng.randint(2, 80)
        l = rng.randint(1, m // 2)
        c = rng.randint(1, m // l - 1)
        i = rng.randint(0, m - (c + 1) * l)
        model = [rng.randrange(256) for _ in range(m)]
        cursor = rng.randint(0, m)

        def singles(w):
            for _ in range(c):
                w._redo(i, l)

        expect = bytes(model[: i + l] + model[i : i + l] * c + model[i + l : m - c * l])
        travel, word, end = _step(monkeypatch, model, cursor, lambda w: w._redo(i, l, c))
        single_travel, single_word, single_end = _step(monkeypatch, model, cursor, singles)
        assert word == single_word == expect, (m, i, l, c, cursor)
        assert (end, single_end) == (i + (c + 1) * l, i + 2 * l)
        saved = (c - 1) * l * (2 if cursor == m else 1)
        assert travel == single_travel - saved, (m, i, l, c, cursor)
        cases += c > 1
    assert cases > 100
