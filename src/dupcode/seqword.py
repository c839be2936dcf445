"""A word stored as a gap buffer of two bytearrays.

The word is split at a cursor: `_left` holds the symbols before it and
`_right` the symbols after it in reverse order, so the word's last symbol
is `_right[0]`. Both ends of the gap are ends of a bytearray, so an edit at
the cursor costs only the symbols it writes, and moving the cursor by d
costs one C-level copy of d bytes. Deleting the word's tail is a front
delete on `_right`, which bytearray does without moving the rest.

Reads (`get`, `slice`, `to_word`) never move the cursor. `insert` moves it
to the insertion point and leaves it after the inserted symbols, and a
`delete_range` that straddles the cursor moves it to the range's start.
Edits near the previous edit are therefore cheap.

`codec.decode` replays blocks with two private, unchecked methods, which
it calls only after its own bound checks: `_bytes(a, b)` reads [a, b)
without moving the cursor, and `_redo(i, l, c)` replays a run of c equal
blocks at once. It drops the last c*l symbols and inserts c copies of
[i, i + l) at i + l, moving the cursor exactly as that `delete_range` and
one `insert` of the c copies would, to end at i + (c + 1)*l; c = 1 is the
replay of one block. codec.decode relies on that: its bound on the
cursor's travel counts those moves, and every move goes through `_seek`.

Symbols are stored as bytes, which covers every alphabet the package
supports (`core.MAX_ALPHABET` is 256). A symbol outside 0..255, or one
that is not an integer, raises MalformedWordError (a ValueError) and leaves
the word unchanged. A position that is not an integer raises ValueError,
one out of range IndexError. The methods test a position's type before
calling core._integer, so that plain ints cost no extra call.

Positions are 0-based and ranges half-open, matching the rest of the
package.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import MAX_ALPHABET, _integer, check_word


class EditableWord:
    """Mutable word with O(1) point access and splices at a moving cursor.

    split() and join() consume their operands: the returned words take over
    the operands' buffers, and the operands are left empty.
    """

    __slots__ = ("_left", "_right")

    def __init__(self) -> None:
        self._left = bytearray()
        self._right = bytearray()

    @classmethod
    def from_word(cls, symbols: Sequence[int]) -> "EditableWord":
        """Build in O(len), with the cursor at the end."""
        t = cls()
        t._left = bytearray(check_word(symbols, MAX_ALPHABET))
        return t

    def __len__(self) -> int:
        return len(self._left) + len(self._right)

    def _seek(self, p: int) -> None:
        left, right = self._left, self._right
        nl = len(left)
        if p < nl:
            right += left[p:][::-1]
            del left[p:]
        elif p > nl:
            d = p - nl
            left += right[-d:][::-1]
            del right[-d:]

    # -- unchecked steps for codec.decode, which checks every bound first --

    def _bytes(self, a: int, b: int) -> bytearray:
        """Positions [a, b) without moving the cursor; 0 <= a <= b <= len."""
        left, right = self._left, self._right
        nl = len(left)
        if b <= nl:
            return left[a:b]
        m = nl + len(right)
        if a >= nl:
            return right[m - b : m - a][::-1]
        return left[a:] + right[m - b :][::-1]

    def _redo(self, i: int, l: int, c: int = 1) -> None:
        """Drop the last c*l symbols and insert c copies of [i, i + l) at
        i + l: the word that c calls of _redo(i, l) give when
        i + (c + 1)*l <= len.

        Needs c >= 1 and 0 <= i and i + (c + 1)*l <= len. The tail is cut
        as delete_range cuts it, and the copies are spliced in as one insert
        splices them, so the cursor moves as under those two calls and ends
        at i + (c + 1)*l.
        """
        left, right = self._left, self._right
        cut = len(left) + len(right) - c * l
        if not right:
            del left[cut:]
        else:
            if cut < len(left):
                self._seek(cut)
            del right[: c * l]
        self._seek(i + l)
        left += left[i:] * c

    def get(self, i: int) -> int:
        """Symbol at position i (0-based)."""
        if type(i) is not int:
            i = _integer(i, "position")
        m = len(self)
        if i < 0 or i >= m:
            raise IndexError(f"position {i} out of range for word of length {m}")
        nl = len(self._left)
        return self._left[i] if i < nl else self._right[m - 1 - i]

    def insert(self, i: int, symbols: Sequence[int]) -> None:
        """Splice symbols in at offset i (0 <= i <= len)."""
        if type(i) is not int:
            i = _integer(i, "offset")
        if i < 0 or i > len(self):
            raise IndexError(f"insert offset {i} out of range for length {len(self)}")
        data = check_word(symbols, MAX_ALPHABET)
        if data:
            self._seek(i)
            self._left += data

    def delete_range(self, a: int, b: int) -> bytes:
        """Remove positions [a, b) and return the removed symbols."""
        if type(a) is not int or type(b) is not int:
            a, b = _integer(a, "range start"), _integer(b, "range end")
        m = len(self)
        if not (0 <= a <= b <= m):
            raise IndexError(f"range [{a}, {b}) invalid for word of length {m}")
        left, right = self._left, self._right
        if b <= len(left):
            out = bytes(left[a:b])
            del left[a:b]
            return out
        if a < len(left):
            self._seek(a)
        out = bytes(right[m - b : m - a][::-1])
        del right[m - b : m - a]
        return out

    def slice(self, a: int, b: int) -> bytes:
        """Read positions [a, b) without mutating; O(b - a)."""
        if type(a) is not int or type(b) is not int:
            a, b = _integer(a, "range start"), _integer(b, "range end")
        m = len(self)
        if not (0 <= a <= b <= m):
            raise IndexError(f"range [{a}, {b}) invalid for word of length {m}")
        return bytes(self._bytes(a, b))

    def split(self, k: int) -> tuple["EditableWord", "EditableWord"]:
        """Split into the first k symbols and the rest. Consumes self."""
        if type(k) is not int:
            k = _integer(k, "split point")
        if k < 0 or k > len(self):
            raise IndexError(f"split point {k} out of range for length {len(self)}")
        self._seek(k)
        left, right = EditableWord(), EditableWord()
        left._left, right._right = self._left, self._right
        self._left, self._right = bytearray(), bytearray()
        return left, right

    @staticmethod
    def join(left: "EditableWord", right: "EditableWord") -> "EditableWord":
        """Concatenate two words. Consumes both operands.

        ValueError, with both operands unchanged, when either is not an
        EditableWord or both are the same word.
        """
        for operand in (left, right):
            if not isinstance(operand, EditableWord):
                raise ValueError(f"join takes two EditableWords, got {type(operand).__name__}")
        if left is right:
            raise ValueError("cannot join a word to itself")
        left._seek(len(left))
        right._seek(0)
        t = EditableWord()
        t._left, t._right = left._left, right._right
        left._left, right._right = bytearray(), bytearray()
        return t

    def to_word(self) -> bytes:
        """The whole word, without moving the cursor."""
        return b"".join((self._left, self._right[::-1]))

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_word())

    def audit(self) -> None:
        """Check that both halves of the gap are byte buffers.

        A gap buffer stores no derived state (no sizes or heights) that
        could disagree with its contents, so this is the whole invariant.
        Raises ValueError if it does not hold.
        """
        if type(self._left) is not bytearray or type(self._right) is not bytearray:
            raise ValueError("gap buffer halves must be bytearrays")
