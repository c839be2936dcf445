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
Edits near the previous edit are therefore cheap; `codec.decode` relies
on that.

Symbols are stored as bytes, which covers every alphabet the package
supports (`core.MAX_ALPHABET` is 256). A symbol outside 0..255 raises
ValueError and leaves the word unchanged.

Positions are 0-based and ranges half-open, matching the rest of the
package.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _pack(symbols: Sequence[int]) -> bytearray:
    if not isinstance(symbols, (bytes, bytearray, tuple, list)):
        symbols = list(symbols)  # bytearray() would read a buffer's raw memory
    try:
        return bytearray(symbols)
    except ValueError:
        raise ValueError("symbols must lie in 0..255") from None


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
        t._left = _pack(symbols)
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

    def get(self, i: int) -> int:
        """Symbol at position i (0-based)."""
        m = len(self)
        if i < 0 or i >= m:
            raise IndexError(f"position {i} out of range for word of length {m}")
        nl = len(self._left)
        return self._left[i] if i < nl else self._right[m - 1 - i]

    def insert(self, i: int, symbols: Sequence[int]) -> None:
        """Splice symbols in at offset i (0 <= i <= len)."""
        if i < 0 or i > len(self):
            raise IndexError(f"insert offset {i} out of range for length {len(self)}")
        data = _pack(symbols)
        if data:
            self._seek(i)
            self._left += data

    def delete_range(self, a: int, b: int) -> tuple[int, ...]:
        """Remove positions [a, b) and return the removed symbols."""
        m = len(self)
        if not (0 <= a <= b <= m):
            raise IndexError(f"range [{a}, {b}) invalid for word of length {m}")
        left, right = self._left, self._right
        if b <= len(left):
            out = left[a:b]
            del left[a:b]
            return tuple(out)
        if a < len(left):
            self._seek(a)
        out = right[m - b : m - a]
        del right[m - b : m - a]
        return tuple(out[::-1])

    def slice(self, a: int, b: int) -> tuple[int, ...]:
        """Read positions [a, b) without mutating; O(b - a)."""
        m = len(self)
        if not (0 <= a <= b <= m):
            raise IndexError(f"range [{a}, {b}) invalid for word of length {m}")
        left, right = self._left, self._right
        nl = len(left)
        if b <= nl:
            return tuple(left[a:b])
        tail = right[m - b : m - max(a, nl)][::-1]
        return tuple(left[a:nl] + tail) if a < nl else tuple(tail)

    def split(self, k: int) -> tuple["EditableWord", "EditableWord"]:
        """Split into the first k symbols and the rest. Consumes self."""
        if k < 0 or k > len(self):
            raise IndexError(f"split point {k} out of range for length {len(self)}")
        self._seek(k)
        left, right = EditableWord(), EditableWord()
        left._left, right._right = self._left, self._right
        self._left, self._right = bytearray(), bytearray()
        return left, right

    @staticmethod
    def join(left: "EditableWord", right: "EditableWord") -> "EditableWord":
        """Concatenate two words. Consumes both operands."""
        if left is right:
            raise ValueError("cannot join a word to itself")
        left._seek(len(left))
        right._seek(0)
        t = EditableWord()
        t._left, t._right = left._left, right._right
        left._left, right._right = bytearray(), bytearray()
        return t

    def to_word(self) -> tuple[int, ...]:
        return tuple(self._left + self._right[::-1])

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
