"""Code parameters, symbol words, duplications, and fixed-width base-q digit blocks.

A word is a sequence of symbols 0..q-1 with q <= 256. Public functions take
any sequence of ints and return tuples of ints (Word); below them every
layer holds the word as bytes, packed and checked once by check_word. A word
handed straight back to the library is not packed again (see check_word). All
positions and offsets in this package are 0-based; ranges are half-open.
The command line layer keeps the same numbering, and documents it.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

Word = tuple[int, ...]

#: Largest supported alphabet: words are held as bytes inside the encoder
#: and the decode buffer.
MAX_ALPHABET = 256

_CHAR_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_VALUE = {c: v for v, c in enumerate(_CHAR_ALPHABET)}
# ASCII byte -> symbol (upper case as lower case); 0xFF marks every other byte.
_PARSE_TABLE = bytes(_CHAR_VALUE.get(chr(b).lower(), 0xFF) for b in range(128)).ljust(256, b"\xff")
# symbol -> its character; only symbols below 36 are ever looked up.
_FORMAT_TABLE = _CHAR_ALPHABET.encode("ascii").ljust(256, b"?")
# The bytes 0..255; _ALL[:q] are the symbols check_word deletes from a packed word.
_ALL = bytes(range(MAX_ALPHABET))


class DupcodeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedWordError(DupcodeError, ValueError):
    """An input word is invalid: bad text, out-of-range symbol, wrong length."""


class MalformedCodewordError(DupcodeError, ValueError):
    """A received word cannot be decoded or corrected under the code contract."""


class VerificationError(DupcodeError):
    """A verification pass found a violation it was asked to rule out."""


class GuardExceededError(DupcodeError):
    """An exhaustive enumeration would exceed the configured space guard."""


class InternalDefectError(DupcodeError):
    """An internal invariant was breached. Always a bug, never bad input."""


def _integer(value: object, name: str) -> int:
    """value as an int, by operator.index, or ValueError naming the parameter.

    Whatever operator.index accepts counts as an integer: int, numpy's
    integer scalars, and bool (True is 1). A float, a string, None or a
    numpy bool is refused, never truncated or parsed.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_alphabet(q: int) -> int:
    """q as an int, or ValueError when it is not an integer or exceeds 256."""
    if type(q) is not int:  # check_word runs this on every call
        q = _integer(q, "alphabet size q")
    if q > MAX_ALPHABET:
        raise ValueError(f"alphabet size q must be <= {MAX_ALPHABET}, got {q}")
    return q


_set = object.__setattr__


class _Value:
    """Base of the immutable value classes, whose fields are their __slots__.

    Equality, hashing, repr and pickling follow the fields in order, as a
    frozen dataclass would; dataclasses itself is not imported, because it
    loads inspect and, with it, ast, dis and tokenize into every process.
    Subclasses set their fields in __init__ through object.__setattr__.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CodeParams(_Value):
    """Parameter bundle shared by every operation.

    q is the alphabet size and n the message length. L is the window
    length, the smallest integer with q**L >= n, and K = 4*L + 1 is the
    smallest duplication half-length the code is built to correct.
    Codewords have length n + 1 (redundancy is exactly one symbol).
    """

    __slots__ = __match_args__ = ("q", "n", "L", "K")
    q: int
    n: int
    L: int
    K: int

    def __init__(self, q: int, n: int, L: int, K: int) -> None:
        q = _check_alphabet(q)
        n = _integer(n, "message length n")
        L = _integer(L, "window length L")
        K = _integer(K, "threshold K")
        if q < 2:
            raise ValueError(f"alphabet size q must be >= 2, got {q}")
        if n < 2:
            raise ValueError(f"message length n must be >= 2, got {n}")
        if L < 1:
            raise ValueError(f"window length L must be >= 1, got {L}")
        if q**L < n:
            raise ValueError(f"window length L={L} is too short: q**L < n={n}")
        if K != 4 * L + 1:
            raise ValueError(f"threshold K must be 4*L + 1 = {4 * L + 1}, got {K}")
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "L", L)
        _set(self, "K", K)

    @property
    def feasible(self) -> bool:
        """Whether a duplication of half-length >= K fits in n+1 symbols."""
        return self.n + 1 >= 2 * self.K


def _check_params(params: object) -> None:
    """ValueError unless params is a CodeParams; every entry point that takes
    params runs this before reading a field of it."""
    if not isinstance(params, CodeParams):
        raise ValueError(f"params must be a CodeParams, got {type(params).__name__}")


def derive_params(q: int, n: int) -> CodeParams:
    """Derive (L, K) from the alphabet size q and message length n.

    L is computed by integer arithmetic (no floating logs): the smallest
    L with q**L >= n.
    """
    q, n = _integer(q, "alphabet size q"), _integer(n, "message length n")
    if q < 2:
        raise ValueError(f"alphabet size q must be >= 2, got {q}")
    if n < 2:
        raise ValueError(f"message length n must be >= 2, got {n}")
    L = 1
    power = q
    while power < n:
        power *= q
        L += 1
    return CodeParams(q=q, n=n, L=L, K=4 * L + 1)


class Duplication(_Value):
    """A tandem duplication: i symbols precede the left copy of half-length l."""

    __slots__ = __match_args__ = ("i", "l")
    i: int
    l: int

    def __init__(self, i: int, l: int) -> None:
        if type(i) is not int or type(l) is not int:  # the search makes one per square
            i, l = _integer(i, "offset i"), _integer(l, "half-length l")
        if i < 0 or l < 1:
            raise ValueError(f"invalid duplication (i={i}, l={l})")
        _set(self, "i", i)
        _set(self, "l", l)


def _listed(symbols: Iterable[int]) -> list:
    """The symbols of a word given as neither bytes nor a tuple or list."""
    # bytes() would read a buffer such as a numpy array as raw memory;
    # tolist() gives its elements as Python numbers
    tolist = getattr(symbols, "tolist", None)
    try:
        items = tolist() if callable(tolist) else list(symbols)
    except TypeError:
        items = None
    if not isinstance(items, list):  # a 0-d array's tolist() is a scalar
        raise MalformedWordError(
            f"a word must be an iterable of symbols, got {type(symbols).__name__}"
        )
    return items


def _numpy_bool(s: object, pos: int) -> int:
    """A numpy bool scalar, which has no __index__, as 0 or 1; any other
    symbol that operator.index refused raises MalformedWordError."""
    if type(s).__module__ == "numpy" and getattr(s, "ndim", None) == 0:
        value = s.item()
        if isinstance(value, bool):
            return int(value)
    raise MalformedWordError(f"symbol {s!r} at position {pos} is not an integer")


# The word the library returned last, with the bytes it was built from.
# Holding the word keeps its id from being reused while the pair stands, and
# both halves are immutable, so the bytes always equal a fresh pack of it.
# The pair is read and replaced as one tuple, so a thread never sees a word
# with another word's bytes.
_last: tuple[Word, bytes] = ((), b"")


def _as_word(packed: bytes) -> Word:
    """The Word of packed bytes; every public function returns words this way."""
    global _last
    word = tuple(packed)
    _last = (word, packed)
    return word


def check_word(symbols: Iterable[int], q: int) -> bytes:
    """Validate symbols against the alphabet [0, q) and pack them as bytes.

    Symbols are converted by operator.index, so a float or a string is
    refused, never truncated or parsed; a numpy bool reads as 0 or 1.
    Raises ValueError when q is not an integer or q > 256, and
    MalformedWordError naming the first symbol that is not an integer or
    lies outside the alphabet, or when symbols is not iterable.

    The word the library returned last is not packed again: when symbols
    is that very tuple, the bytes it was built from are checked against q
    and returned. The memo keeps that one word and its bytes, about 9 bytes
    per symbol, alive until the library returns its next word. An equal
    tuple that is a different object is packed as usual.
    """
    q = _check_alphabet(q)
    last, packed = _last
    if symbols is not last:
        if not isinstance(symbols, (bytes, bytearray, tuple, list)):
            symbols = _listed(symbols)
        # Fast path: bytes() checks 0..255 in C and translate() deletes the
        # symbols below q, so a word in range leaves nothing behind; at
        # q = 256 every byte is in range. Any failure falls through to the
        # loop below, which reports it.
        try:
            packed = bytes(symbols)
        except (TypeError, ValueError):
            packed = None
    if packed is not None and (q == MAX_ALPHABET or not packed.translate(None, _ALL[: max(q, 0)])):
        return packed
    word = []
    for pos, s in enumerate(symbols):
        try:
            s = operator.index(s)
        except TypeError:
            s = _numpy_bool(s, pos)
        if s < 0 or s >= q:
            raise MalformedWordError(
                f"symbol {s} at position {pos} is outside the alphabet [0, {q})"
            )
        word.append(s)
    return bytes(word)


def parse_word(text: str, q: int) -> Word:
    """Parse the textual word format.

    For q <= 36 a word is a string over 0-9a-z, one character per symbol
    (uppercase accepted). For larger alphabets it is a comma-separated
    list of decimal integers, each only ASCII digits 0-9, with spaces
    allowed around a comma. Raises MalformedWordError when text is not a
    string, and ValueError when q is not an integer.
    """
    if not isinstance(text, str):
        raise MalformedWordError(f"a word's text must be a string, got {type(text).__name__}")
    q = _integer(q, "alphabet size q")
    text = text.strip()
    if text == "":
        raise MalformedWordError("empty word")
    if q <= 36:
        # Fast path: one translate maps every character, and deleting the
        # symbols below q, as check_word does, leaves any non-alphabet byte
        # (0xFF) or symbol >= q behind. Any failure falls through to the
        # loop below, which reports it exactly as before.
        try:
            packed = text.encode("ascii").translate(_PARSE_TABLE)
        except UnicodeEncodeError:
            packed = None
        if packed is not None and not packed.translate(None, _ALL[: max(q, 0)]):
            return _as_word(packed)
        symbols = []
        for pos, ch in enumerate(text):
            v = _CHAR_VALUE.get(ch.lower())
            if v is None:
                raise MalformedWordError(f"invalid symbol character {ch!r} at position {pos}")
            symbols.append(v)
    else:
        parts = [part.strip() for part in text.split(",")]
        for pos, part in enumerate(parts):
            # int() alone would also take "1_0", "+1", "-0" and non-ASCII digits
            if not (part.isascii() and part.isdigit()):
                raise MalformedWordError(f"invalid comma-separated word: part {pos} is {part!r}, not decimal digits")
        symbols = [int(part) for part in parts]
    return _as_word(check_word(symbols, q))


def format_word(word: Sequence[int], q: int) -> str:
    """Render a word in the textual format accepted by parse_word."""
    w = check_word(word, q)
    if q <= 36:
        return w.translate(_FORMAT_TABLE).decode("ascii")
    return ",".join(str(s) for s in w)


def to_digits(value: int, params: CodeParams) -> Word:
    """Write value as exactly L base-q digits, most significant first.

    ValueError unless params is a CodeParams and value an integer in
    [0, q**L)."""
    _check_params(params)
    q, L = params.q, params.L
    if type(value) is not int:
        value = _integer(value, "value")
    if value < 0 or value >= q**L:
        raise ValueError(f"value {value} does not fit in {L} base-{q} digits")
    digits = [0] * L
    v = value
    for slot in range(L - 1, -1, -1):
        digits[slot] = v % q
        v //= q
    return tuple(digits)


def from_digits(digits: Sequence[int], params: CodeParams) -> int:
    """Read an L-digit base-q block, most significant digit first.

    ValueError unless params is a CodeParams and digits holds exactly L
    integers in [0, q)."""
    _check_params(params)
    q, L = params.q, params.L
    if len(digits) != L:
        raise ValueError(f"expected exactly {L} digits, got {len(digits)}")
    value = 0
    for d in digits:
        if type(d) is not int:
            d = _integer(d, "digit")
        if d < 0 or d >= q:
            raise ValueError(f"digit {d} outside [0, {q})")
        value = value * q + d
    return value
