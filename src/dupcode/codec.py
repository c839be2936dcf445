"""Encoder, decoder and receiver-side correction.

Encoding appends one redundancy symbol 0 to the message, then repeatedly
rewrites the word while it still contains a long duplication: the left
copy of the leftmost long square is deleted and a same-length data block
is appended at the end. A block records the square's offset i and
half-length l as fixed-width digit blocks, padded by filler chosen so
the block cannot complete a new long square:

    i_digits | r-1 absent L-words | 0^t | 1 absent L-word | l_digits | 1

with r = (l - 2L - 1) // L and t = (l - 1) % L, which makes the block
exactly l symbols long (r >= 2 whenever l >= K). Each absent L-word is
the lexicographically smallest L-word missing from the word it joins.
The word length is n + 1 after every iteration, and the unprocessed
prefix shrinks by at least K per iteration, so the loop runs at most
(n + 1) / K times.

Decoding walks blocks right to left: a trailing 1 announces a block,
whose digits say which segment to re-duplicate; a trailing 0 says the
word is the plain message plus the redundancy symbol.

numpy enters only through the hashed square search (repeats), which a
word free of long squares never reaches in a process without numpy. The
window index computes in plain Python and is imported once an encode
finds its first square. correct's period search XORs the word with its
shift as one big integer. decode runs on core alone, and imports the
byte gap buffer (seqword) once it finds a block to replay. So decode,
and an encode or correct whose words hold no long square, never load
numpy, and a process that meets no square or block compiles neither
windows nor seqword.

encode, decode and correct_with_position return core._as_word of a
private core (_encode, _decode, _correct) that returns the word as bytes;
the CLI calls the cores and formats their bytes, so it builds no tuple
for a result.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    CodeParams,
    Duplication,
    InternalDefectError,
    MalformedCodewordError,
    MalformedWordError,
    Word,
    _as_word,
    _check_params,
    _set,
    _Value,
    check_word,
    from_digits,  # unused here, like to_digits: bench/tracing.py wraps both in codec
    to_digits,
)
from .repeats import find_leftmost_long, is_dup_free


class BlockRecord(_Value):
    """One encoder iteration, kept when tracing: the square (i, l) cut, the
    block arithmetic r and t, and the r fillers written into the block.

    A record holds the encoder's decisions, not the word: the word after
    each iteration follows by replaying the records in order on the
    message plus its 0 flag. A record costs O(r * L) symbols, so a trace
    is O(n) in all.
    """

    __slots__ = __match_args__ = ("i", "l", "r", "t", "fillers")
    i: int
    l: int
    r: int
    t: int
    fillers: tuple[Word, ...]

    def __init__(self, i: int, l: int, r: int, t: int, fillers: tuple[Word, ...]) -> None:
        _set(self, "i", i)
        _set(self, "l", l)
        _set(self, "r", r)
        _set(self, "t", t)
        _set(self, "fillers", fillers)


def _encode(
    x: Sequence[int],
    params: CodeParams,
    self_check: bool = False,
    trace: list[BlockRecord] | None = None,
) -> bytes:
    """encode's codeword as bytes, for callers that pass it on as bytes."""
    _check_params(params)
    q, n, L, K = params.q, params.n, params.L, params.K
    xw = check_word(x, q)
    if len(xw) != n:
        raise MalformedWordError(f"message must have length {n}, got {len(xw)}")

    # A bytearray: a splice moves bytes, not pointers, and the square search
    # copies it into numpy as a buffer.
    w = bytearray(xw)
    w.append(0)
    dup = find_leftmost_long(w, K)
    if dup is None:
        return bytes(w)

    from .windows import WindowIndex

    index = WindowIndex.build(w, params)
    d_len = n + 1  # length of the not-yet-rewritten prefix
    max_iters = (n + 1) // K + 1

    iters = 0
    while dup is not None:
        iters += 1
        if iters > max_iters:
            raise InternalDefectError("encoder exceeded its iteration bound")
        i, l = dup.i, dup.l
        if i + l > d_len:
            raise InternalDefectError("left copy of a long square reaches into written blocks")
        r = (l - 2 * L - 1) // L
        t = (l - 1) % L
        if r < 2 or 2 * L + r * L + t + 1 != l:
            raise InternalDefectError(f"block arithmetic failed for l={l}, L={L}")

        index._cut(w, i, i + l)
        del w[i : i + l]
        d_len -= l

        # One private call counts the block's windows: its runs, i digits,
        # r - 2 empty runs, 0^t, then l digits and the flag, with a filler
        # looked up between each two once every symbol before it is counted;
        # the index's digit writer writes i and l, both below n <= q**L. w
        # holds symbols below q, so the unchecked edit takes its tail as it
        # is. A lookup sees at most n symbols, fewer than q**L windows, so an
        # absent L-word always exists.
        runs = [index._digits(i), *[b""] * (r - 2), bytes(t), index._digits(l) + b"\x01"]
        fillers = index._fill(w[len(w) - L + 1 :], runs)
        w += runs[0]
        for filler, run in zip(fillers, runs[1:]):
            w += filler
            w += run

        if len(w) != n + 1:
            raise InternalDefectError(f"length invariant broken: {len(w)} != {n + 1}")
        if self_check:
            index.audit(w)
        if trace is not None:
            trace.append(BlockRecord(i, l, r, t, tuple(map(tuple, fillers))))
        dup = find_leftmost_long(w, K)
    return bytes(w)


def encode(
    x: Sequence[int],
    params: CodeParams,
    *,
    self_check: bool = False,
) -> Word:
    """Encode an n-symbol message into a duplication-free (n+1)-codeword.

    self_check=True re-verifies the window index against the word after
    every iteration (slow; meant for differential testing).
    """
    return _as_word(_encode(x, params, self_check))


def encode_with_trace(x: Sequence[int], params: CodeParams) -> tuple[Word, list[BlockRecord]]:
    """Encode, returning the codeword and one BlockRecord per iteration.

    The records hold what the encoder decided, (i, l, r, t, fillers); the
    word after each iteration follows by replaying them. The trace takes
    O(n) memory. self_check=True is forced, so every iteration is audited.
    """
    trace: list[BlockRecord] = []
    y = _encode(x, params, self_check=True, trace=trace)
    return _as_word(y), trace


def decode(y: Sequence[int], params: CodeParams) -> Word:
    """Invert encode on codewords: decode(encode(x)) == x.

    Raises MalformedCodewordError when y fails one of the checks the
    replay makes: the length is n + 1, each trailing flag is 0 or 1, each
    block's half-length and offset digits lie in range, the half-lengths
    sum to at most n + 1, each block fits in the word before it, and each
    block's offset lies below the end of the square replayed just before
    it (i_{k-1} < i_k + 2*l_k, the order the encoder writes blocks in). A
    word that passes them all is decoded even when it is not a codeword,
    so the returned x need not re-encode to y; is_codeword(y) is the exact
    membership test.

    Blocks are consumed right to left on an EditableWord gap buffer, whose
    length stays n + 1. Per block, one byte read takes the flag and the
    length digits, one takes the offset digits, and one private step
    (EditableWord._redo) deletes the l_k symbols at the tail and
    re-inserts a copy of [i_k, i_k + l_k) at i_k + l_k, which leaves the
    cursor at i_k + 2*l_k; the block costs O(l_k) plus the cursor's
    travel. Once the encoder cut at offset i_{k-1}, the prefix
    [0, i_{k-1}) holds no long square, so every new leftmost square
    crosses that offset and i_k + 2*l_k > i_{k-1}; decode refuses any
    word that breaks this order. Each rightward move is then shorter than
    l_k, and the leftward moves exceed the rightward ones by at most the
    n + 1 symbols the cursor starts from.

    The encoder cuts each half-length from a prefix that starts at n + 1
    symbols, so on a codeword the half-lengths sum to at most n + 1.
    decode keeps that budget and refuses the first block whose l exceeds
    what the blocks before it left. So on every input the replay copies
    at most n + 1 symbols and the cursor travels at most 3(n + 1). The
    budget also ends every replay: each l is at least K, so the block
    that would overrun it comes by the (m // K + 1)-th.
    """
    return _as_word(_decode(y, params))


def _decode(y: Sequence[int], params: CodeParams) -> bytes:
    """decode's result as bytes, for callers that pass it on as bytes."""
    _check_params(params)
    q, n, L, K = params.q, params.n, params.L, params.K
    yw = check_word(y, q)
    if len(yw) != n + 1:
        raise MalformedCodewordError(f"codeword must have length {n + 1}, got {len(yw)}")
    if yw[-1] == 0:
        return yw[:-1]

    from .seqword import EditableWord

    # The replay keeps the word at m = n + 1 symbols, and every symbol
    # passed check_word, so the digits need no range check of their own.
    m = n + 1
    buf = EditableWord.from_word(yw)
    end = m  # end of the square replayed last; no bound on the first block
    budget = m  # symbols the half-lengths may still take
    while True:
        head = buf._bytes(max(m - 1 - L, 0), m)  # length digits and flag
        flag = head[-1]
        if flag == 0:
            buf.delete_range(m - 1, m)
            return buf._packed()
        if flag != 1:
            raise MalformedCodewordError(f"trailing flag must be 0 or 1, got {flag}")
        if m - 1 < L:
            raise MalformedCodewordError("too few symbols for a length block")
        l = 0
        for d in head[:-1]:
            l = l * q + d
        if l < K:
            raise MalformedCodewordError(f"block half-length {l} is below the threshold {K}")
        if l > budget:
            if l > m:
                raise MalformedCodewordError(f"block half-length {l} exceeds the word length {m}")
            raise MalformedCodewordError(
                f"block half-lengths sum to {m - budget + l}, past the word length {m}"
            )
        budget -= l
        i = 0
        for d in buf._bytes(m - l, m - l + L):
            i = i * q + d
        rem = m - l
        if i + l > rem:
            raise MalformedCodewordError(
                f"reinsertion (i={i}, l={l}) does not fit in {rem} symbols"
            )
        if i >= end:
            raise MalformedCodewordError(
                f"block offset {i} is not below {end}, where the next block's square ends"
            )
        buf._redo(i, l)
        end = i + 2 * l


def _leftmost_period_square(w: bytes, l: int) -> int | None:
    """Smallest p with w[p:p+l] == w[p+l:p+2l], or None.

    Byte j of the XOR of w[:-l] and w[l:] is zero exactly when
    w[j] == w[j + l], so a square of period l is a run of l zero bytes.
    """
    m = len(w)
    if l < 1 or 2 * l > m:
        return None
    d = (int.from_bytes(w[:-l], "big") ^ int.from_bytes(w[l:], "big")).to_bytes(m - l, "big")
    p = d.find(bytes(l))
    return p if p >= 0 else None


def correct_with_position(
    y: Sequence[int], params: CodeParams
) -> tuple[Word, Duplication | None]:
    """Undo a single tandem duplication applied to a codeword.

    A received word of length n+1 is returned unchanged (removal = None).
    Otherwise the excess length determines the duplication's half-length
    l, the leftmost square with that period is located and its left copy
    removed; every removable square yields the same word when the original
    was free of length-l duplications. The result is verified to contain
    no square of half-length >= K. Half-lengths below K are handled
    mechanically, but uniqueness of the result is only guaranteed in the
    l >= K regime the code is designed for.
    """
    fixed, removal = _correct(y, params)
    return _as_word(fixed), removal


def _correct(y: Sequence[int], params: CodeParams) -> tuple[bytes, Duplication | None]:
    """correct_with_position with the repaired word as bytes."""
    _check_params(params)
    q, n, K = params.q, params.n, params.K
    yw = check_word(y, q)
    m = len(yw)
    if m == n + 1:
        return yw, None
    if m < n + 1:
        raise MalformedCodewordError(
            f"received word of length {m} is shorter than a codeword ({n + 1})"
        )
    l = m - (n + 1)
    p = _leftmost_period_square(yw, l)
    if p is None:
        raise MalformedCodewordError(f"no duplication of half-length {l} found")
    res = yw[:p] + yw[p + l :]
    if not is_dup_free(res, K):
        raise MalformedCodewordError(
            "removing the duplication leaves a long square; "
            "input is not a single corruption of a codeword"
        )
    return res, Duplication(p, l)


def correct(y: Sequence[int], params: CodeParams) -> Word:
    """Like correct_with_position, returning only the repaired word."""
    return correct_with_position(y, params)[0]


def is_codeword(y: Sequence[int], params: CodeParams) -> bool:
    """True iff y decodes and re-encodes to itself.

    Never raises on a bad y: any word, of any length or symbols, gets an
    answer. params must still be a CodeParams (ValueError otherwise).
    """
    _check_params(params)
    try:
        yw = check_word(y, params.q)
    except MalformedWordError:
        return False
    if len(yw) != params.n + 1:
        return False
    try:
        x = _decode(yw, params)
    except (MalformedWordError, MalformedCodewordError):
        return False
    return _encode(x, params) == yw
