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

A square (0, l) at the front of a run of period l long enough for c of
them is followed by c - 1 more (0, l) squares, and cutting them changes
no filler, so the encoder cuts all c with one search and one index edit
and writes c blocks, 64 per filler call. The codeword and the blocks are
those of c separate iterations. self_check audits the window index after
every index edit, so once per batch.

Decoding walks blocks right to left: a trailing 1 announces a block,
whose digits say which segment to re-duplicate; a trailing 0 says the
word is the plain message plus the redundancy symbol. The blocks before
it with the same digits and flag, as a batch of front cuts writes them,
are replayed with it in one gap-buffer step, which gives the word of one
replay per block.

numpy enters through the hashed square search (repeats), which a word
free of long squares never reaches in a process without numpy, and
through the window index, which computes its window codes with numpy and
is imported, and built on the word after the first cut, once an encode
finds its first square. correct's period search XORs the word with its
shift as one big integer. decode runs on core alone, and imports the
byte gap buffer (seqword) once it finds a block to replay. So decode,
and an encode or correct whose words hold no long square, never load
numpy, and a process that meets no square or block compiles neither
windows nor seqword.

The square search lives in repeats, which codec imports on its first
search, so a decode never compiles it. find_leftmost_long and
is_dup_free stay names of this module, each a call into repeats,
because codec calls its searches through them: a caller that wraps the
encoder's searches or correct's final check, as bench/tracing.py and
the tests do, patches them here by name.

Every word these functions return is bytes, which the CLI formats as it
is and any of them takes back without packing it again.
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
    _check_params,
    _set,
    _Value,
    check_word,
    from_digits,
    to_digits,
)


def find_leftmost_long(w: Sequence[int], K: int) -> Duplication | None:
    from .repeats import find_leftmost_long
    return find_leftmost_long(w, K)


def is_dup_free(w: Sequence[int], K: int) -> bool:
    from .repeats import is_dup_free
    return is_dup_free(w, K)


class BlockRecord(_Value):
    """One encoder iteration, kept when tracing: the square (i, l) cut, the
    block arithmetic r and t, and the r fillers written into the block. A
    batch of c cuts at the front is c iterations and leaves c records.

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


def _front_repeats(w: bytearray, l: int, L: int) -> int:
    """The largest c >= 1 with w[j] == w[j + l] for every j < c*l + L - 1
    and (c + 1)*l + L - 1 <= len(w), for a word w that starts with the
    square (0, l). It gallops, then bisects, on c, and each comparison
    starts where the matched symbols end, so it reads O(c*l + L) symbols
    in all, and l + L - 1 pairs of them when c = 1."""
    top = (len(w) - L + 1) // l - 1  # the largest c the length allows
    lo, hi, step = 1, top + 1, 1  # lo <= c < hi; hi > top until a probe fails
    while lo + 1 < hi:
        mid = min(lo + step, top) if hi > top else (lo + hi) // 2
        a, b = lo * l + L - 1 if lo > 1 else l, mid * l + L - 1
        if w[a:b] == w[a + l : b + l]:
            lo, step = mid, 2 * step
        else:
            hi = mid
    return lo


def _encode(
    x: Sequence[int],
    params: CodeParams,
    self_check: bool,
    trace: list[BlockRecord] | None,
) -> Word:
    """encode's body; appends one BlockRecord per block written to trace
    unless it is None."""
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

    index = None
    d_len = n + 1  # length of the not-yet-rewritten prefix
    max_iters = (n + 1) // K + 1

    iters = 0  # blocks written
    while dup is not None:
        i, l = dup.i, dup.l
        # A square at the front whose period runs on is cut c times in one
        # pass, and c blocks with the same i and l are written after it. This
        # is exact:
        # - The squares are the same. The periodic run spans (c + 1)*l + L - 1
        #   symbols, so for k <= c the word after k - 1 cuts starts with the
        #   same 2l symbols as w. It still has the square (0, l), and no square
        #   (0, l') with K <= l' < l, for w would have it too, against the
        #   search's smallest-l tie-break.
        # - The fillers are the same. Every window the batch removes, starting
        #   in [0, c*l), has an equal copy starting in [c*l, c*l + l), which
        #   the L - 1 margin keeps whole and the batch keeps. So no count
        #   reaches 0, no gap is pushed, and each filler lookup sees the same
        #   set of L-words as in c separate iterations.
        c = 1 if i else _front_repeats(w, l, L)
        if iters + c > max_iters:
            raise InternalDefectError("encoder exceeded its iteration bound")
        if i + c * l > d_len:
            raise InternalDefectError("left copy of a long square reaches into written blocks")
        iters += c
        r = (l - 2 * L - 1) // L
        t = (l - 1) % L
        if r < 2 or 2 * L + r * L + t + 1 != l:
            raise InternalDefectError(f"block arithmetic failed for l={l}, L={L}")

        # The index is built after the first cut: lookups read the counts alone,
        # and so the run the first batch deletes is never counted.
        if index is not None:
            index._cut(w, i, i + c * l)
        del w[i : i + c * l]
        if index is None:
            index = WindowIndex.build(w, params)
        d_len -= c * l

        # One private call per 64 blocks counts their windows: each block's
        # i digits, r - 2 empty runs, 0^t, then l digits and the flag, joined
        # to the next block's i digits, with a filler between each two runs,
        # the smallest L-word absent once every symbol before it is counted.
        # The index guesses these fillers a round at a time and checks each
        # round's guesses in one numpy pass. to_digits writes i and l, both
        # below n <= q**L. w holds symbols below q, so the unchecked edit
        # takes its tail as it is. A lookup sees at most n symbols, fewer than
        # q**L windows, so an absent L-word always exists. The 64-block chunks
        # bound the work a missed guess redoes.
        head, last = to_digits(i, params), to_digits(l, params) + b"\x01"
        middle = [*[b""] * (r - 2), bytes(t)]
        for done in range(0, c, 64):
            m = min(64, c - done)
            runs = [head, *[*middle, last + head] * (m - 1), *middle, last]
            fillers = index._fill(w[len(w) - L + 1 :], runs)
            joined = runs + fillers  # as long as runs[0], fillers[0], runs[1], ..., runs[-1]
            joined[::2], joined[1::2] = runs, fillers
            w += b"".join(joined)
            if trace is not None:
                trace.extend(BlockRecord(i, l, r, t, tuple(fillers[k * r : k * r + r])) for k in range(m))

        if len(w) != n + 1:
            raise InternalDefectError(f"length invariant broken: {len(w)} != {n + 1}")
        if self_check:
            index.audit(w)
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
    every index edit: a cut and the blocks written after it, where a batch
    of cuts at a periodic front is one edit (slow; meant for differential
    testing).
    """
    return _encode(x, params, self_check, None)


def encode_with_trace(x: Sequence[int], params: CodeParams) -> tuple[Word, list[BlockRecord]]:
    """Encode, returning the codeword and one BlockRecord per iteration.

    The records hold what the encoder decided, (i, l, r, t, fillers); the
    word after each iteration follows by replaying them. The trace takes
    O(n) memory. self_check=True is forced, so the window index is audited
    after every index edit; a batch of cuts at a periodic front is one
    edit, after which its c records hold no audit between them.
    """
    trace: list[BlockRecord] = []
    return _encode(x, params, True, trace), trace


def _equal_blocks(buf, m: int, l: int, head: bytes, digits: bytes, cap: int) -> int:
    """The largest c <= cap, or 1 when cap < 2, such that each of the c
    l-symbol blocks ending at m starts with `digits` and ends with `head`,
    the last block's offset digits and its length digits and flag;
    cap <= m // l.

    decode calls it only once the second block's offset digits match, one
    short read, so a block that ends no run costs O(L). One more short read
    tests the second block's length digits and flag. On a match the search
    gallops: it reads the blocks c + 1 .. 2c in one slice and tests each in
    place, so a run of c blocks costs O(c*l) symbols and O(c) comparisons
    of L + 1.
    """
    if cap < 2 or buf._bytes(m - l - len(head), m - l) != head:
        return 1
    c = 2
    while c < cap:
        s = min(2 * c, cap)
        region = buf._bytes(m - s * l, m - c * l)  # blocks s, s - 1, ..., c + 1
        for k in range(c + 1, s + 1):
            a = (s - k) * l
            if not (region.startswith(digits, a) and region.endswith(head, a, a + l)):
                return k - 1
        c = s
    return c


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
    length stays m = n + 1. For the last block, one byte read takes the
    flag and the length digits and one the offset digits. Then a run of c
    trailing blocks with those same digits and flag is replayed in one
    private step (EditableWord._redo), which deletes the c*l symbols at the
    tail and inserts c copies of [i, i + l) at i + l. That is the word c
    replays of (i, l) give, w[:i+l] + w[i:i+l]*c + w[i+l : m-c*l], and
    each later block of the run is read unchanged from w's tail as long
    as i + (c + 1)*l <= m; decode caps c there and at the blocks the
    half-length budget still allows. Every block of the run then passes
    each check, the offset one too, since i < i + 2*l; a block past the
    cap is left to the next step, which refuses it as a replay of one
    block would, with the same message. Each batch of front cuts the
    encoder makes writes such a run.

    Once the encoder cut at offset i_{k-1}, the prefix [0, i_{k-1}) holds
    no long square, so every new leftmost square crosses that offset and
    i_k + 2*l_k > i_{k-1}; decode refuses any word that breaks this order.
    The half-lengths of a codeword sum to at most n + 1, for the encoder
    cuts each from a prefix that starts at n + 1 symbols; decode keeps
    that budget, charging a run c*l, and refuses the first block whose l
    exceeds what the blocks before it left. So on every input the replay
    copies at most n + 1 symbols, and it ends: each l is at least K, so
    the block that would overrun the budget comes by the (m // K + 1)-th.

    The cursor's travel: a step for (i, l, c) finds the cursor at e, where
    the step before left it (e = m at first). The tail cut moves it left to
    m - c*l if it lies past that, the seek takes it to i + l <= m - c*l,
    and the insertion leaves it at i + (c + 1)*l. So the step moves it at
    most |e - (i + l)| symbols, and rightward only when i + l > e. The
    order check gives i < i' + 2*l' <= e for the step before's (i', l'),
    so a rightward move is shorter than l <= c*l. The leftward moves
    exceed the rightward ones by at most m - e_last + sum(c*l) <= 2m,
    where e_last is where the cursor ends, so it travels less than
    m + 3*sum(c*l) <= 4m symbols in all, and the replay costs O(n). A
    run's one step moves it at least (c - 1)*l less than a step per
    block, whose later steps each seek back from i + 2*l to i + l.
    """
    _check_params(params)
    q, n, L, K = params.q, params.n, params.L, params.K
    yw = check_word(y, q)
    if len(yw) != n + 1:
        raise MalformedCodewordError(f"codeword must have length {n + 1}, got {len(yw)}")
    if yw[-1] == 0:
        return yw[:-1]

    from .seqword import EditableWord

    # The replay keeps the word at m = n + 1 symbols, and every symbol
    # passed check_word, so from_digits never refuses a digit.
    m = n + 1
    buf = EditableWord.from_word(yw)
    end = m  # end of the square replayed last; no bound on the first block
    budget = m  # symbols the half-lengths may still take
    while True:
        head = buf._bytes(max(m - 1 - L, 0), m)  # length digits and flag
        flag = head[-1]
        if flag == 0:
            return bytes(buf._bytes(0, m - 1))
        if flag != 1:
            raise MalformedCodewordError(f"trailing flag must be 0 or 1, got {flag}")
        if m - 1 < L:
            raise MalformedCodewordError("too few symbols for a length block")
        l = from_digits(head[:-1], params)
        if l < K:
            raise MalformedCodewordError(f"block half-length {l} is below the threshold {K}")
        if l > budget:
            if l > m:
                raise MalformedCodewordError(f"block half-length {l} exceeds the word length {m}")
            raise MalformedCodewordError(
                f"block half-lengths sum to {m - budget + l}, past the word length {m}"
            )
        budget -= l
        digits = buf._bytes(m - l, m - l + L)
        i = from_digits(digits, params)
        rem = m - l
        if i + l > rem:
            raise MalformedCodewordError(
                f"reinsertion (i={i}, l={l}) does not fit in {rem} symbols"
            )
        if i >= end:
            raise MalformedCodewordError(
                f"block offset {i} is not below {end}, where the next block's square ends"
            )
        c = 1
        if buf._bytes(m - 2 * l, m - 2 * l + L) == digits:  # the block before may repeat this one
            c = _equal_blocks(buf, m, l, head, digits, min((m - i) // l - 1, budget // l + 1))
            budget -= (c - 1) * l
        buf._redo(i, l, c)
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
        x = decode(yw, params)
    except (MalformedWordError, MalformedCodewordError):
        return False
    return encode(x, params) == yw
