"""Brute-force enumeration oracles and bound checks.

Everything here trades speed for transparency: word spaces are enumerated
exhaustively (in value-range shards, vectorized per shard) and compared
against the closed-form bounds. A guard caps the enumerated space at
q**length <= 2**26 unless explicitly overridden. Digits are held as uint8,
so the enumerators refuse q > 256 with ValueError, as CodeParams does.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, log
from typing import Sequence

import numpy as np

from . import codec
from .channel import _duplicate, apply_duplication
from .core import (
    GuardExceededError,
    VerificationError,
    Word,
    _check_alphabet,
    _integer,
    derive_params,
    format_word,
)
from .repeats import is_dup_free

DEFAULT_SPACE_GUARD = 1 << 26
_SHARD = 1 << 16


def _require_space(q: int, length: int, max_space: int | None) -> int:
    space = q**length
    limit = DEFAULT_SPACE_GUARD if max_space is None else _integer(max_space, "max_space")
    if space > limit:
        raise GuardExceededError(
            f"enumeration of q**length = {space} words exceeds the guard {limit}; "
            "raise max_space to override"
        )
    return space


def _digit_matrix(q: int, length: int, lo: int, hi: int) -> np.ndarray:
    """Rows are the base-q digit expansions of values lo..hi-1 (MSB first).

    Digits are held as uint8, which covers every q <= 256 the callers accept.
    """
    vals = np.arange(lo, hi, dtype=np.int64)
    cols = [(vals // q ** (length - 1 - j)) % q for j in range(length)]
    return np.stack(cols, axis=1).astype(np.uint8)


def _square_mask(mat: np.ndarray, half_lengths: Sequence[int]) -> np.ndarray:
    """Per row: does the word contain a square with any of these half-lengths?"""
    n_words, length = mat.shape
    bad = np.zeros(n_words, dtype=bool)
    for l in half_lengths:
        for i in range(0, length - 2 * l + 1):
            bad |= (mat[:, i : i + l] == mat[:, i + l : i + 2 * l]).all(axis=1)
    return bad


@dataclass(frozen=True)
class BadWordReport:
    q: int
    n: int
    K: int
    count: int
    bound: Fraction

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "K": self.K,
            "count": self.count,
            "bound": float(self.bound),
            "holds": self.count <= self.bound,
        }


def count_bad_words(q: int, n: int, K: int, max_space: int | None = None) -> BadWordReport:
    """Exact number of length-n words containing a square of half-length >= K.

    Checked on the spot against the bound n * q**(n+1-K); a violation
    would falsify the implementation and raises VerificationError.
    """
    q, n = _integer(q, "alphabet size q"), _integer(n, "length n")
    K = _integer(K, "threshold K")
    if q < 2 or n < 1 or K < 1:
        raise ValueError(f"need q >= 2, n >= 1, K >= 1; got q={q}, n={n}, K={K}")
    _check_alphabet(q)
    _require_space(q, n, max_space)
    halves = range(K, n // 2 + 1)
    count = 0
    for lo in range(0, q**n, _SHARD):
        hi = min(lo + _SHARD, q**n)
        mat = _digit_matrix(q, n, lo, hi)
        count += int(_square_mask(mat, halves).sum())
    bound = Fraction(n * q ** (n + 1), q**K)
    if count > bound:
        raise VerificationError(
            f"bad-word count {count} exceeds the bound {float(bound)} "
            f"for q={q}, n={n}, K={K}"
        )
    return BadWordReport(q=q, n=n, K=K, count=count, bound=bound)


@dataclass(frozen=True)
class Code0Report:
    q: int
    length: int
    K: int
    count: int
    bound: Fraction
    words: tuple[Word, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "q": self.q,
            "length": self.length,
            "K": self.K,
            "count": self.count,
            "bound": float(self.bound),
            "holds": self.count >= self.bound,
        }
        if self.words is not None:
            out["words"] = [format_word(w, self.q) for w in self.words]
        return out


def enumerate_code0(
    q: int,
    length: int,
    K: int,
    want_words: bool = False,
    max_space: int | None = None,
) -> Code0Report:
    """Count (optionally list) the length-`length` words with no square of
    half-length >= K, and compare against the lower bound
    q**length * (1 - (length-1) * q**(1-K))."""
    q, length = _integer(q, "alphabet size q"), _integer(length, "length")
    K = _integer(K, "threshold K")
    if q < 2 or length < 1 or K < 1:
        raise ValueError(f"need q >= 2, length >= 1, K >= 1; got q={q}, length={length}, K={K}")
    _check_alphabet(q)
    _require_space(q, length, max_space)
    halves = range(K, length // 2 + 1)
    count = 0
    words: list[Word] | None = [] if want_words else None
    for lo in range(0, q**length, _SHARD):
        hi = min(lo + _SHARD, q**length)
        mat = _digit_matrix(q, length, lo, hi)
        good = ~_square_mask(mat, halves)
        count += int(good.sum())
        if words is not None:
            for row in mat[good]:
                words.append(tuple(row.tobytes()))
    n = length - 1
    bound = Fraction(q**length) - Fraction(n * q ** (length + 1), q**K)
    return Code0Report(
        q=q,
        length=length,
        K=K,
        count=count,
        bound=bound,
        words=tuple(words) if words is not None else None,
    )


@dataclass(frozen=True)
class BallEntry:
    l: int
    eligible_words: int
    images: int
    collisions: tuple[tuple[Word, Word, Word], ...]


@dataclass(frozen=True)
class BallReport:
    q: int
    n: int
    entries: tuple[BallEntry, ...]

    @property
    def collisions(self) -> tuple[tuple[Word, Word, Word], ...]:
        return tuple(c for e in self.entries for c in e.collisions)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "entries": [
                {
                    "l": e.l,
                    "eligible_words": e.eligible_words,
                    "images": e.images,
                    "collisions": [
                        [format_word(a, self.q), format_word(b, self.q), format_word(y, self.q)]
                        for a, b, y in e.collisions
                    ],
                }
                for e in self.entries
            ],
            "disjoint": not self.collisions,
        }


def verify_ball_disjointness(
    q: int, n: int, l_set: Sequence[int], max_space: int | None = None
) -> BallReport:
    """Exhaustive single-duplication ball disjointness check.

    For each half-length l, every length-n word free of length-l
    duplications is corrupted at every offset; two distinct words mapping
    to the same image would break unique decodability and are reported as
    witnesses (none are expected).
    """
    q, n = _integer(q, "alphabet size q"), _integer(n, "length n")
    if q < 2 or n < 1:
        raise ValueError(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    _check_alphabet(q)
    _require_space(q, n, max_space)
    entries = []
    for l in sorted(set(_integer(v, "half-length l") for v in l_set)):
        if l < 1:
            raise ValueError(f"half-length {l} must be >= 1")
        seen: dict[bytes, bytes] = {}
        collisions: list[tuple[Word, Word, Word]] = []
        eligible = 0
        for lo in range(0, q**n, _SHARD):
            hi = min(lo + _SHARD, q**n)
            mat = _digit_matrix(q, n, lo, hi)
            free = ~_square_mask(mat, [l]) if 2 * l <= n else np.ones(hi - lo, dtype=bool)
            for row in mat[free]:
                x = row.tobytes()  # the word, packed as the codec packs it
                eligible += 1
                for i in range(0, n - l + 1):
                    y = _duplicate(x, i, l)
                    prev = seen.get(y)
                    if prev is None:
                        seen[y] = x
                    elif prev != x:
                        collisions.append((tuple(prev), tuple(x), tuple(y)))
        entries.append(
            BallEntry(
                l=l,
                eligible_words=eligible,
                images=len(seen),
                collisions=tuple(collisions),
            )
        )
    return BallReport(q=q, n=n, entries=tuple(entries))


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50": 0.0, "p90": 0.0, "max": 0.0}
    s = sorted(samples)
    return {
        "p50": s[len(s) // 2],
        "p90": s[min(len(s) - 1, (len(s) * 9) // 10)],
        "max": s[-1],
    }


@dataclass(frozen=True)
class RoundtripReport:
    q: int
    n: int
    trials: int
    sweep: bool
    corruptions_checked: int
    encode_ms: dict = field(default_factory=dict)
    decode_ms: dict = field(default_factory=dict)
    correct_ms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "trials": self.trials,
            "sweep": self.sweep,
            "corruptions_checked": self.corruptions_checked,
            "encode_ms": self.encode_ms,
            "decode_ms": self.decode_ms,
            "correct_ms": self.correct_ms,
        }


def roundtrip_suite(
    q: int, n: int, trials: int, seed: int, sweep: bool = False
) -> RoundtripReport:
    """Randomized encode/corrupt/correct/decode battery.

    Each trial encodes a fresh uniform message, checks the codeword length
    and duplication-freeness, then inverts either every valid (i, l)
    corruption with l >= K (sweep=True) or three random ones. The first
    failure aborts with the witness message serialized in the error.
    """
    params = derive_params(q, n)
    K = params.K
    trials = _integer(trials, "trials")
    rng = random.Random(_integer(seed, "seed"))
    enc_t: list[float] = []
    dec_t: list[float] = []
    cor_t: list[float] = []
    checked = 0
    for trial in range(trials):
        x = tuple(rng.randrange(q) for _ in range(n))
        witness = f"trial={trial} q={q} n={n} seed={seed} x={format_word(x, q)}"
        t0 = time.perf_counter()
        y = codec.encode(x, params)
        enc_t.append((time.perf_counter() - t0) * 1e3)
        if len(y) != n + 1:
            raise VerificationError(f"codeword length {len(y)} != {n + 1} [{witness}]")
        if not is_dup_free(y, K):
            raise VerificationError(f"codeword contains a long square [{witness}]")
        t0 = time.perf_counter()
        back = codec.decode(y, params)
        dec_t.append((time.perf_counter() - t0) * 1e3)
        if back != x:
            raise VerificationError(f"decode(encode(x)) != x [{witness}]")
        if sweep:
            pairs = [
                (i, l)
                for l in range(K, n + 2)
                for i in range(0, n + 2 - l)
            ]
        else:
            pairs = []
            for _ in range(3):
                if K > n + 1:
                    break
                l = rng.randint(K, n + 1)
                pairs.append((rng.randint(0, n + 1 - l), l))
        for i, l in pairs:
            corrupted = apply_duplication(y, i, l)
            t0 = time.perf_counter()
            fixed = codec.correct(corrupted, params)
            cor_t.append((time.perf_counter() - t0) * 1e3)
            if fixed != y:
                raise VerificationError(f"correct failed for (i={i}, l={l}) [{witness}]")
            if codec.decode(fixed, params) != x:
                raise VerificationError(f"decode after correct failed for (i={i}, l={l}) [{witness}]")
            checked += 1
    return RoundtripReport(
        q=q,
        n=n,
        trials=trials,
        sweep=sweep,
        corruptions_checked=checked,
        encode_ms=_percentiles(enc_t),
        decode_ms=_percentiles(dec_t),
        correct_ms=_percentiles(cor_t),
    )


@dataclass(frozen=True)
class ConverseReport:
    q: int
    n: int
    c: float
    l: float
    eta_lower_bound: float
    exceeds_one: bool

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "c": self.c,
            "l": self.l,
            "eta_lower_bound": self.eta_lower_bound,
            "exceeds_one": self.exceeds_one,
        }


def converse_gap(q: int, n: int, c: float) -> ConverseReport:
    """Redundancy floor when the guaranteed half-length drops to log_q(n) - c.

    Any code of length n correcting all duplications of length
    l = log_q(n) - c needs redundancy at least log_q(n) - l - 1 = c - 1
    symbols, which exceeds 1 as soon as c > 2: a single redundancy symbol
    cannot reach such short duplications.
    """
    q, n = _integer(q, "alphabet size q"), _integer(n, "length n")
    if q < 2 or n < 2:
        raise ValueError("need q >= 2 and n >= 2")
    if not isfinite(c) or c <= 0:
        raise ValueError(f"c must be positive and finite, got {c}")
    logq_n = log(n) / log(q)
    l = logq_n - c
    eta = c - 1
    return ConverseReport(q=q, n=n, c=float(c), l=l, eta_lower_bound=eta, exceeds_one=eta > 1)
