"""Tandem duplication channel: apply one duplication, chosen or random."""

from __future__ import annotations

import random
from typing import Sequence

from .core import (
    MAX_ALPHABET,
    CodeParams,
    Duplication,
    Word,
    _as_word,
    _check_params,
    _integer,
    _set,
    _Value,
    check_word,
)


class ChannelSpec(_Value):
    """Seeded single-duplication channel configuration.

    l_min defaults to the code threshold K, l_max to the word length.
    The generator is Python's Mersenne Twister (random.Random), so a seed
    fully determines the draw sequence on every platform. Each field must
    be an integer (l_min and l_max may be None); anything else raises
    ValueError.
    """

    __slots__ = __match_args__ = ("seed", "l_min", "l_max")
    seed: int
    l_min: int | None
    l_max: int | None

    def __init__(self, seed: int, l_min: int | None = None, l_max: int | None = None) -> None:
        _set(self, "seed", _integer(seed, "seed"))
        _set(self, "l_min", None if l_min is None else _integer(l_min, "l_min"))
        _set(self, "l_max", None if l_max is None else _integer(l_max, "l_max"))


def _duplicate(w: bytes, i: int, l: int) -> bytes:
    if l < 1:
        raise ValueError(f"duplication length must be >= 1, got {l}")
    if i < 0 or i + l > len(w):
        raise ValueError(
            f"duplication (i={i}, l={l}) does not fit in a word of length {len(w)}"
        )
    return w[: i + l] + w[i : i + l] + w[i + l :]


def apply_duplication(w: Sequence[int], i: int, l: int) -> Word:
    """Repeat the l symbols starting at offset i, in place: uvw -> uvvw.

    Symbols must lie in 0..255; MalformedWordError names the first one
    that does not. ValueError when i or l is not an integer, or the
    duplication does not fit.
    """
    i, l = _integer(i, "offset i"), _integer(l, "length l")
    return _as_word(_duplicate(check_word(w, MAX_ALPHABET), i, l))


class DuplicationChannel:
    """Draws duplications with persistent generator state across calls."""

    def __init__(self, spec: ChannelSpec, params: CodeParams):
        _check_params(params)
        self.spec = spec
        self.params = params
        self._rng = random.Random(spec.seed)

    def corrupt(self, w: Sequence[int]) -> tuple[Word, Duplication]:
        z, dup = self._draw(w)
        return _as_word(z), dup

    def _draw(self, w: Sequence[int]) -> tuple[bytes, Duplication]:
        """corrupt with the corrupted word as bytes."""
        w = check_word(w, self.params.q)
        l_lo = self.spec.l_min if self.spec.l_min is not None else self.params.K
        l_hi = self.spec.l_max if self.spec.l_max is not None else len(w)
        l_hi = min(l_hi, len(w))
        if l_lo < 1 or l_lo > l_hi:
            raise ValueError(
                f"no admissible duplication length: need {l_lo} <= l <= {l_hi} "
                f"for a word of length {len(w)}"
            )
        l = self._rng.randint(l_lo, l_hi)
        i = self._rng.randint(0, len(w) - l)
        return _duplicate(w, i, l), Duplication(i, l)


def random_duplication(
    w: Sequence[int], spec: ChannelSpec, params: CodeParams
) -> tuple[Word, Duplication]:
    """One-shot seeded corruption: a fresh generator per call, so the same
    spec and word always produce the same duplication."""
    return DuplicationChannel(spec, params).corrupt(w)
