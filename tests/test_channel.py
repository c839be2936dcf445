"""Duplication application and the seeded random channel."""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dupcode.channel import ChannelSpec, DuplicationChannel, apply_duplication, random_duplication
from dupcode.core import derive_params


def test_apply_duplication_examples():
    x = (0, 0, 1, 2, 3, 3, 1, 2)
    assert apply_duplication(x, 2, 2) == (0, 0, 1, 2, 1, 2, 3, 3, 1, 2)
    assert apply_duplication(x, 4, 2) == (0, 0, 1, 2, 3, 3, 3, 3, 1, 2)
    assert apply_duplication((7,), 0, 1) == (7, 7)


def test_apply_duplication_validates():
    with pytest.raises(ValueError):
        apply_duplication((0, 1), 1, 2)  # sticks out on the right
    with pytest.raises(ValueError):
        apply_duplication((0, 1), -1, 1)
    with pytest.raises(ValueError):
        apply_duplication((0, 1), 0, 0)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=30),
    st.data(),
)
def test_apply_duplication_shape(word, data):
    w = tuple(word)
    l = data.draw(st.integers(1, len(w)), label="l")
    i = data.draw(st.integers(0, len(w) - l), label="i")
    out = apply_duplication(w, i, l)
    assert len(out) == len(w) + l
    assert out[: i + l] == w[: i + l]
    assert out[i + l : i + 2 * l] == w[i : i + l]
    assert out[i + 2 * l :] == w[i + l :]


def test_channel_is_deterministic_per_seed():
    params = derive_params(16, 16)
    w = tuple(range(16)) + (0,)
    a = DuplicationChannel(ChannelSpec(seed=5), params)
    b = DuplicationChannel(ChannelSpec(seed=5), params)
    seq_a = [a.corrupt(w) for _ in range(10)]
    seq_b = [b.corrupt(w) for _ in range(10)]
    assert seq_a == seq_b
    c = DuplicationChannel(ChannelSpec(seed=6), params)
    assert [c.corrupt(w) for _ in range(10)] != seq_a


def test_one_shot_matches_fresh_channel():
    params = derive_params(16, 16)
    w = tuple(range(16)) + (3,)
    spec = ChannelSpec(seed=123)
    assert random_duplication(w, spec, params) == DuplicationChannel(spec, params).corrupt(w)


def test_length_bounds_respected():
    params = derive_params(16, 16)  # K = 5
    w = tuple(range(16)) + (0,)
    chan = DuplicationChannel(ChannelSpec(seed=0, l_min=6, l_max=7), params)
    for _ in range(50):
        out, dup = chan.corrupt(w)
        assert 6 <= dup.l <= 7
        assert len(out) == len(w) + dup.l
        assert out == apply_duplication(w, dup.i, dup.l)


def test_default_lengths_span_K_to_len():
    params = derive_params(16, 16)
    w = tuple(range(16)) + (0,)
    chan = DuplicationChannel(ChannelSpec(seed=2), params)
    lengths = {chan.corrupt(w)[1].l for _ in range(400)}
    assert min(lengths) >= params.K
    assert max(lengths) <= len(w)
    assert params.K in lengths and len(w) in lengths


def test_empty_length_range_is_an_error():
    params = derive_params(4, 7)  # K = 9 > n+1 = 8: no long duplication fits
    chan = DuplicationChannel(ChannelSpec(seed=0), params)
    with pytest.raises(ValueError):
        chan.corrupt((0,) * 8)


def test_offset_distribution_is_roughly_uniform():
    """For fixed l, offsets are uniform on 0..len(w)-l; a chi-square score
    across the 13 offset bins should sit well inside the tail bound
    (seeded, so this is deterministic, merely sanity-checking the wiring)."""
    params = derive_params(16, 16)
    w = tuple(range(16)) + (1,)
    l = 5
    chan = DuplicationChannel(ChannelSpec(seed=11, l_min=l, l_max=l), params)
    bins = len(w) - l + 1
    draws = 2600
    counts = Counter(chan.corrupt(w)[1].i for _ in range(draws))
    assert set(counts) <= set(range(bins))
    expected = draws / bins
    chi2 = sum((counts.get(b, 0) - expected) ** 2 / expected for b in range(bins))
    # df = 12 - generous ceiling ~ df + 5*sqrt(2*df)
    df = bins - 1
    assert chi2 < df + 5 * math.sqrt(2 * df)


@pytest.mark.parametrize("params", ["x", None, 3])
def test_params_that_are_not_code_params_are_refused(params):
    message = f"^params must be a CodeParams, got {type(params).__name__}$"
    with pytest.raises(ValueError, match=message):
        DuplicationChannel(ChannelSpec(seed=1), params)
    with pytest.raises(ValueError, match=message):
        random_duplication((0, 1, 2, 3), ChannelSpec(seed=1), params)
