"""Single-symbol-redundancy codes correcting one long tandem duplication.

A message of n base-q symbols is encoded into n+1 symbols whose content is
free of tandem repeats with half-length >= K = 4*ceil(log_q(n)) + 1; a single
duplication of any length >= K can then be located and removed uniquely.
"""

from importlib import import_module

from .channel import ChannelSpec, DuplicationChannel, apply_duplication, random_duplication
from .codec import correct, correct_with_position, decode, encode, encode_with_trace, is_codeword
from .core import (
    CodeParams,
    DupcodeError,
    GuardExceededError,
    InternalDefectError,
    MalformedCodewordError,
    MalformedWordError,
    VerificationError,
    Word,
    derive_params,
    format_word,
    parse_word,
)
from .repeats import Duplication, find_leftmost_long, is_dup_free
from .seqword import EditableWord

__version__ = "0.1.0"

# The brute-force checkers (numpy) and the window index (needed only once an
# encode finds a long square) are imported on first access (PEP 562), so
# `import dupcode` and the decode and channel paths load neither, nor numpy.
_LAZY = {
    "BadWordReport": "analysis",
    "BallReport": "analysis",
    "Code0Report": "analysis",
    "ConverseReport": "analysis",
    "RoundtripReport": "analysis",
    "converse_gap": "analysis",
    "count_bad_words": "analysis",
    "enumerate_code0": "analysis",
    "roundtrip_suite": "analysis",
    "verify_ball_disjointness": "analysis",
    "WindowIndex": "windows",
}

__all__ = [
    "BadWordReport",
    "BallReport",
    "ChannelSpec",
    "Code0Report",
    "CodeParams",
    "ConverseReport",
    "Duplication",
    "DupcodeError",
    "DuplicationChannel",
    "EditableWord",
    "GuardExceededError",
    "InternalDefectError",
    "MalformedCodewordError",
    "MalformedWordError",
    "RoundtripReport",
    "VerificationError",
    "WindowIndex",
    "Word",
    "apply_duplication",
    "converse_gap",
    "correct",
    "correct_with_position",
    "count_bad_words",
    "decode",
    "derive_params",
    "encode",
    "encode_with_trace",
    "enumerate_code0",
    "find_leftmost_long",
    "format_word",
    "is_codeword",
    "is_dup_free",
    "parse_word",
    "random_duplication",
    "roundtrip_suite",
    "verify_ball_disjointness",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
