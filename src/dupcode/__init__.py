"""Single-symbol-redundancy codes correcting one long tandem duplication.

A message of n base-q symbols is encoded into n+1 symbols whose content is
free of tandem repeats with half-length >= K = 4*ceil(log_q(n)) + 1; a single
duplication of any length >= K can then be located and removed uniquely.
"""

from importlib import import_module

__version__ = "0.1.0"

# `import dupcode` imports no submodule. Each public name is imported from
# its module below on first access (PEP 562) and kept in this module's
# globals; each of those modules is an attribute too (dupcode.codec). So a
# process compiles only the modules its calls run: a decode loads core and
# codec, and seqword once it replays a block; encode and correct add the
# square search (repeats); the brute-force checkers load analysis and numpy;
# the window index loads once an encode finds a long square.
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
    "ChannelSpec": "channel",
    "DuplicationChannel": "channel",
    "apply_duplication": "channel",
    "random_duplication": "channel",
    "correct": "codec",
    "correct_with_position": "codec",
    "decode": "codec",
    "encode": "codec",
    "encode_with_trace": "codec",
    "is_codeword": "codec",
    "CodeParams": "core",
    "DupcodeError": "core",
    "Duplication": "core",
    "GuardExceededError": "core",
    "InternalDefectError": "core",
    "MalformedCodewordError": "core",
    "MalformedWordError": "core",
    "VerificationError": "core",
    "Word": "core",
    "derive_params": "core",
    "format_word": "core",
    "parse_word": "core",
    "find_leftmost_long": "repeats",
    "is_dup_free": "repeats",
    "EditableWord": "seqword",
    "WindowIndex": "windows",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        if name in _LAZY.values():
            return import_module(f".{name}", __name__)  # the import binds it as an attribute
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
