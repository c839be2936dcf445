"""Outside-in span recording for the traced benchmark run.

dupcode has no tracing of its own, so the traced run replaces its public
functions with timing wrappers, each under the name its caller looks up.
codec imports find_leftmost_long, is_dup_free, check_word, to_digits and
from_digits by name, so those names are wrapped in dupcode.codec; the
find_leftmost_long call inside repeats.is_dup_free stays unwrapped and is
counted once, as is_dup_free time. The untraced run installs nothing.

A span is [name, start, end, parent, message, count]: times come from
time.perf_counter (CLOCK_MONOTONIC on Linux, so spans written by CLI
child processes line up with the parent's), parent is the index of the
enclosing span or -1, and count is the work the call was asked to do
(symbols edited, moved or scanned) where the layer has such a measure.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Sequence

NAME, START, END, PARENT, MSG, COUNT = range(6)


class Recorder:
    """Holds the spans of one process in memory until they are written out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.msg: str | None = None

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.msg, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, out)
            return out

        return traced

    def add(self, name: str, start: float, end: float, parent: int, msg: str | None) -> int:
        """Record a span measured by the caller; returns its index."""
        self.spans.append([name, start, end, parent, msg, 0])
        return len(self.spans) - 1

    def extend(self, spans: Iterable[Sequence], parent: int, msg: str | None) -> None:
        """Adopt spans written by a child process, re-rooted under parent."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(
                [s[NAME], s[START], s[END], parent if s[PARENT] < 0 else base + s[PARENT], msg, s[COUNT]]
            )

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def _len_arg(k: int) -> Callable:
    return lambda args, out: len(args[k])


def _range_args(args, out) -> int:
    return args[-1] - args[-2]


# Counts per EditableWord method: symbols copied into or out of the tree.
_SEQWORD_COUNTS = {
    "from_word": _len_arg(1),
    "insert": _len_arg(2),
    "delete_range": _range_args,
    "slice": _range_args,
    "to_word": lambda args, out: len(out),
    "get": lambda args, out: 1,
}


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap dupcode's layer entry points with rec; returns the undo function."""
    import dupcode.channel as channel
    import dupcode.cli as cli
    import dupcode.codec as codec
    import dupcode.core as core
    from dupcode.seqword import EditableWord
    from dupcode.windows import WindowIndex

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, count: Callable | None = None) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(rec.wrap(raw.__func__, name, count))
        else:
            new = rec.wrap(raw, name, count)
        undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    for attr in ("encode", "decode"):
        patch(codec, attr, f"codec.{attr}")
    patch(codec, "correct", "codec.correct")
    patch(codec, "correct_with_position", "codec.correct")
    patch(codec, "find_leftmost_long", "repeats.find_leftmost_long", _len_arg(0))
    patch(codec, "is_dup_free", "repeats.is_dup_free")
    patch(codec, "to_digits", "core.digits")
    patch(codec, "from_digits", "core.digits")
    for owner in (codec, core, channel):
        patch(owner, "check_word", "core.check_word")
    patch(core, "parse_word", "core.parse_word")
    patch(core, "format_word", "core.format_word")
    patch(cli, "main", "cli.main")
    patch(channel.DuplicationChannel, "corrupt", "channel.corrupt")
    patch(WindowIndex, "build", "windows.build")
    patch(WindowIndex, "apply_append", "windows.update", _len_arg(2))
    patch(WindowIndex, "apply_delete", "windows.update", _range_args)
    patch(WindowIndex, "find_absent", "windows.find_absent")
    # Public methods only: the methods call len(self), and a wrapped
    # __len__ would count the layer's calls to itself as operations.
    for attr, raw in list(vars(EditableWord).items()):
        if not attr.startswith("_") and (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
            patch(EditableWord, attr, "seqword", _SEQWORD_COUNTS.get(attr))

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process are strictly nested, so the children of a span
    never overlap and their durations can simply be subtracted.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


# (per-layer metric, span name): self seconds, calls or counts summed per message.
SELF_METRICS = [
    ("windows.build.self_s", "windows.build"),
    ("windows.update.self_s", "windows.update"),
    ("windows.find_absent.self_s", "windows.find_absent"),
    ("seqword.self_s", "seqword"),
    ("repeats.find_leftmost_long.self_s", "repeats.find_leftmost_long"),
    ("repeats.is_dup_free.self_s", "repeats.is_dup_free"),
    ("core.check_word.self_s", "core.check_word"),
    ("core.parse_word.self_s", "core.parse_word"),
    ("core.format_word.self_s", "core.format_word"),
    ("cli.main.self_s", "cli.main"),
    ("core.digits.self_s", "core.digits"),
    ("codec.encode.self_s", "codec.encode"),
    ("codec.decode.self_s", "codec.decode"),
    ("codec.correct.self_s", "codec.correct"),
    ("channel.corrupt.self_s", "channel.corrupt"),
]
CALL_METRICS = [
    ("windows.find_absent.calls", "windows.find_absent"),
    ("seqword.ops", "seqword"),
    ("repeats.find_leftmost_long.calls", "repeats.find_leftmost_long"),
    ("core.check_word.calls", "core.check_word"),
]
COUNT_METRICS = [
    ("windows.symbols_edited", "windows.update"),
    ("seqword.symbols_moved", "seqword"),
    ("repeats.scan_symbols", "repeats.find_leftmost_long"),
]


def per_message(spans: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """Per message id: self time, calls, counts and inclusive time by span name."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, selfs):
        row = table[s[MSG]]
        row[s[NAME] + ":self"] += own
        row[s[NAME] + ":calls"] += 1
        row[s[NAME] + ":count"] += s[COUNT]
        row[s[NAME] + ":total"] += s[END] - s[START]
    return table


def layer_metrics(spans: Sequence[Sequence], msgs: Sequence[str]) -> dict[str, float]:
    """Per-layer metrics as medians over msgs; an idle layer reads 0."""
    table = per_message(spans)
    rows = [table.get(m, {}) for m in msgs]

    def med(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in rows)

    out = {metric: med(name + ":self") for metric, name in SELF_METRICS}
    out.update({metric: med(name + ":calls") for metric, name in CALL_METRICS})
    out.update({metric: med(name + ":count") for metric, name in COUNT_METRICS})
    # Every encode call makes one search before its first iteration.
    out["codec.encode.iterations"] = statistics.median(
        r.get("repeats.find_leftmost_long:calls", 0.0) - r.get("codec.encode:calls", 0.0)
        for r in rows
    )
    wanted = set(msgs)
    startups = [s[END] - s[START] for s in spans if s[NAME] == "cli.startup" and s[MSG] in wanted]
    out["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    return out


def load(path) -> list[list]:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


_STAGE_SPANS = {"codec.encode": "encode", "codec.correct": "correct", "codec.decode": "decode", "channel.corrupt": "corrupt"}


def stage_shares(spans: Sequence[Sequence], msgs: Sequence[str]) -> dict[str, dict[str, float]]:
    """Share of each stage's self time taken by each layer, over msgs.

    A span belongs to the stage of its root span, named after the codec or
    channel call under that root (a CLI process has exactly one). The layer
    is the first part of the span name; `cli` covers start-up, `cli.main`
    and the process's own teardown.
    """
    wanted = set(msgs)
    root = list(range(len(spans)))
    stage_of: dict[int, str] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            root[i] = root[s[PARENT]]  # a parent is always recorded before its children
        if s[NAME] in _STAGE_SPANS:
            stage_of.setdefault(root[i], _STAGE_SPANS[s[NAME]])
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if s[MSG] in wanted and root[i] in stage_of:
            totals[stage_of[root[i]]][s[NAME].split(".")[0]] += own
    return {
        stage: {layer: t / sum(layers.values()) for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])}
        for stage, layers in totals.items()
    }
