"""Acceptance gate: one test per criterion, one printed verdict line each.

Verdict lines are emitted with capture suspended so they stay visible in
plain `pytest -v` output. Every criterion is zero-tolerance on
correctness; the timing criterion (8) asserts its stated wall-clock
envelope and prints the measured numbers either way.
"""

import itertools
import random
import statistics
import time

import pytest

from dupcode import analysis, codec
from dupcode.channel import apply_duplication
from dupcode.core import CodeParams, derive_params
from dupcode.repeats import find_leftmost_long, is_dup_free
from dupcode.seqword import EditableWord
from dupcode.windows import WindowIndex

from oracles import naive_leftmost, tally_find_absent, window_tally

SEED = 20260815
CORPUS_SHAPES = [(2, 64), (4, 64), (16, 16), (2, 1024)]
CORPUS_SIZE = 10_000


@pytest.fixture
def report(capfd):
    def _report(line: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        msg = f"[{tag}] {line}" + (f" ({detail})" if detail else "")
        with capfd.disabled():
            print("\n" + msg, flush=True)
        assert ok, msg

    return _report


@pytest.fixture(scope="session")
def corpora():
    """10^4 seeded messages and their codewords per (q, n) shape."""
    rng = random.Random(SEED)
    out = {}
    t0 = time.perf_counter()
    for q, n in CORPUS_SHAPES:
        params = derive_params(q, n)
        messages = [bytes(rng.randrange(q) for _ in range(n)) for _ in range(CORPUS_SIZE)]
        codewords = [codec.encode(x, params) for x in messages]
        out[(q, n)] = (params, messages, codewords)
    out["build_seconds"] = time.perf_counter() - t0
    return out


def test_criterion_1_codeword_length_and_freeness(corpora, report):
    t0 = time.perf_counter()
    bad = 0
    for q, n in CORPUS_SHAPES:
        params, _, codewords = corpora[(q, n)]
        for y in codewords:
            if len(y) != n + 1 or not is_dup_free(y, params.K):
                bad += 1
    took = corpora["build_seconds"] + time.perf_counter() - t0
    report(
        f"criterion 1: every codeword has length n+1 and no square of half-length >= K "
        f"on {len(CORPUS_SHAPES)}x{CORPUS_SIZE} random messages",
        bad == 0,
        f"encode+check {took:.1f}s",
    )


def test_criterion_2_injectivity(corpora, report):
    mismatches = 0
    for q, n in CORPUS_SHAPES:
        params, messages, codewords = corpora[(q, n)]
        for x, y in zip(messages, codewords):
            if codec.decode(y, params) != x:
                mismatches += 1
    # exhaustive over the full message space at two small shapes
    exhaustive = 0
    for q, n in [(2, 10), (3, 6)]:
        params = derive_params(q, n)
        for digits in itertools.product(range(q), repeat=n):
            if codec.decode(codec.encode(digits, params), params) != bytes(digits):
                mismatches += 1
            exhaustive += 1
    report(
        f"criterion 2: decode(encode(x)) = x on the shared corpus and exhaustively "
        f"over {exhaustive} short messages",
        mismatches == 0,
    )


def test_criterion_3_single_duplication_correction(report):
    q, n = 16, 16
    params = derive_params(q, n)
    rng = random.Random(SEED + 3)
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for _ in range(1000):
        x = bytes(rng.randrange(q) for _ in range(n))
        y = codec.encode(x, params)
        for l in range(params.K, n + 2):
            for i in range(0, n + 2 - l):
                z = apply_duplication(y, i, l)
                fixed = codec.correct(z, params)
                if fixed != y or codec.decode(fixed, params) != x:
                    failures += 1
                checked += 1
    took = time.perf_counter() - t0
    report(
        f"criterion 3: correct() inverts all {checked} valid corruptions "
        f"of 1000 random (q=16, n=16) codewords",
        failures == 0,
        f"{took:.1f}s",
    )


def test_criterion_4_image_map_has_no_collisions(report):
    total_collisions = 0
    images = 0
    for n in range(2, 11):
        rep = analysis.verify_ball_disjointness(2, n, list(range(1, n // 2 + 1)))
        total_collisions += len(rep.collisions)
        images += sum(e.images for e in rep.entries)
    report(
        f"criterion 4: exhaustive duplication images are collision-free for q=2, "
        f"n <= 10, every l <= n/2 ({images} images)",
        total_collisions == 0,
    )


GRID = [(2, n, K) for n in range(4, 17) for K in range(1, 7)] + [
    (3, n, K) for n in range(4, 11) for K in range(1, 5)
]


def test_criterion_5_bad_word_bound(report):
    t0 = time.perf_counter()
    reports = [analysis.count_bad_words(q, n, K) for q, n, K in GRID]
    violations = [(r.q, r.n, r.K) for r in reports if r.count > r.bound]
    anchors_ok = (
        analysis.count_bad_words(2, 3, 1).count == 6
        and analysis.count_bad_words(2, 4, 1).count == 16
    )
    took = time.perf_counter() - t0
    report(
        f"criterion 5: exact bad-word counts stay under n*q^(n+1-K) at {len(GRID)} "
        f"grid points, anchors (2,3,1)=6 and (2,4,1)=16",
        not violations and anchors_ok,
        f"{took:.1f}s",
    )


def test_criterion_6_code0_lower_bound(report):
    violations = []
    for q, n, K in GRID:
        rep = analysis.enumerate_code0(q, n + 1, K)
        if rep.count < rep.bound:
            violations.append((q, n, K))
    anchor = analysis.enumerate_code0(2, 3, 1).count == 2
    report(
        f"criterion 6: duplication-free counts meet q^(n+1)(1 - n*q^(1-K)) at "
        f"{len(GRID)} grid points, anchor (q=2, len=3, K=1) = 2",
        not violations and anchor,
    )


def _windows_battery(ops: int) -> bool:
    params = CodeParams(q=4, n=2, L=3, K=13)
    rng = random.Random(SEED + 7)
    word: list[int] = [rng.randrange(4) for _ in range(50)]
    idx = WindowIndex.build(word, params)
    for step in range(ops):
        if rng.random() < 0.55 or len(word) < 6:
            suffix = [rng.randrange(4) for _ in range(rng.randint(1, 3))]
            idx.apply_append(word, suffix)
            word += suffix
        else:
            a = rng.randint(0, len(word))
            b = rng.randint(a, min(len(word), a + 4))
            idx.apply_delete(word, a, b)
            del word[a:b]
        if len(word) > 3000:
            idx.apply_delete(word, 0, 2000)
            del word[:2000]
        if idx.root_count != max(0, len(word) - params.L + 1):
            return False
        if step % 1000 == 0:
            if step % 2000 and step < ops // 2:
                # 40 symbols leave some 3-word absent, so the lookup below
                # meets the oracle; the second half grows past the trim at 3000
                cut = max(0, len(word) - 40)
                idx.apply_delete(word, 0, cut)
                del word[:cut]
            tally = window_tally(tuple(word), params.L)
            if any(idx.window_count(w) != c for w, c in tally.items()):
                return False
            if len(tally) < 4**3:
                if idx.find_absent() != bytes(tally_find_absent(tally, 4, 3)):
                    return False
            else:
                try:
                    idx.find_absent()
                    return False
                except ValueError:
                    pass
            idx.audit(word)
    tally = window_tally(tuple(word), params.L)
    full = {
        w: idx.window_count(w)
        for w in itertools.product(range(4), repeat=3)
        if idx.window_count(w)
    }
    return full == dict(tally)


def _seqword_battery(ops: int) -> bool:
    rng = random.Random(SEED + 8)
    model: list[int] = []
    tree = EditableWord.from_word(())
    for step in range(ops):
        roll = rng.random()
        m = len(model)
        if roll < 0.5 or m == 0:
            at = rng.randint(0, m)
            chunk = [rng.randrange(16) for _ in range(rng.randint(1, 4))]
            model[at:at] = chunk
            tree.insert(at, tuple(chunk))
        elif roll < 0.8:
            a = rng.randint(0, m)
            b = rng.randint(a, min(m, a + 5))
            if tree.delete_range(a, b) != bytes(model[a:b]):
                return False
            del model[a:b]
        elif roll < 0.95:
            at = rng.randrange(m)
            if tree.get(at) != model[at]:
                return False
        else:
            k = rng.randint(0, m)
            left, right = tree.split(k)
            tree = EditableWord.join(left, right)
        if len(model) > 5000:
            del model[:3000]
            tree.delete_range(0, 3000)
        if step % 4000 == 0:
            tree.audit()
            if tree.to_word() != bytes(model):
                return False
    return tree.to_word() == bytes(model)


def _repeats_battery() -> bool:
    for m in range(0, 15):
        for bits in itertools.product((0, 1), repeat=m):
            for K in (1, 2, 3, 4, 7):
                got = find_leftmost_long(bits, K)
                want = naive_leftmost(bits, K)
                if (None if got is None else (got.i, got.l)) != want:
                    return False
    rng = random.Random(SEED + 9)
    for trial in range(1000):
        q = (2, 4, 16)[trial % 3]
        m = rng.randint(0, 300)
        w = tuple(rng.randrange(q) for _ in range(m))
        K = rng.randint(1, 9)
        got = find_leftmost_long(w, K)
        want = naive_leftmost(w, K)
        if (None if got is None else (got.i, got.l)) != want:
            return False
    return True


def test_criterion_7_data_structure_oracles(report):
    t0 = time.perf_counter()
    windows_ok = _windows_battery(100_000)
    seqword_ok = _seqword_battery(100_000)
    repeats_ok = _repeats_battery()
    took = time.perf_counter() - t0
    report(
        "criterion 7: window index vs tally and buffer vs list after 10^5 ops each; square "
        "scanner vs naive on all binary words <= 14 and 1000 random words <= 300",
        windows_ok and seqword_ok and repeats_ok,
        f"windows={windows_ok} seqword={seqword_ok} repeats={repeats_ok}, {took:.1f}s",
    )


def test_criterion_8_wall_clock_envelope(report):
    # adversarial all-zeros encode at (q=4, n=10^5)
    params = derive_params(4, 100_000)
    zeros = bytes(100_000)
    t0 = time.perf_counter()
    y = codec.encode(zeros, params)
    encode_s = time.perf_counter() - t0
    assert codec.decode(y, params) == zeros

    # decode growth when n doubles, median of 20 runs on all-zeros codewords;
    # the two sizes alternate, so a slow spell on the host hits both alike
    sizes = (1 << 16, 1 << 17)
    cases = {}
    for n in sizes:
        p = derive_params(4, n)
        cases[n] = (codec.encode((0,) * n, p), p)
    runs = {n: [] for n in sizes}
    for _ in range(20):
        for n in sizes:
            yw, p = cases[n]
            t0 = time.perf_counter()
            codec.decode(yw, p)
            runs[n].append(time.perf_counter() - t0)
    ratio = statistics.median(runs[1 << 17]) / statistics.median(runs[1 << 16])
    ok = encode_s < 30.0 and ratio <= 2.5
    report(
        "criterion 8: all-zeros encode at (q=4, n=10^5) under 30 s and decode "
        "time at most 2.5x when n doubles (2^16 -> 2^17, median of 20)",
        ok,
        f"encode {encode_s:.2f}s, decode ratio {ratio:.2f}",
    )


def test_criterion_9_worked_example_fidelity(report):
    params = derive_params(4, 7)
    x = (0, 0, 1, 2, 3, 3, 1, 2)
    first = apply_duplication(x, 2, 2)
    second = apply_duplication(x, 4, 2)
    ok = (
        first == bytes((0, 0, 1, 2, 1, 2, 3, 3, 1, 2))
        and second == bytes((0, 0, 1, 2, 3, 3, 3, 3, 1, 2))
        and codec.correct(first, params) == bytes(x)
        and codec.correct(second, params) == bytes(x)
    )
    report(
        "criterion 9: the worked single-duplication example pair is reproduced and "
        "inverted exactly",
        ok,
    )
