"""Seeded message families that make the encoder iterate, shared by the
tests and scripts/sweep.py.

Each family takes (rng, n, K, q), the signature of bench/workloads'
messages plus the alphabet size, and returns n symbols below q as a list.
K is the code's threshold; runs and periods are measured in it.
"""

from __future__ import annotations

import random


def periodic(rng: random.Random, n: int, K: int, q: int = 4) -> list[int]:
    """x[j] = u[j mod K] for K seeded symbols u."""
    u = [rng.randrange(q) for _ in range(K)]
    return [u[j % K] for j in range(n)]


def runs(rng: random.Random, n: int, K: int, q: int = 4) -> list[int]:
    """Runs of 2K symbols cycling the alphabet; rng is not used."""
    return [(j // (2 * K)) % q for j in range(n)]


def shared_runs(rng: random.Random, n: int, K: int, q: int = 4) -> list[int]:
    """Runs of 2K symbols, one seeded symbol per run, so neighbouring runs
    often share a symbol."""
    out: list[int] = []
    while len(out) < n:
        out += [rng.randrange(q)] * (2 * K)
    return out[:n]


def period2_runs(rng: random.Random, n: int, K: int, q: int = 4) -> list[int]:
    """Runs of 2K symbols, each one of four seeded period-2 patterns."""
    patterns = [(rng.randrange(q), rng.randrange(q)) for _ in range(4)]
    out: list[int] = []
    while len(out) < n:
        out += list(rng.choice(patterns)) * K
    return out[:n]


def deep(rng: random.Random, n: int, K: int, q: int = 4) -> list[int]:
    """n/2 uniform symbols, then n - n/2 symbols of periodic, so the
    squares lie deep in the word."""
    return rng.choices(range(q), k=n // 2) + periodic(rng, n - n // 2, K, q)


def mixed(rng: random.Random, n: int, K: int, q: int = 4) -> list[int]:
    """Seeded segments of K to 4K symbols: uniform symbols, a run of one
    symbol, a period below 2K, or a copy of an earlier stretch."""
    out: list[int] = []
    while len(out) < n:
        kind, size = rng.randrange(4), rng.randint(K, 4 * K)
        if kind == 0:
            out += [rng.randrange(q) for _ in range(size)]
        elif kind == 1:
            out += [rng.randrange(q)] * size
        elif kind == 2:
            u = [rng.randrange(q) for _ in range(rng.randint(1, 2 * K))]
            out += [u[j % len(u)] for j in range(size)]
        elif out:
            a = rng.randrange(len(out))
            out += out[a : a + size]
    return out[:n]
