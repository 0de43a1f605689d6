"""The benchmark's workloads: the CLI invocations each one makes, from a seed.

Seed 0 gives the default inputs.  Other seeds vary the inputs but keep each
workload's shape and its amount of work within a few percent of the
default, because the benchmark compares runs made with different seeds.
Every input that any seed can produce is listed by ``family`` so that
``record.py`` can store a reference output for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Stands for the per-repetition class-number cache file; run.py substitutes it.
CACHE = "{cache}"

# Squarefree D0 <= 31 (no square of 2, 3 or 5 divides them; 7**2 > 31).
_SQUAREFREE = [d for d in range(1, 32) if all(d % (p * p) for p in (2, 3, 5))]

# Sweep windows.  Every composite D0 <= 31 is in each window; the windows
# differ only in D0 whose forms all have D = 1 and are skipped (1, 2, 3, 5,
# 31), so their lattice work equals the default's.  A window that gains or
# loses a composite D0 changes the work by 10% or more.
_SWEEP_LOWS = (1, 2, 3, 5, 6)
_SWEEP_HIGHS = (30, 31)

# Four-prime levels near 1155 with 21 eligible forms of D > 1 at nmax 20:
# 1155 = 3*5*7*11 and 1190 = 2*5*7*17 visit 117,684 and 119,405 lattice
# points.  The next such level, 1326, visits 7% more and took about 20%
# longer in a single seed-code run.
_WIDE_LEVELS = (1155, 1190)

# kronecker and cohen: nmax = 3000 +- this, about +-1% of the work.
_NMAX_SPREAD = 10


def _verify(d0: int, nmax: int, cache: bool = False) -> list[str]:
    argv = ["verify", "--d0", str(d0), "--nmax", str(nmax)]
    return argv + ["--cache", CACHE] if cache else argv


def _sweep(seed: int) -> list[list[str]]:
    window = [d for d in _SQUAREFREE if d <= 30]
    if seed:
        rng = random.Random(seed)
        lo, hi = rng.choice(_SWEEP_LOWS), rng.choice(_SWEEP_HIGHS)
        window = [d for d in _SQUAREFREE if lo <= d <= hi]
        rng.shuffle(window)
    return [_verify(d, 100, cache=True) for d in window]


def _wide(seed: int) -> list[list[str]]:
    level = random.Random(seed).choice(_WIDE_LEVELS) if seed else _WIDE_LEVELS[0]
    return [_verify(level, 20)]


def _nmax(seed: int) -> int:
    return 3000 + (random.Random(seed).randint(-_NMAX_SPREAD, _NMAX_SPREAD) if seed else 0)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list[list[str]]]
    family: tuple[tuple[str, ...], ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep",
        _sweep,
        tuple(tuple(_verify(d, 100, cache=True)) for d in _SQUAREFREE),
    ),
    Workload(
        "wide",
        _wide,
        tuple(tuple(_verify(level, 20)) for level in _WIDE_LEVELS),
    ),
    Workload(
        "kronecker",
        lambda seed: [["kronecker", "--nmax", str(_nmax(seed))]],
        tuple(("kronecker", "--nmax", str(3000 + k))
              for k in range(-_NMAX_SPREAD, _NMAX_SPREAD + 1)),
    ),
    Workload(
        "cohen",
        lambda seed: [["cohen", "--nmax", str(_nmax(seed))]],
        tuple(("cohen", "--nmax", str(3000 + k))
              for k in range(-_NMAX_SPREAD, _NMAX_SPREAD + 1)),
    ),
)}


def call_key(argv: list[str] | tuple[str, ...]) -> str:
    """The reference key of one invocation: its argv without the cache option,
    which names a file that is different on every repetition."""
    argv = list(argv)
    if "--cache" in argv:
        i = argv.index("--cache")
        del argv[i:i + 2]
    return " ".join(argv)
