"""Seeded random instances for verification runs.

Everything is driven by ``random.Random(seed)`` so identical seeds give
identical instances on every platform.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .affine import AffineB, validate_b
from .lemma import SeriesPairSpec, validate_pair_spec


def random_affine_b(
    seed: int,
    max_index: int = 4,
    max_height: int = 9,
    density: float = 0.4,
) -> AffineB:
    """Random antisymmetric coordinates, indices ``<= max_index``.

    Numerators and denominators are bounded by ``max_height``.  The result
    always has at least one nonzero entry.
    """
    rng = Random(seed)
    rows = []
    for n in range(1, max_index + 1):
        for m in range(0, n):
            if rng.random() < density:
                value = random_fraction(rng, max_height)
                if value != 0:
                    rows.append((n, m, value))
    if not rows:
        n = rng.randint(1, max_index)
        m = rng.randint(0, n - 1)
        rows.append((n, m, Fraction(rng.randint(1, max_height))))
    return validate_b(rows)


def random_fraction(rng: Random, max_height: int) -> Fraction:
    num = rng.randint(-max_height, max_height)
    den = rng.randint(1, max_height)
    return Fraction(num, den)


def random_series_pair_spec(
    seed: int,
    max_index: int = 3,
    max_entries: int = 3,
    max_height: int = 9,
) -> SeriesPairSpec:
    """Random (s, t) pair with at most ``max_entries`` entries per part.

    Indices are bounded by ``max_index``; the result always has at least
    one nonzero entry.
    """
    rng = Random(seed)
    pairs = [(m, n) for m in range(1, max_index + 1)
             for n in range(m + 1, max_index + 1)]
    s_entries = {}
    for key in rng.sample(pairs, min(rng.randint(0, max_entries), len(pairs))):
        value = random_fraction(rng, max_height)
        if value != 0:
            s_entries[key] = value
    t_entries = {}
    for m in rng.sample(range(1, max_index + 1),
                        min(rng.randint(0, max_entries), max_index)):
        value = random_fraction(rng, max_height)
        if value != 0:
            t_entries[m] = value
    if not s_entries and not t_entries:
        t_entries[rng.randint(1, max_index)] = Fraction(
            rng.randint(1, max_height))
    return validate_pair_spec(s_entries, t_entries)
