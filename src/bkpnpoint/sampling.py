"""Seeded random instances for verification runs.

Everything is driven by ``random.Random(seed)`` so identical seeds give
identical instances on every platform.  The benchmark digests the instances
of fixed seeds, so the order of the draws must not change.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .affine import AffineB, validate_b

# Bound on the numerator and denominator of every drawn value.
MAX_HEIGHT = 9
# Largest index, and most entries per part, of a random pair spec.
SPEC_MAX_INDEX = 3
SPEC_MAX_ENTRIES = 3


def random_affine_b(
    seed: int,
    max_index: int = 4,
    density: float = 0.4,
) -> AffineB:
    """Random antisymmetric coordinates with indices ``<= max_index``.

    Each position ``n > m`` is drawn with probability ``density``.  The
    result always has at least one nonzero entry.  Raises ``ValueError``
    for ``max_index < 1``.
    """
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    rng = Random(seed)
    rows = []
    for n in range(1, max_index + 1):
        for m in range(0, n):
            if rng.random() < density:
                value = random_fraction(rng)
                if value != 0:
                    rows.append((n, m, value))
    if not rows:
        n = rng.randint(1, max_index)
        m = rng.randint(0, n - 1)
        rows.append((n, m, Fraction(rng.randint(1, MAX_HEIGHT))))
    return validate_b(rows)


def random_fraction(rng: Random) -> Fraction:
    num = rng.randint(-MAX_HEIGHT, MAX_HEIGHT)
    den = rng.randint(1, MAX_HEIGHT)
    return Fraction(num, den)


def random_series_pair_spec(seed: int) -> lemma.SeriesPairSpec:
    """Random (s, t) pair with indices ``<= SPEC_MAX_INDEX`` and at most
    ``SPEC_MAX_ENTRIES`` entries per part.

    The result always has at least one nonzero entry.
    """
    # loaded here, so that drawing coordinates does not load the lemma
    from . import lemma

    rng = Random(seed)
    pairs = [(m, n) for m in range(1, SPEC_MAX_INDEX + 1)
             for n in range(m + 1, SPEC_MAX_INDEX + 1)]
    s_entries = {}
    for key in rng.sample(
            pairs, min(rng.randint(0, SPEC_MAX_ENTRIES), len(pairs))):
        value = random_fraction(rng)
        if value != 0:
            s_entries[key] = value
    t_entries = {}
    for m in rng.sample(range(1, SPEC_MAX_INDEX + 1),
                        min(rng.randint(0, SPEC_MAX_ENTRIES), SPEC_MAX_INDEX)):
        value = random_fraction(rng)
        if value != 0:
            t_entries[m] = value
    if not s_entries and not t_entries:
        t_entries[rng.randint(1, SPEC_MAX_INDEX)] = Fraction(
            rng.randint(1, MAX_HEIGHT))
    return lemma.validate_pair_spec(s_entries, t_entries)
