"""The cycle-sum engine of `npoint` and `lemma`: one Held-Karp subset DP
(Held & Karp 1962) over closed chains of keyed integer terms.

A chain starts at vertex 0, visits each of the vertices 1 .. size-1 once
and closes back at 0.  Each step takes one factor, a list of items
``(key offset, integer)``, and a term of the chain is a product of one item
per step: the keys add and the integers multiply.  A chain also moves
through stages (one stage, ``None``, unless the caller needs more, as
`lemma`'s telescoping does), and only the chains that end at the stage
``final`` are added.  Every step is taken by a move ``(src, dst, step)``
from stage ``src`` to ``dst``, where ``step(j, label, k)`` gives the
factors of the step from vertex j to k >= 1 as ``{next label: items}``,
and those of the closing step back to 0 as a list of items lists.  The
label is what the caller needs to know about the last vertex.

What a chain can still do depends only on its state (visited set, last
vertex, stage, label).  So the engine keeps, per state, the sum of the
terms of every chain prefix that reaches it, as a partial
``{key: integer}``, and extends it once by each next step; by
distributivity the result is the sum over the chains, term for term.

With ``limits``, step ``t + 1`` (the closing one for ``t = size - 1``)
keeps only the keys below ``limits[t]``; the caller picks limits that no
kept chain crosses.  The engine then takes each partial in increasing key
order, and the caller must list each step's groups in increasing order of
their smallest key and each group's items in increasing key order, so
that a step stops at the first product over the limit.
"""


def contract(size: int, layer: dict, moves, acc: dict[int, int],
             limits=None, final=None) -> None:
    """Add the chains from the start ``layer``
    ``{(visited, 0, stage, label): partial}`` into ``acc``."""
    full = (1 << size) - 1
    for t in range(size):
        limit = limits[t] if limits else None
        grown: dict = {}
        for (seen, j, stage, label), partial in layer.items():
            if limit is not None:
                partial = dict(sorted(partial.items()))
                room = limit - next(iter(partial))
            for src, dst, step in moves:
                if src != stage:
                    continue
                if seen == full:
                    if dst == final:
                        for items in step(j, label, 0):
                            extend(acc, partial, items, limit)
                    continue
                for k in range(1, size):
                    if seen >> k & 1:
                        continue
                    for label2, items in step(j, label, k).items():
                        if limit is not None and items[0][0] >= room:
                            break  # no term of this group or the next fits
                        state = (seen | 1 << k, k, dst, label2)
                        extend(grown.setdefault(state, {}), partial, items,
                               limit)
        layer = grown


def extend(out: dict[int, int], partial: dict[int, int], items,
           limit=None) -> None:
    # out += partial * items: keys add, values multiply.  With a limit, only
    # the keys below it, and ``partial`` must list its keys in increasing
    # order.
    for fkey, c in items:
        if limit is None:
            for key, v in partial.items():
                key += fkey
                if key in out:
                    out[key] += v * c
                else:
                    out[key] = v * c
            continue
        cut = limit - fkey
        for key, v in partial.items():
            if key >= cut:
                break
            key += fkey
            if key in out:
                out[key] += v * c
            else:
                out[key] = v * c
