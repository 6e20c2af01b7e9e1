"""Deterministic random lattice polytopes for property suites."""
from __future__ import annotations

import random

from .polytope import Polytope, build_polytope


#: Consecutive draws that add no new polytope before the box counts as
#: exhausted; the corpora in use never go past a handful.
STALL_LIMIT = 1000


def random_corpus(seed: int, count: int, dim: int, max_coord: int) -> list[Polytope]:
    """Seeded random full-dimensional lattice polytopes.

    Draws small vertex sets from the [0, max_coord] box, keeps the hulls
    that are full-dimensional, and skips duplicates.  The same arguments
    always reproduce the same list.  A box too small to hold ``count``
    distinct polytopes raises ValueError once ``STALL_LIMIT`` draws in a
    row have added none.
    """
    if dim not in (2, 3):
        raise ValueError("corpus dimension must be 2 or 3")
    if not 1 <= max_coord <= 5:
        raise ValueError("corpus coordinates must stay within 1..5")
    if count < 0:
        raise ValueError("corpus count must be nonnegative")
    rng = random.Random(seed)
    out: list[Polytope] = []
    seen: set[tuple] = set()
    stalled = 0
    while len(out) < count:
        if stalled == STALL_LIMIT:
            raise ValueError(f"found only {len(out)} distinct polytopes in [0, {max_coord}]^{dim}"
                             f" after {STALL_LIMIT} draws in a row added none; "
                             f"{count} were asked for")
        stalled += 1
        npts = rng.randint(dim + 1, dim + 4)
        pts = [tuple(rng.randint(0, max_coord) for _ in range(dim)) for _ in range(npts)]
        try:
            P = build_polytope(pts)
        except ValueError:
            continue
        key = P.vertices
        if key in seen:
            continue
        seen.add(key)
        out.append(P)
        stalled = 0
    return out
