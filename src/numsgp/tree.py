"""Genus-tree enumeration of all numerical semigroups.

The tree is rooted at the semigroup of all nonnegative integers; the
children of S are the semigroups S minus {a} for each minimal generator
a > F(S).  Every numerical semigroup of genus g appears exactly once at
depth g, so a depth-first walk bounded by genus visits each semigroup up to
that genus once, keeping only the current frontier in memory.
"""

from __future__ import annotations

from typing import Iterator

from .core import Semigroup, _naturals, _remove_generator

#: Deepest supported enumeration; a pure depth guard, not a memory limit.
MAX_GENUS = 45


def walk(max_genus: int, start: Semigroup | None = None) -> Iterator[Semigroup]:
    """Depth-first generator over all semigroups of genus <= max_genus.

    With a start semigroup, walks only that subtree (start included).  The
    visit order is deterministic: each node comes before its subtree, and
    the subtrees of its children come in ascending order of the removed
    generator.  The child that removes the smallest removable generator
    comes first; it keeps every other one removable, so its subtree is
    usually the biggest.  Memory use is bounded by the tree depth times the
    branching factor.
    """
    if max_genus < 0:
        return
    stack = [start if start is not None else _naturals()]
    pop = stack.pop
    push = stack.append
    while stack:
        s = pop()
        yield s
        if s.genus < max_genus:
            f = s.frobenius
            for a in reversed(s.min_generators):
                if a <= f:
                    break
                push(_remove_generator(s, a))
