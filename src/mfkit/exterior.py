"""The word basis of the exterior algebra on n generators, and its sign rule.

Generators t_1..t_n ("theta") carry Z2-degree 1.  A word is the ascending
tuple of its generator indices; basis enumeration (``theta_words`` and the
even/odd splits) is by word length, then lexicographic -- the empty word
always comes first.

The one sign rule: t_i anticommutes with every generator, so moving it to or
from its place in a word w costs (-1)^(number of indices of w below i).  The
two signed word maps return the image word and that exponent mod 2:

* ``delete(i, w)`` -- the contraction t_i^* of a word holding i;
* ``insert(i, w)`` -- left multiplication by t_i of a word without i.

``unit`` writes the Koszul differential's matrices from these maps.  The
element-level algebra they come from lives in the tests, as their oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations


def theta_words(n: int) -> list:
    """All words over 1..n, ordered by (length, then lexicographic)."""
    out = []
    for k in range(n + 1):
        out.extend(combinations(range(1, n + 1), k))
    return out


def even_words(n: int) -> list:
    return [w for w in theta_words(n) if len(w) % 2 == 0]


def odd_words(n: int) -> list:
    return [w for w in theta_words(n) if len(w) % 2 == 1]


def delete(i: int, w: tuple) -> tuple:
    """``(w without i, pos % 2)``, pos the 0-based position of i in w."""
    pos = w.index(i)
    return w[:pos] + w[pos + 1:], pos % 2


def insert(i: int, w: tuple) -> tuple:
    """``(w with i, below % 2)``, below the count of indices of w below i."""
    below = bisect_left(w, i)
    if below < len(w) and w[below] == i:
        raise ValueError(f"word {w} already holds {i}")
    return w[:below] + (i,) + w[below:], below % 2
