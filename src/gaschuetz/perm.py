"""Permutations of {0, ..., n-1} as immutable image tuples.

The raw representation of a permutation is the tuple ``images`` with
``images[i]`` the image of point ``i``.  Hot loops (closure, searches)
work on raw tuples through the ``mult`` / ``inverse`` helpers below;
the ``Permutation`` class is the hashable public face.

``mult`` is the one composition.  It is a gather: ``itemgetter(*q)(p)``
reads p at every point of q in C, three to five times faster than a
Python call per point from degree 8 up.  Building the getter is O(1), since it
keeps q itself as its argument tuple.  Degrees 0 and 1 are kept apart,
because a getter of one index returns a bare point, not a tuple, and one
of no index cannot be built.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

from .errors import DegreeMismatchError, MalformedPermutationError


def check_images(images) -> tuple[int, ...]:
    """Validate and normalize an image array; raise if not a bijection."""
    imgs = tuple(images)
    n = len(imgs)
    seen = [False] * n
    for x in imgs:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            raise MalformedPermutationError(f"not a bijection of 0..{n - 1}: {imgs!r}")
        seen[x] = True
    return imgs


def identity_images(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def direct_sum(blocks):
    """The permutation acting as blocks[i] on the i-th run of consecutive points.

    Each block is a raw tuple; block i moves only its own len(blocks[i])
    points, shifted past the blocks before it.
    """
    out = []
    for block in blocks:
        offset = len(out)
        out.extend(offset + x for x in block)
    return tuple(out)


def mult(p, q):
    """Compose raw image tuples: (p*q)(i) = p(q(i)), i.e. apply q first.

    One C-level gather of p at q's images; degree 0 and 1 take the plain
    map, as ``itemgetter`` of one index returns a point and of none raises.
    """
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(map(p.__getitem__, q))


def inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def power(p, k: int):
    """p^k for k >= 0 by square-and-multiply; p^0 is the identity."""
    result = None
    while True:
        if k & 1:
            result = p if result is None else mult(result, p)
        k >>= 1
        if not k:
            return identity_images(len(p)) if result is None else result
        p = mult(p, p)


def perm_order(p) -> int:
    """The order of a raw tuple: the lcm of its cycle lengths (1 for none)."""
    return lcm(*map(len, cycles_of(p)))


def cycles_of(p):
    """Nontrivial cycles of a raw tuple, each rotated to start at its minimum."""
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


class Permutation:
    """A bijection of {0, ..., n-1}; immutable and totally ordered.

    The ordering (lexicographic on image tuples) is the canonical element
    order used everywhere a deterministic choice is needed.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        object.__setattr__(self, "images", check_images(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._wrap(identity_images(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        imgs = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                imgs[a] = b
        return cls(imgs)

    @classmethod
    def _wrap(cls, raw: tuple) -> "Permutation":
        # Internal: raw is already validated.
        obj = object.__new__(cls)
        object.__setattr__(obj, "images", raw)
        return obj

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DegreeMismatchError("cannot compose permutations of different degree")
        return Permutation._wrap(mult(self.images, other.images))

    def inv(self) -> "Permutation":
        return Permutation._wrap(inverse(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inv() ** (-k)
        return Permutation._wrap(power(self.images, k))

    def order(self) -> int:
        return perm_order(self.images)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = cycles_of(self.images)
        if not cyc:
            return f"Permutation.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Perm[{body}]"


# -- coercions ---------------------------------------------------------------
# An element may arrive as a Permutation or as a sequence of images; these
# two functions are the only places that tell the two apart.


def images_of(x) -> tuple:
    """The raw image tuple of x, trusted: no bijection or degree check."""
    return x.images if isinstance(x, Permutation) else tuple(x)


def as_permutation(x, degree: int, role: str) -> Permutation:
    """x as a validated Permutation of the given degree.

    A non-bijection raises MalformedPermutationError; another degree
    raises DegreeMismatchError, naming the role ("generator", "image").
    """
    p = x if isinstance(x, Permutation) else Permutation(x)
    if p.degree != degree:
        raise DegreeMismatchError(f"{role} degree mismatch")
    return p
