"""Metric models the experiments run on.

Two concrete models: the Cayley tree of a free group (exact integer
geometry) and the hyperbolic upper half-plane acted on by exact 2x2
matrices of determinant 1 (the Sanov generators).
"""

from __future__ import annotations

import math
from numbers import Rational
from typing import Iterator, List, Optional

from .words import GroupWord, tree_distance


class TreeModel:
    """Cayley tree of the free group of the given rank.

    Points and isometries are both reduced words; the basepoint is the
    identity vertex.  All distances are exact integers.
    """

    kind = "tree"

    def __init__(self, rank: int = 2):
        if rank < 2:
            raise ValueError("free group rank must be at least 2")
        self.rank = rank
        self.basepoint = GroupWord.identity()

    def distance(self, p: GroupWord, q: GroupWord) -> int:
        return tree_distance(p, q)

    def apply(self, g: GroupWord, p: GroupWord) -> GroupWord:
        return g * p

    def identity(self) -> GroupWord:
        return GroupWord.identity()

    def translation_length(self, g: GroupWord) -> int:
        return g.translation_length()

    def is_contracting_isometry(self, g: GroupWord) -> bool:
        # every nontrivial free-group element acts loxodromically on its tree
        return not g.is_identity()

    def generators(self) -> List[GroupWord]:
        return [GroupWord.generator(i, sign) for i in range(1, self.rank + 1) for sign in (1, -1)]

    def ball(self, radius: int, center: Optional[GroupWord] = None) -> Iterator[GroupWord]:
        """All vertices within `radius` of the center (default basepoint)."""
        center = center if center is not None else self.basepoint
        steps = [(g, g.syls[0][0] * (1 if g.syls[0][1] > 0 else -1)) for g in self.generators()]
        yield center
        stack = [(center, 0, 0)]
        while stack:
            point, depth, banned = stack.pop()
            if depth == radius:
                continue
            for g, letter in steps:
                if letter == -banned:
                    continue
                # right-multiplying by a reduced generator string moves away
                # from the center by exactly its length, so no revisits
                child = point * g
                yield child
                stack.append((child, depth + 1, letter))


class MatrixIsometry:
    """Element of PSL(2, R) with exact entries (ints, or Fractions) and
    determinant exactly 1, stored under a sign convention."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if not all(isinstance(x, Rational) for x in (a, b, c, d)):
            raise TypeError("matrix entries must be exact (int or Fraction)")
        if a * d - b * c != 1:
            raise ValueError("matrix must have determinant 1")
        # PSL(2,R): pick the representative with a > 0, or a == 0 and b > 0
        # (det 1 rules out a == b == 0)
        if a < 0 or (a == 0 and b < 0):
            a, b, c, d = -a, -b, -c, -d
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, other: "MatrixIsometry") -> "MatrixIsometry":
        return MatrixIsometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MatrixIsometry":
        return MatrixIsometry(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "MatrixIsometry":
        base = self if n >= 0 else self.inverse()
        result = MatrixIsometry(1, 0, 0, 1)
        n = abs(n)
        # square and multiply: one product per bit of n
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def trace(self):
        return self.a + self.d

    def apply(self, z: complex) -> complex:
        # (az + b)(c conj(z) + d) has imaginary part (ad - bc) Im z = Im z, so
        # the image's height is not a float difference of huge products
        x, y = z.real, z.imag
        den = (self.c * x + self.d) ** 2 + (self.c * y) ** 2
        re = self.a * self.c * (x * x + y * y) + (self.a * self.d + self.b * self.c) * x + self.b * self.d
        return complex(re / den, y / den)

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixIsometry):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __repr__(self) -> str:
        return "MatrixIsometry([[%s, %s], [%s, %s]])" % (self.a, self.b, self.c, self.d)


class PlaneModel:
    """Hyperbolic upper half-plane with exact matrix Mobius isometries."""

    kind = "plane"

    def __init__(self):
        self.basepoint = 1j
        # Sanov pair: generates a free group of rank 2 (Sanov 1947)
        self.gen_a = MatrixIsometry(1, 2, 0, 1)
        self.gen_b = MatrixIsometry(1, 0, 2, 1)

    def distance(self, p: complex, q: complex) -> float:
        dx2 = abs(p - q) ** 2
        arg = 1.0 + dx2 / (2.0 * p.imag * q.imag)
        return math.acosh(max(arg, 1.0))

    def apply(self, g: MatrixIsometry, p: complex) -> complex:
        return g.apply(p)

    def identity(self) -> MatrixIsometry:
        return MatrixIsometry(1, 0, 0, 1)

    def translation_length(self, g: MatrixIsometry) -> float:
        t = abs(g.trace())
        if t <= 2:
            return 0.0
        return 2.0 * math.acosh(t / 2)

    def is_contracting_isometry(self, g: MatrixIsometry) -> bool:
        return self.translation_length(g) > 0.0

    def matrix_for_word(self, word: GroupWord) -> MatrixIsometry:
        gens = {1: self.gen_a, 2: self.gen_b}
        out = self.identity()
        for gen, exp in word.syls:
            out = out * gens[gen] ** exp
        return out


def model_by_name(name: str):
    if name in ("tree", "tree2"):
        return TreeModel(2)
    if name.startswith("tree"):
        return TreeModel(int(name[4:]))
    if name == "plane":
        return PlaneModel()
    raise ValueError("unknown model %r" % name)
