"""Metric models the experiments run on.

Two concrete models: the Cayley tree of a free group (exact integer
geometry) and the hyperbolic upper half-plane acted on by exact 2x2
matrices of determinant 1 (the Sanov generators).  Each model decides
exactly which isometries are contracting and which pairs are independent,
the step-law hypothesis the experiments check.
"""

from __future__ import annotations

from numbers import Rational
from typing import Iterator

from .words import GroupWord, tree_distance


class TreeModel:
    """Cayley tree of the free group F2 on a and b, the 4-regular tree.

    Points and isometries are both reduced words; the basepoint is the
    identity vertex.  All distances are exact integers.
    """

    kind = "tree"

    def distance(self, p: GroupWord, q: GroupWord) -> int:
        return tree_distance(p, q)

    def is_contracting_isometry(self, g: GroupWord) -> bool:
        # every nontrivial free-group element acts loxodromically on its tree
        return not g.is_identity()

    def independent(self, g: GroupWord, h: GroupWord) -> bool:
        """Whether g and h are contracting with no common fixed end."""
        # centralisers in a free group are cyclic, so two non-identity
        # elements fix a common end iff they commute
        return not (g.is_identity() or h.is_identity()) and g * h != h * g

    def ball(self, radius: int) -> Iterator[GroupWord]:
        """All vertices within `radius` of the basepoint, depth first."""
        # the letters a, A, b, B, each with its signed index
        steps = [(GroupWord.generator(g, e), g * e) for g in (1, 2) for e in (1, -1)]
        center = GroupWord.identity()
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

    def trace(self):
        return self.a + self.d

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

    def is_contracting_isometry(self, g: MatrixIsometry) -> bool:
        # hyperbolic, with an axis it translates along, iff |tr| > 2
        return abs(g.trace()) > 2

    def independent(self, g: MatrixIsometry, h: MatrixIsometry) -> bool:
        """Whether g and h are hyperbolic with no common fixed point."""
        if not (self.is_contracting_isometry(g) and self.is_contracting_isometry(h)):
            return False
        # two hyperbolics share a fixed point at infinity iff their
        # commutator is parabolic or trivial, i.e. has |tr| = 2 (Beardon
        # 1983, section 4.3)
        return abs((g * h * g.inverse() * h.inverse()).trace()) != 2

    def matrix_for_word(self, word: GroupWord) -> MatrixIsometry:
        """The Sanov image of `word` (a = [[1, 2], [0, 1]], b = [[1, 0], [2, 1]];
        Sanov 1947), a syllable at a time: a^e adds 2e times the first column
        to the second, b^e 2e times the second to the first."""
        a, b, c, d = 1, 0, 0, 1
        for gen, exp in word.syls:
            if gen == 1:
                b, d = b + 2 * exp * a, d + 2 * exp * c
            elif gen == 2:
                a, c = a + 2 * exp * b, c + 2 * exp * d
            else:
                raise ValueError("the Sanov map takes words in a and b, not generator %d" % gen)
        return MatrixIsometry(a, b, c, d)


def model_by_name(name: str):
    if name in ("tree", "tree2"):
        return TreeModel()
    if name == "plane":
        return PlaneModel()
    raise ValueError("unknown model %r: the models are tree (or tree2), on a and b, and plane" % name)
