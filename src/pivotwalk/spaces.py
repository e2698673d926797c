"""Metric models the experiments run on.

Two concrete models: the Cayley tree of a free group (exact integer
geometry) and the hyperbolic upper half-plane acted on by 2x2 real matrices
(floating point, Sanov generators by default).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

from .words import (
    GroupWord,
    random_reduced_word,
    tree_distance,
    tree_geodesic,
)


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

    def geodesic(self, p: GroupWord, q: GroupWord, step: int = 1) -> List[GroupWord]:
        points = tree_geodesic(p, q)
        if step == 1:
            return points
        picked = points[::step]
        if picked[-1] != points[-1]:
            picked.append(points[-1])
        return picked

    def translation_length(self, g: GroupWord) -> int:
        return g.translation_length()

    def is_contracting_isometry(self, g: GroupWord) -> bool:
        # every nontrivial free-group element acts loxodromically on its tree
        return not g.is_identity()

    def generators(self) -> List[GroupWord]:
        out = []
        for i in range(1, self.rank + 1):
            out.append(GroupWord.generator(i))
            out.append(GroupWord.generator(i, -1))
        return out

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

    def random_point(self, rng, max_len: int = 12) -> GroupWord:
        return random_reduced_word(rng, int(rng.integers(0, max_len + 1)), self.rank)


class MatrixIsometry:
    """Element of PSL(2, R), normalized to det 1 and a sign convention."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        det = a * d - b * c
        if det <= 0:
            raise ValueError("matrix must have positive determinant")
        scale = math.sqrt(det)
        a, b, c, d = a / scale, b / scale, c / scale, d / scale
        # PSL(2,R): pick the representative with a >= 0 (ties: b >= 0, then c)
        flip = False
        if a < 0:
            flip = True
        elif a == 0:
            if b < 0:
                flip = True
            elif b == 0 and c < 0:
                flip = True
        if flip:
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
        result = MatrixIsometry(1.0, 0.0, 0.0, 1.0)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            result = result * base
        return result

    def trace(self) -> float:
        return self.a + self.d

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def is_identity(self, tol: float = 1e-9) -> bool:
        return (
            abs(self.a - 1) < tol
            and abs(self.d - 1) < tol
            and abs(self.b) < tol
            and abs(self.c) < tol
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixIsometry):
            return NotImplemented
        return (
            abs(self.a - other.a) < 1e-9
            and abs(self.b - other.b) < 1e-9
            and abs(self.c - other.c) < 1e-9
            and abs(self.d - other.d) < 1e-9
        )

    def __repr__(self) -> str:
        return "MatrixIsometry([[%.6g, %.6g], [%.6g, %.6g]])" % (
            self.a,
            self.b,
            self.c,
            self.d,
        )


class PlaneModel:
    """Hyperbolic upper half-plane with matrix Mobius isometries."""

    kind = "plane"

    def __init__(self, geodesic_step: float = 0.25):
        self.basepoint = 1j
        self.geodesic_step = geodesic_step
        # Sanov pair: generates a free group of rank 2
        self.gen_a = MatrixIsometry(1.0, 2.0, 0.0, 1.0)
        self.gen_b = MatrixIsometry(1.0, 0.0, 2.0, 1.0)

    def distance(self, p: complex, q: complex) -> float:
        dx2 = abs(p - q) ** 2
        arg = 1.0 + dx2 / (2.0 * p.imag * q.imag)
        return math.acosh(max(arg, 1.0))

    def apply(self, g: MatrixIsometry, p: complex) -> complex:
        return g.apply(p)

    def identity(self) -> MatrixIsometry:
        return MatrixIsometry(1.0, 0.0, 0.0, 1.0)

    def geodesic(self, p: complex, q: complex, step: Optional[float] = None) -> List[complex]:
        """Sampled geodesic from p to q, spaced by arclength `step`."""
        step = step or self.geodesic_step
        total = self.distance(p, q)
        if total < 1e-12:
            return [p]
        count = max(1, int(math.ceil(total / step)))
        return [self._interpolate(p, q, total * k / count) for k in range(count + 1)]

    def _interpolate(self, p: complex, q: complex, s: float) -> complex:
        """Point at arclength s from p on the geodesic [p, q]."""
        if abs(p.real - q.real) < 1e-12:
            # vertical line
            sign = 1.0 if q.imag > p.imag else -1.0
            return complex(p.real, p.imag * math.exp(sign * s))
        c = (abs(p) ** 2 - abs(q) ** 2) / (2.0 * (p.real - q.real))
        r = abs(p - c)
        # arclength parameter along the circle: u = log tan(theta/2)
        u_p = math.log(math.tan(math.atan2(p.imag, p.real - c) / 2.0))
        u_q = math.log(math.tan(math.atan2(q.imag, q.real - c) / 2.0))
        sign = 1.0 if u_q > u_p else -1.0
        u = u_p + sign * s
        theta = 2.0 * math.atan(math.exp(u))
        return complex(c + r * math.cos(theta), r * math.sin(theta))

    def translation_length(self, g: MatrixIsometry) -> float:
        t = abs(g.trace())
        if t <= 2.0:
            return 0.0
        return 2.0 * math.acosh(t / 2.0)

    def is_contracting_isometry(self, g: MatrixIsometry) -> bool:
        return self.translation_length(g) > 0.0

    def generators(self) -> List[MatrixIsometry]:
        return [
            self.gen_a,
            self.gen_a.inverse(),
            self.gen_b,
            self.gen_b.inverse(),
        ]

    def random_point(self, rng, spread: float = 2.0) -> complex:
        return complex(rng.normal(0, spread), math.exp(rng.normal(0, 1.0)))

    def random_isometry(self, rng, max_len: int = 6) -> MatrixIsometry:
        word = random_reduced_word(rng, int(rng.integers(0, max_len + 1)), 2)
        return self.matrix_for_word(word)

    def matrix_for_word(self, word: GroupWord) -> MatrixIsometry:
        gens = {1: self.gen_a, 2: self.gen_b}
        out = self.identity()
        for letter in word.letters():
            g = gens[abs(letter)]
            out = out * (g if letter > 0 else g.inverse())
        return out


def model_by_name(name: str):
    if name in ("tree", "tree2"):
        return TreeModel(2)
    if name.startswith("tree"):
        return TreeModel(int(name[4:]))
    if name == "plane":
        return PlaneModel()
    raise ValueError("unknown model %r" % name)
