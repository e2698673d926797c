"""Reduced words in a finitely generated free group.

Words are kept in syllable form: a tuple of (generator, exponent) pairs with
nonzero exponents and distinct adjacent generators.  This makes huge powers
(a^100000 from heavy-tailed step laws) as cheap as single letters, while
letter-level views are still available for the tree geometry.

Generators are numbered 1..rank; a negative letter -g denotes the inverse of
generator g.  The string form uses 'a', 'b', ... for generators and 'A', 'B',
... for their inverses.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

Syllable = Tuple[int, int]


def _normalize(pairs: Iterable[Syllable]) -> Tuple[Syllable, ...]:
    out: List[Syllable] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if gen <= 0:
            raise ValueError("generator index must be positive")
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


class GroupWord:
    """An element of a free group, always stored reduced."""

    __slots__ = ("syls", "_len")

    def __init__(self, syls: Tuple[Syllable, ...] = ()):
        self.syls = syls
        self._len = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity() -> "GroupWord":
        return _IDENTITY

    @staticmethod
    def generator(gen: int, exp: int = 1) -> "GroupWord":
        if exp == 0:
            return _IDENTITY
        return GroupWord(((gen, exp),))

    @staticmethod
    def from_letters(letters: Iterable[int]) -> "GroupWord":
        pairs = [(abs(l), 1 if l > 0 else -1) for l in letters]
        return GroupWord.from_syllables(pairs)

    @staticmethod
    def from_syllables(pairs: Iterable[Syllable]) -> "GroupWord":
        return GroupWord(_normalize(pairs))

    # -- basic structure ----------------------------------------------

    def __len__(self) -> int:
        # a word never changes, so its letter count is summed once
        if self._len is None:
            self._len = sum(abs(e) for _, e in self.syls)
        return self._len

    def is_identity(self) -> bool:
        return not self.syls

    def letters(self) -> Iterator[int]:
        for gen, exp in self.syls:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield sign * gen

    def prefix(self, count: int) -> "GroupWord":
        """First `count` letters as a word."""
        if count <= 0:
            return _IDENTITY
        out: List[Syllable] = []
        left = count
        for gen, exp in self.syls:
            span = abs(exp)
            sign = 1 if exp > 0 else -1
            if left >= span:
                out.append((gen, exp))
                left -= span
                if left == 0:
                    break
            else:
                out.append((gen, sign * left))
                break
        return GroupWord(tuple(out))

    # -- group operations ---------------------------------------------

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if not isinstance(other, GroupWord):
            return NotImplemented
        if not self.syls:
            return other
        if not other.syls:
            return self
        left = list(self.syls)
        right = other.syls
        i = 0
        while left and i < len(right):
            gen, exp = right[i]
            lgen, lexp = left[-1]
            if lgen != gen:
                break
            merged = lexp + exp
            left.pop()
            i += 1
            if merged != 0:
                left.append((gen, merged))
                break
        left.extend(right[i:])
        return GroupWord(tuple(left))

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((gen, -exp) for gen, exp in reversed(self.syls)))

    def __pow__(self, n: int) -> "GroupWord":
        if n == 0:
            return _IDENTITY
        base = self if n > 0 else self.inverse()
        result = _IDENTITY
        n = abs(n)
        # square and multiply: one product per bit of n
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- reduction ------------------------------------------------------

    def cyclic_reduce(self) -> "GroupWord":
        """Shortest word in the conjugacy class."""
        w = list(self.syls)
        while len(w) >= 2 and w[0][0] == w[-1][0] and (w[0][1] > 0) != (w[-1][1] > 0):
            gen, e0 = w[0]
            _, e1 = w[-1]
            c = min(abs(e0), abs(e1))
            s0 = 1 if e0 > 0 else -1
            s1 = 1 if e1 > 0 else -1
            e0_new = e0 - s0 * c
            e1_new = e1 + s0 * c
            # the word is reduced, so both ends of the interior differ in
            # generator from gen: nothing merges with the surviving end
            w = w[1:-1]
            if e1_new != 0:
                w = w + [(gen, e1_new)]
            if e0_new != 0:
                w = [(gen, e0_new)] + w
        return GroupWord(tuple(w))

    def translation_length(self) -> int:
        return len(self.cyclic_reduce())

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupWord) and self.syls == other.syls

    def __hash__(self) -> int:
        return hash(self.syls)

    def __repr__(self) -> str:
        return "GroupWord(%s)" % (word_to_str(self) or "1")


_IDENTITY = GroupWord(())


def common_prefix_letters(u: GroupWord, v: GroupWord) -> int:
    """Number of leading letters shared by two reduced words."""
    count = 0
    for (g1, e1), (g2, e2) in zip(u.syls, v.syls):
        if g1 != g2 or (e1 > 0) != (e2 > 0):
            return count
        if e1 == e2:
            count += abs(e1)
            continue
        count += min(abs(e1), abs(e2))
        return count
    return count


def tree_distance(u: GroupWord, v: GroupWord) -> int:
    """Distance between vertices u, v of the Cayley tree (base at identity)."""
    return len(u) + len(v) - 2 * common_prefix_letters(u, v)


def tree_path_point(u: GroupWord, v: GroupWord, t: int) -> GroupWord:
    """Vertex at distance t from u on the tree geodesic [u, v]."""
    c = common_prefix_letters(u, v)
    back = len(u) - c
    if t <= back:
        return u.prefix(len(u) - t)
    return v.prefix(c + (t - back))


def tree_geodesic(u: GroupWord, v: GroupWord) -> List[GroupWord]:
    return [tree_path_point(u, v, t) for t in range(tree_distance(u, v) + 1)]


def tree_projection_to_segment(x: GroupWord, u: GroupWord, v: GroupWord) -> GroupWord:
    """Nearest point to x on the tree geodesic [u, v] (unique)."""
    du = tree_distance(x, u)
    dv = tree_distance(x, v)
    duv = tree_distance(u, v)
    t = (du + duv - dv) // 2
    return tree_path_point(u, v, t)


_LETTER_BASE = ord("a")


def word_to_str(word: GroupWord) -> str:
    parts = []
    for gen, exp in word.syls:
        ch = chr(_LETTER_BASE + gen - 1)
        if exp == 1:
            parts.append(ch)
        elif exp == -1:
            parts.append(ch.upper())
        elif exp > 1:
            parts.append("%s^%d" % (ch, exp))
        else:
            parts.append("%s^%d" % (ch.upper(), -exp))
    return " ".join(parts)


def word_from_str(text: str) -> GroupWord:
    """Parse words like 'a b A', 'a^3 B^2' or compact 'abA'."""
    pairs: List[Syllable] = []
    for token in text.replace("^", " ^").split():
        if token.startswith("^"):
            if not pairs:
                raise ValueError("dangling exponent in %r" % text)
            gen, exp = pairs.pop()
            power = int(token[1:])
            pairs.append((gen, exp * power))
            continue
        for ch in token:
            if ch.islower():
                pairs.append((ord(ch) - _LETTER_BASE + 1, 1))
            elif ch.isupper():
                pairs.append((ord(ch.lower()) - _LETTER_BASE + 1, -1))
            else:
                raise ValueError("bad character %r in word %r" % (ch, text))
    return GroupWord.from_syllables(pairs)


def random_reduced_word(rng, length: int, rank: int = 2) -> GroupWord:
    """Uniform reduced word with exactly `length` letters."""
    if length <= 0:
        return GroupWord.identity()
    letters = []
    alphabet = [g for i in range(1, rank + 1) for g in (i, -i)]
    prev = 0
    for _ in range(length):
        choices = [l for l in alphabet if l != -prev]
        letter = choices[int(rng.integers(0, len(choices)))]
        letters.append(letter)
        prev = letter
    return GroupWord.from_letters(letters)
