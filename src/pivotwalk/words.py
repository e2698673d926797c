"""Reduced words in a finitely generated free group.

Words are kept in syllable form: a tuple of (generator, exponent) pairs with
nonzero exponents and distinct adjacent generators.  This makes huge powers
(a^100000 from heavy-tailed step laws) as cheap as single letters, while
letter-level views are still available for the tree geometry.

Generators are numbered 1, 2, ...; a negative letter -g denotes the inverse
of generator g, and the string form writes 'a', 'b', ... and 'A', 'B', ....
The kernel takes any generator index, while the program's inputs are words
in a and b: `word_from_str` reads a, b, A, B only.

`SyllableStack` holds many reduced words as rows of integer arrays, for the
walk ensemble and the ball census, `row_words` turns such rows back into
words, `letter_rows` gives their leading letters, and `row_keys` makes
either kind of row one comparable item.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

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


def partial_products(steps: Iterable[GroupWord]) -> List[GroupWord]:
    """The identity, then the product of each leading run of steps."""
    out = [_IDENTITY]
    for s in steps:
        out.append(out[-1] * s)
    return out


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
    """Parse words in a, b, A, B like 'a b A', 'a^3 B^2' or compact 'abA'."""
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
            if ch not in "abAB":
                raise ValueError("bad character %r in word %r: the letters are a, b, A, B" % (ch, text))
            pairs.append((ord(ch.lower()) - _LETTER_BASE + 1, 1 if ch.islower() else -1))
    return GroupWord.from_syllables(pairs)


def random_reduced_word(rng, length: int) -> GroupWord:
    """Uniform reduced word in a and b with exactly `length` letters."""
    if length <= 0:
        return GroupWord.identity()
    letters = []
    prev = 0
    for _ in range(length):
        choices = [l for l in (1, -1, 2, -2) if l != -prev]
        letter = choices[int(rng.integers(0, len(choices)))]
        letters.append(letter)
        prev = letter
    return GroupWord.from_letters(letters)


# ---------------------------------------------------------------------------
# many reduced words as rows of integer arrays: letter rows and syllable stacks


def letter_rows(words: Sequence[GroupWord], width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first `width` letters of each word as a row, padded with 0 (no
    letter), and each word's letter count."""

    padded = (itertools.islice(itertools.chain(word.letters(), itertools.repeat(0)), width)
              for word in words)
    rows = np.fromiter(itertools.chain.from_iterable(padded), dtype=np.int64, count=len(words) * width)
    return rows.reshape(len(words), width), np.array([len(word) for word in words], dtype=np.int64)


def row_words(gens: np.ndarray, exps: np.ndarray) -> List[GroupWord]:
    """The word of each row of a generator and an exponent array holding
    reduced words: a cell with exponent 0 (padding, a stack's column 0, or
    a cell above a row's top) is no syllable."""

    return [GroupWord(tuple((g, e) for g, e in zip(row_g, row_e) if e))
            for row_g, row_e in zip(gens.tolist(), exps.tolist())]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row's bytes as one item, equal exactly for equal rows."""

    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]


def syllable_table(words: Sequence[GroupWord]) -> Tuple[np.ndarray, np.ndarray]:
    """Generator and exponent arrays of shape (atoms, S), S the most
    syllables a word has (at least 1), zero-padded on the right."""

    width = max([1] + [len(w.syls) for w in words])
    pad = ((0, 0),) * width
    rows = (w.syls + pad[len(w.syls):] for w in words)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
    table = np.fromiter(flat, dtype=np.int64, count=2 * width * len(words)).reshape(-1, width, 2)
    return table[..., 0], np.ascontiguousarray(table[..., 1])


def product_exponent_bound(table: Tuple[np.ndarray, np.ndarray], steps: int) -> int:
    """The largest absolute exponent a product of `steps` atoms of `table`
    can hold: a syllable of a product sums at most one syllable of each
    factor."""

    exp_a = table[1]
    return steps * int(max(exp_a.max(initial=0), -exp_a.min(initial=0)))


class SyllableStack:
    """Reduced words, one per row of a generator array `gens` and an
    exponent array `exps`: row i holds its syllables in columns 1 to its
    top, and exponent 0 above it.  Column 0 holds generator -1, which
    neither a syllable nor the padding atom (generator 0) matches.  The
    rows are multiplied on the right by atoms of a syllable table.
    """

    def __init__(self, table: Tuple[np.ndarray, np.ndarray], gens: np.ndarray, exps: np.ndarray):
        self.table, self.gens, self.exps = table, gens, exps
        # flat index of each row's top syllable, its last nonzero exponent
        self.top = np.count_nonzero(exps, axis=1) + np.arange(len(gens)) * gens.shape[1]

    @classmethod
    def identities(cls, table: Tuple[np.ndarray, np.ndarray], rows: int, steps: int) -> "SyllableStack":
        """`rows` identity words with room for `steps` atoms of `table`
        each, in integer types that hold the table's largest generator and
        `product_exponent_bound`, so no exponent wraps."""

        gen_a, exp_a = table
        largest = product_exponent_bound(table, steps)
        if largest >= 2 ** 63:
            raise ValueError("a product of %d steps has exponents beyond 64 bits" % steps)
        # the narrowest signed type holding -b - 1 holds -b..b
        table = (gen_a.astype(np.min_scalar_type(-int(gen_a.max(initial=0)) - 1)),
                 exp_a.astype(np.min_scalar_type(-largest - 1)))
        gens = np.zeros((rows, steps * gen_a.shape[1] + 1), dtype=table[0].dtype)
        gens[:, 0] = -1
        return cls(table, gens, np.zeros(gens.shape, dtype=table[1].dtype))

    def __len__(self) -> int:
        return len(self.gens)

    def take(self, idx) -> "SyllableStack":
        """Rows idx of this stack, with the same table."""
        return SyllableStack(self.table, self.gens[idx], self.exps[idx])

    def __add__(self, other: "SyllableStack") -> "SyllableStack":
        """This stack's rows, then those of `other`, a stack with the same
        table and widths."""
        return SyllableStack(self.table, np.concatenate((self.gens, other.gens)),
                             np.concatenate((self.exps, other.exps)))

    def push(self, atoms: np.ndarray) -> "SyllableStack":
        """Multiply row i by the table atoms atoms[i, 0], atoms[i, 1], ...
        in turn, one update for all rows a syllable column; returns self."""

        Gf, Ef, top = self.gens.reshape(-1), self.exps.reshape(-1), self.top
        steps = atoms.T
        # each table column's generators and exponents for every step at once
        columns = [(col_g[steps], col_e[steps]) for col_g, col_e in zip(*(t.T for t in self.table))]
        for i in range(len(steps)):
            for G, E in columns:
                g = G[i]
                # a syllable on the top's generator merges into it, any other
                # goes above it, where the exponent is 0; a zero result (a
                # cancellation, or padding) is written but not kept, so
                # exponents stay zero above the top
                top += Gf[top] != g
                s = Ef[top] + E[i]
                Gf[top] = g
                Ef[top] = s
                top -= s == 0
        # a push needs a new top generator and a pop leaves no new adjacent
        # pair, so each row stays a reduced word
        return self

    def keys(self) -> np.ndarray:
        """Each row's bytes as one item, equal exactly for equal words: the
        generators that pops left above the tops are cleared first."""

        self.gens[:, 1:][self.exps[:, 1:] == 0] = 0
        return row_keys(np.hstack((self.gens.view(np.uint8), self.exps.view(np.uint8))))

    def cyclic_cut(self) -> np.ndarray:
        """Letters that cyclic reduction cancels from each end of each row:
        mirrored inverse powers wear off whole, and then a mirrored pair of
        unequal opposite powers of one generator loses the shorter, leaving
        ends on different generators.  Only rows still cancelling loop on."""

        G, E = self.gens, self.exps
        hi = self.top - np.arange(len(self)) * G.shape[1]
        cut = np.zeros(len(hi), dtype=np.int64)
        rows = np.arange(len(hi))
        lo = np.ones_like(hi)
        while len(rows):
            e_lo, e_hi = E[rows, lo], E[rows, hi]
            live = (lo < hi) & (G[rows, lo] == G[rows, hi]) & ((e_lo > 0) != (e_hi > 0))
            cut[rows[live]] += np.minimum(np.abs(e_lo[live]), np.abs(e_hi[live]))
            whole = live & (e_lo == -e_hi)
            rows, lo, hi = rows[whole], lo[whole] + 1, hi[whole] - 1
        return cut
