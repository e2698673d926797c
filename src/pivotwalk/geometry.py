"""Projections and alignment predicates on the tree.

A path is a finite sequence of tree vertices that run in order along one
tree geodesic, so every predicate here is exact and in closed form.  Single
points are treated as degenerate (one-point) paths throughout, so the same
alignment predicate covers point/path mixtures.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from .words import tree_distance


@dataclass(frozen=True)
class Path:
    """A finite path of tree vertices that run in order along one tree
    geodesic (orientation matters; a sample may repeat)."""

    points: tuple
    # tree distance from the start to each point
    tree_offsets: List[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = self.points
        if not pts:
            raise ValueError("a path needs at least one point")
        offsets = [0]
        for p, q in zip(pts, pts[1:]):
            offsets.append(offsets[-1] + tree_distance(p, q))
        # the broken path through the samples is a geodesic iff its length
        # is the distance between its ends
        if len(pts) > 1 and tree_distance(pts[0], pts[-1]) != offsets[-1]:
            raise ValueError("path samples must run in order along one tree geodesic")
        object.__setattr__(self, "tree_offsets", offsets)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    def translate(self, g) -> "Path":
        """The path of left translates g p.  Left multiplication is a tree
        isometry, so the offsets carry over and are not summed again."""
        out = object.__new__(Path)
        object.__setattr__(out, "points", tuple(g * p for p in self.points))
        object.__setattr__(out, "tree_offsets", self.tree_offsets)
        return out


PathLike = Union[Path, Sequence, object]


def as_path(item) -> Path:
    if isinstance(item, Path):
        return item
    if isinstance(item, (list, tuple)):
        return Path(tuple(item))
    return Path((item,))


@dataclass(frozen=True)
class ProjectionResult:
    points: tuple
    distance: float


def project(x, target: PathLike) -> ProjectionResult:
    """Nearest-point projection of x to a path (a set of points)."""
    path = as_path(target)
    offsets = path.tree_offsets
    t, h = _foot(path, offsets, x)
    lo, hi, gap = _nearest(offsets, t)
    return ProjectionResult(path.points[lo:hi], h + gap)


def _foot(path: Path, offsets: List[int], x) -> Tuple[int, int]:
    """(t, h): x's nearest point on the tree geodesic through the path lies
    t from its start, and x lies h from it, so a point at offset s is
    h + |s - t| from x."""

    d_start = tree_distance(x, path.start)
    t = (d_start + offsets[-1] - tree_distance(x, path.end)) // 2
    return t, d_start - t


def _nearest(offsets: List[int], t: int) -> Tuple[int, int, int]:
    """(lo, hi, gap): the samples nearest offset t are lo..hi-1, each gap
    from it.  `offsets` is sorted and runs from 0 to at least t."""

    i = bisect_left(offsets, t)
    gap = offsets[i] - t
    if i and t - offsets[i - 1] < gap:
        gap = t - offsets[i - 1]
    return bisect_left(offsets, t - gap), bisect_right(offsets, t + gap), gap


def is_aligned(items: Sequence[PathLike], width: float) -> bool:
    """Alignment of a chain of paths/points at the given width.

    Consecutive paths must project onto each other near the adjacent
    endpoints: for each i, the projection of the (i+1)-st path to the i-th
    stays within `width` of the i-th ending point, and symmetrically the
    projection of the i-th path to the (i+1)-st stays within `width` of the
    (i+1)-st starting point.  Strict inequality.
    """

    paths = [as_path(it) for it in items]
    for left, right in zip(paths, paths[1:]):
        if max(_junction_spread(left, right, True), _junction_spread(right, left, False)) >= width:
            return False
    return True


def _junction_spread(target: Path, source: Path, at_end: bool) -> int:
    """Diameter of the projection of `source` to `target` together with the
    target's end (`at_end`) or start."""

    offsets = target.tree_offsets
    if not offsets[-1]:
        return 0  # a one-point target is the whole projection
    # every sample lies on the target's geodesic, so the diameter is the
    # offset of the union's sample farthest from the chosen end; feet move
    # monotonically along a geodesic source, so its extreme feet come from
    # its endpoints
    ends = source.points if len(source) <= 2 else (source.start, source.end)
    feet = [_foot(target, offsets, x)[0] for x in ends]
    if at_end:
        lo, _, _ = _nearest(offsets, min(feet))
        return offsets[-1] - offsets[lo]
    _, hi, _ = _nearest(offsets, max(feet))
    return offsets[hi - 1]
