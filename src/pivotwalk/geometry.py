"""Projections, alignment and contraction predicates.

Paths are finite point sequences in a model.  On the tree all predicates are
exact.  Single points are treated as degenerate (one-point) paths
throughout, so the same alignment predicate covers point/path mixtures.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .words import tree_distance


@dataclass(frozen=True)
class Path:
    """A finite path given by its point sequence (orientation matters)."""

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("a path needs at least one point")

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def tree_offsets(self) -> Optional[List[int]]:
        """Tree distance from the start to each point, when the points run
        in order along one tree geodesic (no step backtracks); else None.
        Only tree paths (points are words) may ask for it."""

        pts = self.points
        offsets = [0]
        for p, q in zip(pts, pts[1:]):
            offsets.append(offsets[-1] + tree_distance(p, q))
        if len(pts) > 1 and tree_distance(pts[0], pts[-1]) != offsets[-1]:
            return None
        return offsets


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


@dataclass(frozen=True)
class AlignmentReport:
    aligned: bool
    threshold: float
    worst_diameter: float
    failing_index: Optional[int] = None


@dataclass(frozen=True)
class ModelConstants:
    """Calibrated alignment constants of the tree.

    k0: width used by the basic alignment / Schottky predicates.
    d0: pair-alignment width guaranteed for endpoint-aligned contracting axes.
    d1: width a subsequence of a d0-aligned axis chain is tested at.
    length_floor: every Schottky block must be longer than this many steps.
    """

    k0: float
    d0: float
    d1: float
    length_floor: float


TREE_CONSTANTS = ModelConstants(k0=2, d0=4, d1=6, length_floor=4)


def schottky_length_scale(m0: int, k0: float) -> float:
    """Length unit e0 stored with a Schottky set of block length m0.

    Chosen so that a block of m0 steps is at least 10*e0 long and so that a
    chain of k blocks whose junctions overlap by less than k0 still moves
    the basepoint by at least 5*e0*k.
    """

    return min(m0 / 10.0, (m0 - 2.0 * (k0 - 1.0)) / 5.0)


def project(model, target: PathLike, x) -> ProjectionResult:
    """Nearest-point projection of x to a path (a set of points)."""
    path = as_path(target)
    offsets = _geodesic_offsets(model, path)
    if offsets is not None:
        t, h = _foot(path, offsets, x)
        lo, hi, gap = _nearest(offsets, t)
        return ProjectionResult(path.points[lo:hi], h + gap)
    best = None
    points: List = []
    for p in path.points:
        d = model.distance(x, p)
        if best is None or d < best:
            best = d
            points = [p]
        elif d == best:
            points.append(p)
    return ProjectionResult(tuple(points), best)


def _geodesic_offsets(model, path: Path) -> Optional[List[int]]:
    """The path's offsets along its geodesic when it is a tree geodesic (a
    single point included); None sends any other path to the scan."""

    return path.tree_offsets if model.kind == "tree" else None


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


def project_path(model, target: PathLike, source: PathLike) -> ProjectionResult:
    """Union of projections of every point of `source` onto `target`."""
    path = as_path(target)
    source = as_path(source)
    seen = []
    dist = None
    for x in source.points:
        res = project(model, path, x)
        if dist is None or res.distance < dist:
            dist = res.distance
        for p in res.points:
            if p not in seen:
                seen.append(p)
    return ProjectionResult(tuple(seen), dist)


def diameter(model, points: Iterable) -> float:
    pts = list(points)
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = model.distance(pts[i], pts[j])
            if d > best:
                best = d
    return best


def is_aligned(model, items: Sequence[PathLike], width: float) -> AlignmentReport:
    """Alignment of a chain of paths/points at the given width.

    Consecutive paths must project onto each other near the adjacent
    endpoints: for each i, the projection of the (i+1)-st path to the i-th
    stays within `width` of the i-th ending point, and symmetrically the
    projection of the i-th path to the (i+1)-st stays within `width` of the
    (i+1)-st starting point.  Strict inequality.
    """

    paths = [as_path(it) for it in items]
    worst = 0.0
    for i in range(len(paths) - 1):
        left, right = paths[i], paths[i + 1]
        local = max(_junction_spread(model, left, right, True),
                    _junction_spread(model, right, left, False))
        if local > worst:
            worst = local
        if local >= width:
            return AlignmentReport(False, width, local, failing_index=i)
    return AlignmentReport(True, width, worst)


def _junction_spread(model, target: Path, source: Path, at_end: bool) -> float:
    """Diameter of the projection of `source` to `target` together with the
    target's end (`at_end`) or start."""

    offsets = _geodesic_offsets(model, target)
    if offsets is None:
        proj = project_path(model, target, source)
        return diameter(model, proj.points + ((target.end if at_end else target.start),))
    if not offsets[-1]:
        return 0.0  # a one-point target is the whole projection
    # every sample lies on the target's geodesic, so the diameter is the
    # offset of the union's sample farthest from the chosen end; feet move
    # monotonically along a geodesic source, so its extreme feet come from
    # its endpoints
    ends = source.points
    if len(ends) > 2 and source.tree_offsets is not None:
        ends = (source.start, source.end)
    feet = [_foot(target, offsets, x)[0] for x in ends]
    if at_end:
        lo, _, _ = _nearest(offsets, min(feet))
        spread = offsets[-1] - offsets[lo]
    else:
        _, hi, _ = _nearest(offsets, max(feet))
        spread = offsets[hi - 1]
    # `diameter` reads 0.0 when every distance is 0
    return max(0.0, spread)


def is_contracting(model, path: PathLike, width: float, probe_radius: int) -> Tuple[bool, Optional[tuple]]:
    """Check the contraction property of a point set in the tree.

    Pairs x, y with d(x, y) <= d(x, path) must have joint projection
    diameter at most `width`.  The check is exhaustive over the ball of
    `probe_radius` around the set.  Returns (ok, witness_pair_or_None).
    """

    if model.kind != "tree":
        raise ValueError("the contraction check runs on the tree, not the %s model" % model.kind)
    p = as_path(path)
    points = {x for pt in p.points for x in model.ball(probe_radius, center=pt)}
    cache = {x: project(model, p, x) for x in points}
    for x in points:
        rx = cache[x].distance
        if rx == 0:
            continue
        for y in model.ball(int(rx), center=x):
            if y not in cache:
                cache[y] = project(model, p, y)
            joint = diameter(model, set(cache[x].points) | set(cache[y].points))
            if joint > width:
                return False, (x, y)
    return True, None
