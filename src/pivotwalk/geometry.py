"""Projections, alignment and contraction predicates.

Paths are finite point sequences in a model.  On the tree all predicates are
exact; on the plane they are evaluated on sampled paths with a small
tolerance.  Single points are treated as degenerate (one-point) paths
throughout, so the same alignment predicate covers point/path mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .words import GroupWord
from .spaces import TreeModel


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
    """Calibrated alignment constants for one model.

    k0: width used by the basic alignment / Schottky predicates.
    d0: pair-alignment width guaranteed for endpoint-aligned contracting axes.
    d1: width a subsequence of a d0-aligned axis chain is tested at.
    length_floor: every Schottky block must be longer than this many steps.
    """

    k0: float
    d0: float
    d1: float
    length_floor: float
    tol: float


TREE_CONSTANTS = ModelConstants(k0=2, d0=4, d1=6, length_floor=4, tol=0)
PLANE_CONSTANTS = ModelConstants(k0=1.0, d0=2.5, d1=4.0, length_floor=2.0, tol=1e-6)


def constants_for(model) -> ModelConstants:
    return TREE_CONSTANTS if model.kind == "tree" else PLANE_CONSTANTS


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
    best = None
    points: List = []
    for p in path.points:
        d = model.distance(x, p)
        if best is None or d < best - _tol(model):
            best = d
            points = [p]
        elif abs(d - best) <= _tol(model):
            points.append(p)
    return ProjectionResult(tuple(points), best)


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
        fwd = project_path(model, left, right)
        d1 = diameter(model, fwd.points + (left.end,))
        back = project_path(model, right, left)
        d2 = diameter(model, back.points + (right.start,))
        local = max(d1, d2)
        if local > worst:
            worst = local
        if local >= width:
            return AlignmentReport(False, width, local, failing_index=i)
    return AlignmentReport(True, width, worst)


def is_semi_aligned(model, items: Sequence[PathLike], constants: Optional[ModelConstants] = None) -> AlignmentReport:
    """Testable stand-in for 'subsequence of a d0-aligned chain'.

    Dropping interior axes from a d0-aligned chain degrades the pairwise
    alignment width by a bounded amount, so a subchain is checked directly
    at the calibrated width d1.
    """

    constants = constants or constants_for(model)
    return is_aligned(model, items, constants.d1)


def _tol(model) -> float:
    return 0 if model.kind == "tree" else 1e-6


def _tree_ball_around_set(model: TreeModel, pts: Sequence[GroupWord], radius: int):
    seen = set()
    for p in pts:
        for q in model.ball(radius, center=p):
            seen.add(q)
    return seen


def is_contracting(
    model,
    path: PathLike,
    width: float,
    probe_radius: int = 4,
    rng=None,
    probes: int = 200,
) -> Tuple[bool, Optional[tuple]]:
    """Check the contraction property of a point set.

    Pairs x, y with d(x, y) <= d(x, path) must have joint projection
    diameter at most `width`.  On the tree the check is exhaustive over the
    ball of `probe_radius` around the set; on the plane it is randomized
    with `probes` sampled pairs.  Returns (ok, witness_pair_or_None).
    """

    p = as_path(path)
    if model.kind == "tree":
        points = _tree_ball_around_set(model, p.points, probe_radius)
        proj_cache = {}
        dist_cache = {}
        for x in points:
            res = project(model, p, x)
            proj_cache[x] = res.points
            dist_cache[x] = res.distance
        for x in points:
            rx = dist_cache[x]
            if rx == 0:
                continue
            for y in model.ball(int(rx), center=x):
                if y not in proj_cache:
                    res = project(model, p, y)
                    proj_cache[y] = res.points
                    dist_cache[y] = res.distance
                joint = diameter(model, set(proj_cache[x]) | set(proj_cache[y]))
                if joint > width:
                    return False, (x, y)
        return True, None

    rng = rng if rng is not None else _default_rng()
    for _ in range(probes):
        anchor = p.points[int(rng.integers(0, len(p.points)))]
        x = _plane_offset(model, anchor, rng, probe_radius)
        rx = project(model, p, x).distance
        if rx <= 1e-9:
            continue
        y = _plane_offset(model, x, rng, rx)
        if model.distance(x, y) > rx:
            continue
        pts = set(project(model, p, x).points) | set(project(model, p, y).points)
        if diameter(model, pts) > width + _tol(model):
            return False, (x, y)
    return True, None


def _default_rng():
    import numpy as np

    return np.random.default_rng(0)


def _plane_offset(model, z, rng, radius):
    import math

    angle = rng.uniform(0, 2 * math.pi)
    r = rng.uniform(0, radius)
    # move along a random direction for hyperbolic distance r
    x = z + complex(math.cos(angle), math.sin(angle)) * z.imag * (math.exp(r) - 1)
    if x.imag <= 0:
        x = complex(x.real, z.imag * math.exp(-r))
    return x
