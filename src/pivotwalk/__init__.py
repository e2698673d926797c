"""pivotwalk: exact word geometry, Schottky sets, pivotal times and
deviation experiments for random walks on the 4-regular tree and the
hyperbolic plane."""

from .words import GroupWord, word_from_str, word_to_str
from .spaces import TreeModel, PlaneModel, MatrixIsometry, model_by_name
from .geometry import Path, is_aligned, project
from .schottky import (
    SchottkySet,
    SchottkySequence,
    build_schottky,
    tree_schottky_set,
    verify_schottky,
    schottky_from_json,
    schottky_to_json,
)
from .pivotal import PivotConfig, compute_pivotal_times, pivot
from .walks import StepMeasure, simple_rw, heavy_tail
from .verifier import ExperimentReport, calibrate

__version__ = "0.1.0"

__all__ = [
    "GroupWord",
    "word_from_str",
    "word_to_str",
    "TreeModel",
    "PlaneModel",
    "MatrixIsometry",
    "model_by_name",
    "Path",
    "is_aligned",
    "project",
    "SchottkySet",
    "SchottkySequence",
    "build_schottky",
    "tree_schottky_set",
    "verify_schottky",
    "schottky_from_json",
    "schottky_to_json",
    "PivotConfig",
    "compute_pivotal_times",
    "pivot",
    "StepMeasure",
    "simple_rw",
    "heavy_tail",
    "ExperimentReport",
    "calibrate",
    "__version__",
]
