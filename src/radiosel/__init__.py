"""Cost-sensitive oblique decision trees for dual-radio link selection."""

__version__ = "0.1.0"

from .dataset import (Dataset, RadioClass, Scaler, Trace, label_traces,
                      load_dataset, load_traces, save_dataset, save_traces,
                      split, standardize)
from .errors import DataError, ModelFormatError, NumericError, RadioselError
from .metrics import ErrorBreakdown, cwa, error_breakdown, kfold_cwa
from .solver import LinearModel, SolverConfig, WeightedBinaryProblem
from .tao import TaoConfig, TaoResult, train
from .tree import DecisionNode, LeafNode, ObliqueTree, load, prune, save

__all__ = [
    "Dataset", "RadioClass", "Scaler", "Trace", "label_traces",
    "load_dataset", "load_traces", "save_dataset", "save_traces", "split",
    "standardize", "DataError", "ModelFormatError", "NumericError",
    "RadioselError", "ErrorBreakdown", "cwa", "error_breakdown", "kfold_cwa",
    "LinearModel", "SolverConfig", "WeightedBinaryProblem", "TaoConfig",
    "TaoResult", "train", "DecisionNode", "LeafNode",
    "ObliqueTree", "load", "prune", "save", "__version__",
]
