"""Streaming PCA for sequential data.

A one-step-per-time-step eigenspace tracker with deterministic, limited,
and stochastic regimes; a batch Gram-matrix PCA oracle; explained-variance
evaluation tools; and loaders/generators for time-varying datasets.
"""

__version__ = "0.1.0"

from .adaptive import (
    AdaptiveConfig,
    AdaptiveState,
    ingest,
    initialize,
    oja,
    run_adaptive,
    update_component,
)
from .batch import EigenSpace, center, dual_pca, gram, sym_eig
from .core import (
    ConvergenceError,
    DegenerateDataError,
    DegenerateVectorError,
    DimensionMismatchError,
    NonFiniteSampleError,
    OpCounter,
    RngState,
    SampleStore,
    StreamPcaError,
    normalize,
    sample_indices,
)
from .data import (
    DatasetMeta,
    EmptyDatasetError,
    MalformedFileError,
    load_pgm_sequence,
    load_raw_volumes,
    read_manifest,
    save_raw_volumes,
    synth,
)
from .evaluate import (
    CurveSeries,
    curve_gap,
    eigenfunctions,
    explained_variance,
    mean_curve,
    subspace_overlap,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveState",
    "ConvergenceError",
    "CurveSeries",
    "DatasetMeta",
    "DegenerateDataError",
    "DegenerateVectorError",
    "DimensionMismatchError",
    "EigenSpace",
    "EmptyDatasetError",
    "MalformedFileError",
    "NonFiniteSampleError",
    "OpCounter",
    "RngState",
    "SampleStore",
    "StreamPcaError",
    "center",
    "curve_gap",
    "dual_pca",
    "eigenfunctions",
    "explained_variance",
    "gram",
    "ingest",
    "initialize",
    "load_pgm_sequence",
    "load_raw_volumes",
    "mean_curve",
    "normalize",
    "oja",
    "read_manifest",
    "run_adaptive",
    "sample_indices",
    "save_raw_volumes",
    "subspace_overlap",
    "sym_eig",
    "synth",
    "update_component",
]
