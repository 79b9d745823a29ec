"""Desk-scale class-incremental learning workbench.

Core pieces: task-stream generation (disjoint / fuzzy), PCA and exact
t-SNE reducers, an outlier-robust farthest-point exemplar sampler with
an independent verification oracle, a numpy MLP trained with a
temperature-distilled rehearsal loss, and an experiment harness.
"""

from .data import (
    BlobsSpec,
    Dataset,
    LabeledExample,
    StreamSpec,
    TaskBatch,
    load_cifar100,
    make_blobs,
    make_disjoint_stream,
    make_fuzzy_stream,
    make_stream,
)
from .errors import (
    CilbenchError,
    ConfigurationError,
    DataError,
    DivergenceError,
    ShapeError,
)
from .harness import (
    MetricsRecord,
    RunConfig,
    RunResult,
    average_accuracy,
    emit_results,
    evaluate,
    run_experiment,
)
from .learner import (
    LossConfig,
    MlpModel,
    TrainConfig,
    as_features,
    grow_head,
    init_mlp,
    train_task,
)
from .reduce import Embedding, TsneConfig, pca_reduce, tsne_reduce
from .sampler import (
    ExemplarStore,
    SamplerParams,
    allocate_quota,
    diverse_sample,
    gonzalez_sample,
    random_sample,
    verify_selection,
)

__all__ = [
    "BlobsSpec",
    "CilbenchError",
    "ConfigurationError",
    "DataError",
    "Dataset",
    "DivergenceError",
    "Embedding",
    "ExemplarStore",
    "LabeledExample",
    "LossConfig",
    "MetricsRecord",
    "MlpModel",
    "RunConfig",
    "RunResult",
    "SamplerParams",
    "ShapeError",
    "StreamSpec",
    "TaskBatch",
    "TrainConfig",
    "TsneConfig",
    "allocate_quota",
    "as_features",
    "average_accuracy",
    "diverse_sample",
    "emit_results",
    "evaluate",
    "gonzalez_sample",
    "grow_head",
    "init_mlp",
    "load_cifar100",
    "make_blobs",
    "make_disjoint_stream",
    "make_fuzzy_stream",
    "make_stream",
    "pca_reduce",
    "random_sample",
    "run_experiment",
    "train_task",
    "tsne_reduce",
    "verify_selection",
]

__version__ = "0.1.0"
