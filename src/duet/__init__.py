"""Checkpoint-level task-arithmetic merging toolkit for dual-incremental
object detection: task vectors, layer-wise retention/adaptation merging,
incremental head concatenation, directional-consistency and masked
distillation losses, merge diagnostics, and retention/adaptability metrics.
"""

from .checkpoint import (
    CheckpointReader,
    PartitionSpec,
    fingerprint_map,
    load_partition_spec,
    partition_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .diagnostics import MergeDistanceReport, SignConflictReport, merge_distance, sign_conflicts
from .errors import (
    AxisError,
    BaseMismatchError,
    CheckpointFormatError,
    ConfigError,
    DegenerateBaselineError,
    DTypeError,
    DuetError,
    EmptyInputError,
    KeyMismatchError,
    PartitionError,
    ProtocolError,
    ShapeError,
)
from .losses import (
    DcLossConfig,
    DistillResult,
    PredictionBatch,
    dc_loss,
    dc_loss_grad,
    distill_bbox_loss,
    distill_cls_loss,
    distill_loss,
    percentile_75,
)
from .merge import (
    LayerMergeRecord,
    MergeConfig,
    MergeReport,
    SequenceStep,
    duet_merge,
    incremental_head_concat,
    iter_duet_merge,
    iter_head_concat,
    iter_incremental_sequence,
    iter_magmax_merge,
    iter_weight_average_merge,
)
from .metrics import (
    EvalProtocol,
    EvalRecord,
    MetricsReport,
    TaskPhase,
    UnseenPair,
    compute_metrics,
    generalization_index,
    load_protocol,
    load_records,
    rai,
    retention_index,
    validate_protocol,
)
from .task_vectors import (
    TaskVector,
    compute_task_vector,
    open_task_vector,
    save_task_vector,
    zero_task_vector,
)
from .tensors import (
    LazyTensorMap,
    NamedTensorMap,
    TensorLayout,
    inner_product,
    l1_norm,
    tensor,
)

__version__ = "0.1.0"
