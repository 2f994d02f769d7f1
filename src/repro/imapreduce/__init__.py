"""The iMapReduce engine — the paper's contribution."""

from .accum import MIN, SUM, AccumJob, AccumPair, AccumRunResult, Accumulator
from .channels import IterationMailbox, ReliableConfig, StopIteration_
from .checkpoint import CheckpointError, CheckpointStore, ProcFault
from .columnar import AccumKernel, Kernel, KernelContractError
from .failure_detector import FailureDetector, FailureDetectorConfig
from .incremental import (
    ChangePlan,
    DataDelta,
    DeltaError,
    MemoStore,
    patch_static_table,
    plan_changes,
    random_edge_churn,
)
from .job import AuxPhase, IterativeJob, IterativeRunResult, Phase
from .localrun import LocalRunResult, kernel_enabled, select_executor
from .parallel import ParallelExecutionError, ParallelRunResult
from .runtime import (
    AuxContext,
    ChaosKnobs,
    IMapReduceRuntime,
    LoadBalanceConfig,
)
from .plan import (
    SUPPORT,
    ExecutionPlan,
    PlanError,
    WarmStart,
    execute,
    run_accum_local,
    run_accum_parallel,
    run_incremental_accum,
    run_local,
    run_parallel,
)

__all__ = [
    "IterationMailbox",
    "ReliableConfig",
    "StopIteration_",
    "CheckpointError",
    "CheckpointStore",
    "ProcFault",
    "Kernel",
    "AccumKernel",
    "KernelContractError",
    "kernel_enabled",
    "select_executor",
    "FailureDetector",
    "FailureDetectorConfig",
    "ChangePlan",
    "DataDelta",
    "DeltaError",
    "MemoStore",
    "patch_static_table",
    "plan_changes",
    "random_edge_churn",
    "run_incremental_accum",
    "ExecutionPlan",
    "WarmStart",
    "PlanError",
    "SUPPORT",
    "execute",
    "AuxPhase",
    "IterativeJob",
    "IterativeRunResult",
    "Phase",
    "Accumulator",
    "AccumJob",
    "AccumPair",
    "AccumRunResult",
    "SUM",
    "MIN",
    "LocalRunResult",
    "run_local",
    "run_accum_local",
    "ParallelExecutionError",
    "ParallelRunResult",
    "run_parallel",
    "run_accum_parallel",
    "AuxContext",
    "ChaosKnobs",
    "IMapReduceRuntime",
    "LoadBalanceConfig",
]
