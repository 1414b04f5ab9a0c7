"""The campaign execution engine: plan / execute / stream.

Campaigns *plan* (declarative :class:`RunSpec` lists), executors *run*
(serially or across processes, identically), sinks *stream* (tally,
JSONL checkpoint with resume).  See the submodule docstrings for the
contract each layer owns.
"""

from repro.core.engine.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.core.engine.plan import (
    ArmedHook,
    ExecutionContext,
    RunPlan,
    RunSpec,
    golden_digest,
)
from repro.core.engine.replay import (
    ReplayConstraint,
    choose_boundary,
    try_replay_execute,
)
from repro.core.engine.dist import (
    Coordinator,
    FileQueue,
    FleetExecutor,
    Lease,
    run_worker,
)
from repro.core.engine.runner import execute_plan, execute_run_spec
from repro.core.engine.sink import (
    SCHEMA_VERSION,
    JsonlSink,
    ResultSink,
    TallySink,
    iter_stamped_records,
    load_records,
    load_records_by_campaign,
    merge_shard_records,
    record_from_json,
    record_to_json,
)
from repro.core.engine.sweep import (
    ProfileGoldenCache,
    SweepCell,
    SweepPlan,
    SweepResult,
    capture_golden,
    execute_sweep,
)

__all__ = [
    "ArmedHook",
    "Coordinator",
    "ExecutionContext",
    "Executor",
    "FileQueue",
    "FleetExecutor",
    "JsonlSink",
    "Lease",
    "ParallelExecutor",
    "ProfileGoldenCache",
    "ReplayConstraint",
    "ResultSink",
    "RunPlan",
    "RunSpec",
    "SCHEMA_VERSION",
    "SerialExecutor",
    "SweepCell",
    "SweepPlan",
    "SweepResult",
    "TallySink",
    "capture_golden",
    "choose_boundary",
    "execute_plan",
    "execute_run_spec",
    "execute_sweep",
    "golden_digest",
    "iter_stamped_records",
    "load_records",
    "load_records_by_campaign",
    "make_executor",
    "merge_shard_records",
    "record_from_json",
    "record_to_json",
    "run_worker",
    "try_replay_execute",
]
