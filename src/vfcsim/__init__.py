"""Discrete-event simulator for three-tier vehicular fog computing.

Vehicles stream through a square service area, generating compute tasks
that a scheduler places on the vehicle itself, one of a grid of fog
nodes, or a remote cloud. A tabular q-learning scheduler is trained
against fcfs, round-robin, and weighted-fair-queueing baselines, and
runs are scored on processing time, servicing time, service ratio,
a cumulative composite reward, and per-edge accumulated profit.
"""

from .agent import (
    NUM_ACTIONS,
    NUM_BUNDLES,
    HyperParams,
    QTable,
    Tier,
    epsilon_at,
    load_tables,
    save_tables,
    select_action,
    update_q_value,
)
from .config import RunConfig, SimParams, build_config, dump_config, load_config, parse_config_text
from .engine import (
    CheckpointError,
    EpisodeResult,
    EvalResult,
    TrainingResult,
    build_nodes,
    build_scheduler,
    derive_seed,
    run_episode,
    run_evaluation,
    run_training,
)
from .errors import ConfigError, ValidationError
from .eventlog import write_event_log
from .link import (
    BITS_PER_MB,
    LinkParams,
    LinkRangeError,
    dbm_to_mw,
    processing_time,
    shannon_rate,
    snr_at_distance,
    upload_time,
)
from .metrics import (
    EpisodeAggregate,
    MetricsReport,
    TaskLedger,
    TaskRecord,
    build_report,
    cumulative_reward,
    episode_aggregate,
)
from .rewards import (
    RewardWeights,
    qos_reward,
    quality,
    resource_utilization,
    resource_wastage,
    response_time_reward,
    total_reward,
)
from .schedulers import (
    DecisionContext,
    FcfsScheduler,
    NodeView,
    Placement,
    QLearningScheduler,
    RoundRobinScheduler,
    Scheduler,
    WfqScheduler,
)
from .state_space import NUM_STATES, StateSpaceConfig, snapshot_ordinal
from .traffic import SCENARIOS, Scenario, VehicleSpec, load_trace_csv, sample_vehicles

__version__ = "0.1.0"

__all__ = [
    "BITS_PER_MB",
    "CheckpointError",
    "ConfigError",
    "DecisionContext",
    "EpisodeAggregate",
    "EpisodeResult",
    "EvalResult",
    "FcfsScheduler",
    "HyperParams",
    "LinkParams",
    "LinkRangeError",
    "MetricsReport",
    "NUM_ACTIONS",
    "NUM_BUNDLES",
    "NUM_STATES",
    "NodeView",
    "Placement",
    "QLearningScheduler",
    "QTable",
    "RewardWeights",
    "RoundRobinScheduler",
    "RunConfig",
    "SCENARIOS",
    "Scenario",
    "Scheduler",
    "SimParams",
    "StateSpaceConfig",
    "TaskLedger",
    "TaskRecord",
    "Tier",
    "TrainingResult",
    "ValidationError",
    "VehicleSpec",
    "WfqScheduler",
    "build_config",
    "build_nodes",
    "build_report",
    "build_scheduler",
    "cumulative_reward",
    "dbm_to_mw",
    "derive_seed",
    "dump_config",
    "episode_aggregate",
    "epsilon_at",
    "load_config",
    "load_tables",
    "load_trace_csv",
    "parse_config_text",
    "processing_time",
    "qos_reward",
    "quality",
    "resource_utilization",
    "resource_wastage",
    "response_time_reward",
    "run_episode",
    "run_evaluation",
    "run_training",
    "sample_vehicles",
    "save_tables",
    "select_action",
    "shannon_rate",
    "snapshot_ordinal",
    "snr_at_distance",
    "total_reward",
    "update_q_value",
    "upload_time",
    "write_event_log",
]
