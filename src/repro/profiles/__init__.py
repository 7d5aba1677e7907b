"""Resource–accuracy profiles, accuracy dynamics and profile storage."""

from .dynamics import (
    AnalyticDynamics,
    StreamDynamics,
    StreamState,
    SubstrateDynamics,
    config_quality,
)
from .fleet_store import FleetProfileStore, regime_key, stream_profile_key
from .profile import RetrainingEstimate, StreamWindowProfile
from .store import ProfileStore
from .table1 import (
    TABLE1_A_MIN,
    TABLE1_NUM_GPUS,
    TABLE1_START_ACCURACY,
    TABLE1_WINDOW_SECONDS,
    Table1Scenario,
    table1_inference_config,
    table1_scenario,
    table1_start_accuracies,
)

__all__ = [
    "AnalyticDynamics",
    "StreamDynamics",
    "StreamState",
    "SubstrateDynamics",
    "config_quality",
    "RetrainingEstimate",
    "StreamWindowProfile",
    "ProfileStore",
    "FleetProfileStore",
    "regime_key",
    "stream_profile_key",
    "TABLE1_A_MIN",
    "TABLE1_NUM_GPUS",
    "TABLE1_START_ACCURACY",
    "TABLE1_WINDOW_SECONDS",
    "Table1Scenario",
    "table1_inference_config",
    "table1_scenario",
    "table1_start_accuracies",
]
