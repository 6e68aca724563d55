"""Core contribution: configuration, MPC optimizer, Ours controller."""

from .config import StreamingConfig
from .controller import OursScheme
from .offline import OfflinePlan, solve_offline
from .optimizer import EnergyQoEMpc, MpcConfig, MpcDecision, MpcWindow
from .plan_tables import PlanTables
from .robust import RobustScheme, expected_quality_window

__all__ = [
    "StreamingConfig",
    "OursScheme",
    "RobustScheme",
    "expected_quality_window",
    "OfflinePlan",
    "solve_offline",
    "EnergyQoEMpc",
    "MpcConfig",
    "MpcDecision",
    "MpcWindow",
    "PlanTables",
]
