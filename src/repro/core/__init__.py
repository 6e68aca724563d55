"""Core contribution: MPC optimizer, Ours controller."""

from .controller import OursScheme
from .offline import OfflinePlan, solve_offline
from .optimizer import EnergyQoEMpc, MpcConfig, MpcDecision, MpcWindow
from .plan_tables import PlanTables
from .robust import RobustScheme

__all__ = [
    "OursScheme",
    "RobustScheme",
    "OfflinePlan",
    "solve_offline",
    "EnergyQoEMpc",
    "MpcConfig",
    "MpcDecision",
    "MpcWindow",
    "PlanTables",
]
