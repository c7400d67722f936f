"""SAGE core: the cost/time-aware decision layer.

Everything in this package is *model-driven control*: it consumes the
monitoring agent's link estimates, predicts transfer time and monetary cost
for candidate configurations, picks the configuration that honours the
user's budget/deadline trade-off, and keeps re-planning while a transfer is
in flight. The surrounding packages (cloud, monitor, transfer, streaming)
are substrates; this one is the contribution.
"""

from repro.core.cost import CostBreakdown, CostModel
from repro.core.decision import DecisionConfig, DecisionManager, ManagedTransfer
from repro.core.dissemination import (
    DisseminationPlan,
    DisseminationReport,
    Disseminator,
    plan_dissemination,
)
from repro.core.engine import SageEngine
from repro.core.paths import (
    MultiPathSelector,
    PathAllocation,
    TransferSchema,
    widest_path,
)
from repro.core.time_model import TransferTimeModel
from repro.core.tradeoff import TradeoffAnalyzer, TransferOption

__all__ = [
    "CostModel",
    "CostBreakdown",
    "Disseminator",
    "DisseminationPlan",
    "DisseminationReport",
    "plan_dissemination",
    "DecisionManager",
    "DecisionConfig",
    "ManagedTransfer",
    "SageEngine",
    "TransferTimeModel",
    "TradeoffAnalyzer",
    "TransferOption",
    "MultiPathSelector",
    "PathAllocation",
    "TransferSchema",
    "widest_path",
]
