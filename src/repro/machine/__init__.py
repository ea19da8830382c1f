"""Machine models: penalty tables, predictors, caches."""

from repro.machine.icache import (
    CacheStats,
    DirectMappedICache,
    WORD_BYTES,
)
from repro.machine.models import (
    ALPHA_21064,
    ALPHA_21164,
    DEEP_PIPE,
    STANDARD_MODELS,
    UNIT_COST,
    BranchPenalties,
    PenaltyModel,
    get_model,
)
from repro.machine.predictors import (
    BimodalPredictor,
    BranchTargetBuffer,
    StaticPredictor,
)

# NOTE: repro.machine.timing is intentionally not re-exported here: it sits
# above repro.core in the dependency order (it consumes layouts), so pulling
# it into this package's import would create a cycle.  Import it as
# ``from repro.machine.timing import simulate_timing``.

__all__ = [
    "ALPHA_21064",
    "ALPHA_21164",
    "BimodalPredictor",
    "BranchPenalties",
    "BranchTargetBuffer",
    "CacheStats",
    "DEEP_PIPE",
    "DirectMappedICache",
    "PenaltyModel",
    "STANDARD_MODELS",
    "StaticPredictor",
    "UNIT_COST",
    "WORD_BYTES",
    "get_model",
]
