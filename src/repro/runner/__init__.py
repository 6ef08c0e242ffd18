"""The unified run layer: declarative specs, backends, parallel runner.

Experiment drivers describe runs as frozen :class:`RunSpec` objects and
hand them to :func:`run_many`; the backend registry decides which
simulator executes each spec, the process pool fans specs out across
cores, and the on-disk cache (keyed by spec content hash) skips runs
already computed. Results come back in spec order with worker telemetry
merged into the caller's session, so parallel runs are byte-identical
to serial ones.
"""

from .backends import (
    Backend,
    backend_names,
    execute,
    get_backend,
    register,
    resolve_backend,
)
from .cache import CacheEntry, ResultCache
from .parallel import (
    RunnerConfig,
    current_config,
    run_many,
    run_one,
    using,
)
from .spec import (
    FluidScenarioResult,
    RunResult,
    RunSpec,
    ScenarioSpec,
    SenderSpec,
    derive_seed,
    freeze_mapping,
    safe_content_hash,
)

__all__ = [
    "Backend",
    "CacheEntry",
    "FluidScenarioResult",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "RunnerConfig",
    "ScenarioSpec",
    "SenderSpec",
    "backend_names",
    "current_config",
    "derive_seed",
    "execute",
    "freeze_mapping",
    "get_backend",
    "register",
    "resolve_backend",
    "run_many",
    "run_one",
    "safe_content_hash",
    "using",
]
