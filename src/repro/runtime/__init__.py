"""The persistent parallel runtime: plans, shared memory, engine, sessions.

Where :mod:`repro.openmp` models OpenMP schedules (simulator) and provides a
fork-per-call ``multiprocessing`` spot check, this package is the serving
layer the ROADMAP asks for: a pool that starts once, kernel arrays that are
mapped zero-copy into every worker, plans that compile once and execute many
times, and a schedule decision — including the cost-model-driven
``adaptive`` policy — made per plan instead of per benchmark script.

* :mod:`repro.runtime.source` — :class:`Source`, the one value of a
  loop and the parts a run executes, and its fingerprint,
* :mod:`repro.runtime.plan` — :class:`ExecutionPlan` and the equal-work
  ``adaptive`` chunker,
* :mod:`repro.runtime.shm` — :class:`SharedBuffers` segment management,
* :mod:`repro.runtime.engine` — the persistent :class:`RuntimeEngine`,
* :mod:`repro.runtime.profile` — the unified timing layer: the persistent
  :class:`ProfileStore`, profile-guided chunk re-cutting and the
  ``backend="auto"`` choice policy,
* :mod:`repro.runtime.session` — plan-caching :class:`RuntimeSession` and
  the one-call :func:`collapse_and_run`.

See docs/runtime.md for the architecture walk-through.
"""

from .shm import SharedArraySpec, SharedBufferError, SharedBuffers
from .source import Source
from .plan import (
    DEFAULT_OVERSUBSCRIBE,
    ExecutionPlan,
    PlanError,
    adaptive_chunks,
    build_plan,
    per_iteration_work,
)
from .engine import EngineError, RunResult, RuntimeEngine
from .profile import (
    BackendProfile,
    ProfileError,
    ProfileStore,
    choose_backend,
    default_profile_store,
    profile_guided_chunks,
    profile_key,
)
from .session import (
    RuntimeSession,
    close_default_session,
    collapse_and_run,
    default_session,
    resolve_auto_backend,
)

__all__ = [
    "SharedArraySpec",
    "SharedBufferError",
    "SharedBuffers",
    "Source",
    "DEFAULT_OVERSUBSCRIBE",
    "ExecutionPlan",
    "PlanError",
    "adaptive_chunks",
    "build_plan",
    "per_iteration_work",
    "EngineError",
    "RunResult",
    "RuntimeEngine",
    "BackendProfile",
    "ProfileError",
    "ProfileStore",
    "choose_backend",
    "default_profile_store",
    "profile_guided_chunks",
    "profile_key",
    "RuntimeSession",
    "close_default_session",
    "collapse_and_run",
    "default_session",
    "resolve_auto_backend",
]
