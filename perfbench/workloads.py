"""The three workloads: which calls they issue, with what data, after what warm-up.

A *case* is one (source, size): a registered kernel at parameter values, or
one of the conformance sweep's transformed nests (``skewed_rect``,
``tiled_triangle``) at a ``transformed_scenarios`` extent.  An *op* is one
``RuntimeSession.run`` call: a case plus a requested backend and schedule.
The workload seed only draws the order of the ops; the cases, their data
and their references are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

BACKENDS = ("engine", "hybrid", "native", "auto")
#: the sweep nests carry no parsed statements, so they cannot run natively;
#: ``auto`` on them explores the engine and then reuses the engine's plan
NEST_BACKENDS = ("engine", "hybrid")
NESTS = ("skewed_rect", "tiled_triangle")


@dataclass(frozen=True)
class Case:
    source: str
    values: Tuple[Tuple[str, int], ...]
    #: ``transformed_scenarios`` extent of a sweep nest (0 for kernels)
    extent: int = 0

    @property
    def is_nest(self) -> bool:
        return self.source in NESTS

    @property
    def parameters(self) -> Dict[str, int]:
        return dict(self.values)

    @property
    def slug(self) -> str:
        return self.source + "".join(f"-{name}{value}" for name, value in self.values)


def kernel_case(name: str, **values: int) -> Case:
    return Case(name, tuple(sorted(values.items())))


def sweep_scenario(name: str, extent: int):
    from repro.analysis.sweep import transformed_scenarios

    return {s.name: s for s in transformed_scenarios(extent)}[name]


def nest_case(name: str, extent: int) -> Case:
    scenario = sweep_scenario(name, extent)
    return Case(name, tuple(sorted(scenario.parameter_values.items())), extent)


@dataclass(frozen=True)
class Op:
    case: Case
    backend: str
    schedule: str = "adaptive"


class Runner:
    """Issues ops on one session; builds per-op caller data outside the clock."""

    def __init__(self, session, caller_data: bool):
        self.session = session
        self.caller_data = caller_data
        self._scenarios: Dict[Case, object] = {}
        self._data: Dict[Case, dict] = {}

    def scenario(self, case: Case):
        if case not in self._scenarios:
            self._scenarios[case] = sweep_scenario(case.source, case.extent)
        return self._scenarios[case]

    def prepare(self, op: Op, reuse: bool) -> Optional[dict]:
        """The ``data=`` of one call (``None`` for session-owned buffers).

        Kernel runs never mutate caller data, so ``reuse`` keeps one copy per
        case; nest runs write into their grid, which is fresh every call.
        """
        case = op.case
        if case.is_nest:
            return self.scenario(case).make_data()
        if not self.caller_data:
            return None
        if reuse and case in self._data:
            return self._data[case]
        from repro.kernels import get_kernel

        data = get_kernel(case.source).make_data(case.parameters)
        if reuse:
            self._data[case] = data
        return data

    def call(self, op: Op, data):
        """One timed ``session.run``; returns the arrays to check."""
        case = op.case
        if not case.is_nest:
            return self.session.run(
                case.source, case.parameters, data=data, schedule=op.schedule,
                backend=op.backend,
            )
        from repro.analysis.sweep import _visit_chunk_op, _visit_op

        scenario = self.scenario(case)
        kwargs = dict(iteration_op=_visit_op, chunk_op=_visit_chunk_op)
        if op.backend in ("hybrid", "auto"):
            kwargs.update(c_body=scenario.c_body, c_arrays=("grid",))
        self.session.run(
            scenario.nest, case.parameters, data=data, schedule=op.schedule,
            backend=op.backend, **kwargs,
        )
        return data


class Workload:
    name = ""
    caller_data = False
    #: every op is a first call: memo caches are cleared before it
    cold = False

    def cases(self) -> List[Case]:
        raise NotImplementedError

    def warm_up(self, runner: Runner) -> None:
        raise NotImplementedError

    def ops(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError


class SteadyWorkload(Workload):
    """Warm calls over cases x backends, in seeded shuffled rounds, forever.

    Every round issues each (case, backend) pair once, so the mix is uniform
    and exactly balanced however long the run lasts.
    """

    def pairs(self) -> List[Op]:
        return [Op(case, backend) for case in self.cases() for backend in BACKENDS]

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        pairs = self.pairs()
        while True:
            rng.shuffle(pairs)
            yield from pairs

    def warm_up(self, runner: Runner) -> None:
        """Run every pair until ``auto`` has a timing for each candidate."""
        from repro.runtime import default_profile_store, profile_key

        for _round in range(5):
            for op in self.pairs():
                runner.call(op, runner.prepare(op, reuse=True))
            settled = all(
                {"engine", "hybrid", "native"}
                <= set(default_profile_store().load(profile_key(c.source, c.parameters)))
                for c in self.cases()
            )
            if settled and _round >= 1:
                return
        raise RuntimeError(f"{self.name}: auto did not settle during warm-up")


class SteadyTiny(SteadyWorkload):
    name = "steady-tiny"

    def cases(self) -> List[Case]:
        return [
            kernel_case("utma", N=8),
            kernel_case("ltmp", N=16),
            kernel_case("symm", N=16),
            kernel_case("syr2k", N=12, M=8),
        ]


class SteadyLarge(SteadyWorkload):
    name = "steady-large"
    caller_data = True

    def cases(self) -> List[Case]:
        return [kernel_case("utma", N=1024), kernel_case("ltmp", N=400)]


class ColdStream(Workload):
    """Every op a (source, size, schedule, backend) the process has not seen.

    The size ladder climbs like a user trying a kernel: a small rung under
    ``static``, a larger rung under ``adaptive``, then ltmp N=1024.  Within a
    rung the seed shuffles the (source, size) groups; inside a group the
    backends run in a fixed order, the engine first and ``auto`` last, as a
    user tries each backend before handing the choice over.  The order is
    fixed because it decides what each op finds warm: the engine plan that
    ``auto`` may reuse, the profile an adaptive cut reads, and which op pays
    the source's one compile-cache miss (the ``.so`` does not depend on the
    sizes).  That payer alternates between native and hybrid over the
    sources, so neither backend's median sits on the misses.
    """

    name = "cold-stream"
    caller_data = True
    cold = True
    #: (fraction of each kernel's bench size, sweep-nest extent, schedule)
    RUNGS = ((0.25, 16, "static"), (0.5, 48, "adaptive"))
    #: the case whose whole-range adaptive cut is the O(total) floor; the
    #: engine's Python body would dominate it, so only compiled bodies, in a
    #: fixed order: which big array is freed before the other is allocated
    #: decides the allocator's peak
    BIG = (kernel_case("ltmp", N=1024), ("hybrid", "native"))

    def groups(self) -> List[List[List[Op]]]:
        """Per rung, the ops of each (source, size) group in run order."""
        from repro.kernels import executable_kernels

        kernels = sorted(executable_kernels(), key=lambda kernel: kernel.name)
        rungs = []
        for fraction, extent, schedule in self.RUNGS:
            groups = []
            for index, kernel in enumerate(kernels):
                values = tuple(sorted(
                    (name, max(2, int(value * fraction)))
                    for name, value in kernel.bench_parameters.items()
                ))
                compiled = ("native", "hybrid") if index % 2 == 0 else ("hybrid", "native")
                backends = ("engine",) + compiled + ("auto",)
                groups.append([Op(Case(kernel.name, values), b, schedule) for b in backends])
            groups += [
                [Op(nest_case(name, extent), b, schedule) for b in NEST_BACKENDS]
                for name in NESTS
            ]
            rungs.append(groups)
        return rungs

    def cases(self) -> List[Case]:
        cases = [group[0].case for rung in self.groups() for group in rung]
        return cases + [self.BIG[0]]

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        for groups in self.groups():
            rng.shuffle(groups)
            for group in groups:
                yield from group
        case, backends = self.BIG
        for backend in backends:
            yield Op(case, backend)

    def warm_up(self, runner: Runner) -> None:
        """Start the pool and probe the compiler, then empty every cache.

        The warm-up sizes are off the ladder; afterwards the memo caches,
        the native cache and the profile store are cleared through their
        public functions, so the stream starts cold.
        """
        from repro.native import clear_native_cache
        from repro.runtime import default_profile_store

        for op in [Op(kernel_case("utma", N=8), b) for b in BACKENDS] + [
            Op(nest_case("skewed_rect", 8), b) for b in NEST_BACKENDS
        ]:
            runner.call(op, runner.prepare(op, reuse=False))
        clear_memo_caches()
        clear_native_cache()
        default_profile_store().clear()


def clear_memo_caches() -> None:
    from repro.core import clear_batch_cache, clear_collapse_cache
    from repro.native import clear_module_cache

    clear_collapse_cache()
    clear_batch_cache()
    clear_module_cache()


WORKLOADS = {w.name: w for w in (SteadyTiny(), SteadyLarge(), ColdStream())}
