"""The one plan source value and the keys derived from its fingerprint.

``Source.of`` folds a loop and the parts a run executes (Python ops, C
body, arrays, ranks, compile flags) into one value; the session's plan
cache, the profile store and the native module memo all key on its
fingerprint.  The key-coverage tests pin that every part that changes the
artefact or the measurement separates all three keys, and that equal
sources share them.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ir import Loop, LoopNest, enumerate_iterations, parse_loop_nest
from repro.kernels import get_kernel, run_original
from repro.native import native_available
from repro.runtime import (
    PlanError,
    RuntimeSession,
    Source,
    default_profile_store,
    profile_key,
)

needs_compiler = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)

VALUES = {"N": 12}


def _visit_op(data, indices, values):
    data["visits"][indices] += 1.0


def _other_visit_op(data, indices, values):
    data["visits"][indices] += 1.0


def _triangle_nest():
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
        parameters=["N"],
        name="source_triangle",
    )


def _expected_visits(nest, values, weight=1.0):
    expected = np.zeros((values["N"], values["N"]))
    for indices in enumerate_iterations(nest, values):
        expected[indices] += weight
    return expected


# ---------------------------------------------------------------------- #
# the normaliser
# ---------------------------------------------------------------------- #
class TestNormaliser:
    def test_kernel_name_and_object_give_one_value(self):
        assert Source.of("utma") is Source.of(get_kernel("utma"))

    def test_a_value_is_returned_unchanged(self):
        source = Source.of(_triangle_nest(), iteration_op=_visit_op)
        assert Source.of(source) is source
        with pytest.raises(PlanError, match="already holds its parts"):
            Source.of(source, compile_flags=("-O1",))

    def test_kernel_brings_its_own_parts(self):
        kernel = get_kernel("utma")
        source = Source.of(kernel, compile_flags=("-O1",))
        assert source.kernel is kernel and source.kernel_name == "utma"
        assert source.iteration_op is kernel.iteration_op
        assert source.c_body == kernel.c_body
        assert source.c_arrays == tuple(kernel.c_arrays)
        assert source.compile_flags == ("-O1",)
        assert source.has_python_ops and source.has_c_body

    @pytest.mark.parametrize(
        "part",
        [
            {"iteration_op": _visit_op},
            {"chunk_op": _visit_op},
            {"c_body": "c(i, j) = 0.0;"},
            {"c_arrays": ("c",)},
            {"array_ndims": {"c": 2}},
        ],
        ids=lambda part: next(iter(part)),
    )
    def test_kernel_rejects_every_other_part_by_name(self, part):
        (name,) = part
        with pytest.raises(PlanError, match=name):
            Source.of("utma", **part)

    def test_parsed_nest_brings_its_body_arrays_and_ranks(self):
        nest, _ = parse_loop_nest(
            "for (i = 0; i < N; i++)\n  for (j = i; j < N; j++)\n    hist(i) += a(i, j);",
            parameters=["N"],
        )
        source = Source.of(nest)
        assert source.c_body == "hist(i) += a(i, j);"
        assert source.c_arrays == ("hist", "a")
        assert source.array_ndims == (("a", 2), ("hist", 1))
        assert not source.has_python_ops
        explicit = Source.of(nest, c_body="hist(i) += 1.0;", c_arrays=("hist",))
        assert explicit.c_body == "hist(i) += 1.0;" and explicit.array_ndims == ()

    def test_opaque_nest_has_no_body(self):
        source = Source.of(_triangle_nest(), chunk_op=_visit_op)
        assert source.c_body is None and not source.has_c_body
        assert source.has_python_ops and source.kernel is None

    def test_unknown_source_and_unpicklable_op_raise(self):
        with pytest.raises(PlanError, match="cannot build a plan from object"):
            Source.of(object())
        with pytest.raises(PlanError, match="picklable"):
            Source.of(_triangle_nest(), iteration_op=lambda d, i, v: None)
        with pytest.raises(TypeError, match="depth"):
            Source.of("utma", depth=1)

    def test_fingerprint_is_the_same_in_a_fresh_process(self):
        """No ``id()``, ``hash()`` or address-bearing ``repr`` may reach
        the fingerprint: a second interpreter computes the same digests."""
        script = (
            "from repro.ir import Loop, LoopNest\n"
            "from repro.runtime import Source\n"
            "from repro.analysis.sweep import _visit_op\n"
            "nest = LoopNest([Loop.make('i', 0, 'N'), Loop.make('j', 'i', 'N')],"
            " parameters=['N'], name='source_triangle')\n"
            "print(Source.of('utma', compile_flags=('-O1',)).fingerprint)\n"
            "print(Source.of(nest, iteration_op=_visit_op, c_body='v(i, j) = 1.0;',"
            " c_arrays=('v',)).fingerprint)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout.split()
        from repro.analysis.sweep import _visit_op as sweep_visit_op

        here = [
            Source.of("utma", compile_flags=("-O1",)).fingerprint,
            Source.of(
                _triangle_nest(), iteration_op=sweep_visit_op, c_body="v(i, j) = 1.0;",
                c_arrays=("v",),
            ).fingerprint,
        ]
        assert output == here


# ---------------------------------------------------------------------- #
# key coverage: plan, profile entry and module
# ---------------------------------------------------------------------- #
@needs_compiler
class TestKeyCoverage:
    """Every part that changes the artefact or the measurement separates
    the plan, the profile entry and the module; equal sources share all
    three."""

    def _run_nest(self, session, weight=1.0, **parts):
        nest = _triangle_nest()
        parts.setdefault("iteration_op", _visit_op)
        parts.setdefault("c_body", f"visits(i, j) += {weight};")
        parts.setdefault("c_arrays", ("visits",))
        data = {"visits": np.zeros((VALUES["N"], VALUES["N"]))}
        session.run(nest, VALUES, data=data, backend="hybrid", **parts)
        assert np.array_equal(data["visits"], _expected_visits(nest, VALUES, weight))
        return session.plan_for(Source.of(nest, **parts), VALUES)

    def _assert_separate(self, first, second):
        assert first is not second
        assert first.profile_key != second.profile_key
        assert first.native_module is not second.native_module
        store = default_profile_store()
        assert "hybrid" in store.load(first.profile_key)
        assert "hybrid" in store.load(second.profile_key)
        store.flush()
        assert len(list(store.root.glob("*.profile.json"))) == 2

    def test_two_c_bodies_never_share(self):
        with RuntimeSession(workers=2) as session:
            once = self._run_nest(session, weight=1.0)
            twice = self._run_nest(session, weight=2.0)
            self._assert_separate(once, twice)

    def test_two_flag_sets_never_share(self):
        with RuntimeSession(workers=2) as session:
            plain = self._run_nest(session, compile_flags=("-DREPRO_KEY=1",))
            flagged = self._run_nest(session, compile_flags=("-DREPRO_KEY=2",))
            self._assert_separate(plain, flagged)
            assert plain.native_module.library_path != flagged.native_module.library_path

    def test_two_iteration_ops_never_share(self):
        with RuntimeSession(workers=2) as session:
            first = self._run_nest(session, iteration_op=_visit_op)
            second = self._run_nest(session, iteration_op=_other_visit_op)
            self._assert_separate(first, second)

    def test_kernel_by_name_and_by_object_share_all_three(self):
        kernel = get_kernel("utma")
        values = {"N": 16}
        expected = run_original(kernel, values)["c"]
        with RuntimeSession(workers=2) as session:
            by_name = session.run("utma", values, backend="hybrid")
            by_object = session.run(kernel, values, backend="hybrid")
            assert np.array_equal(by_name["c"], expected)
            assert np.array_equal(by_object["c"], expected)
            named = session.plan_for("utma", values)
            assert session.plan_for(kernel, values) is named
            assert session.cache_info()["plans"] == 1
        assert list(default_profile_store().load(named.profile_key)) == ["hybrid"]
        assert default_profile_store().load(named.profile_key)["hybrid"].runs == 2

    @pytest.mark.parametrize("backend", ["engine", "hybrid", "native"])
    def test_kernel_profile_key_is_every_backends_plan_key(self, backend):
        values = {"N": 16}
        with RuntimeSession(workers=2) as session:
            session.run("utma", values, backend=backend)
            plan = session.plan_for("utma", values)
        assert plan.profile_key == profile_key("utma", values)
        assert backend in default_profile_store().load(profile_key("utma", values))
