"""Shared fixtures: the loop nests used throughout the paper."""

import pytest

from repro.ir import Loop, LoopNest


@pytest.fixture
def correlation_nest() -> LoopNest:
    """Fig. 1: the triangular (i, j) sub-nest of the correlation kernel."""
    return LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")],
        parameters=["N"],
        name="correlation",
    )


@pytest.fixture
def rectangular_nest() -> LoopNest:
    """A plain rectangular nest (what OpenMP collapse already handles)."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "M")],
        parameters=["N", "M"],
        name="rectangular",
    )


@pytest.fixture
def trapezoidal_nest() -> LoopNest:
    """A trapezoidal nest: inner trip count i + M."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "i + M")],
        parameters=["N", "M"],
        name="trapezoid",
    )


@pytest.fixture
def rhomboidal_nest() -> LoopNest:
    """A rhomboidal (skewed) nest: j ranges over a window sliding with i."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "i", "i + N")],
        parameters=["N"],
        name="rhomboid",
    )
