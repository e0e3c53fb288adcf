"""Shared infrastructure for the native-backend tests.

Every test that needs a C compiler is marked to *skip* (never fail) where
none exists — the acceptance contract of the backend on bare machines.
"""

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
def simplex3_nest() -> LoopNest:
    """A 3-deep simplex whose trip count passes 2^31 before N reaches 2600."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", 0, "j + 1")],
        parameters=["N"],
        name="simplex3",
    )
