"""Shared fixtures: small models reused across the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.builder import FMTBuilder
from repro.maintenance.actions import clean
from repro.maintenance.modules import InspectionModule
from repro.maintenance.strategy import MaintenanceStrategy

# Tier-1 is deterministic: every property test draws the same examples
# on every run (derandomize also turns the example database off).  Each
# test keeps its own max_examples.  For a randomized search, run with
# ``--hypothesis-profile default`` or ``--hypothesis-seed <n>``.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    """A deterministic RNG for sampling tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def simple_or_tree():
    """top = a OR b, exponential leaves."""
    builder = FMTBuilder("simple_or")
    builder.basic_event("a", rate=0.5)
    builder.basic_event("b", rate=0.25)
    builder.or_gate("top", ["a", "b"])
    return builder.build("top")


@pytest.fixture
def simple_and_tree():
    """top = a AND b, exponential leaves."""
    builder = FMTBuilder("simple_and")
    builder.basic_event("a", rate=0.5)
    builder.basic_event("b", rate=0.25)
    builder.and_gate("top", ["a", "b"])
    return builder.build("top")


@pytest.fixture
def voting_tree():
    """top = 2-of-3 over exponential leaves."""
    builder = FMTBuilder("vote23")
    for name in ("a", "b", "c"):
        builder.basic_event(name, rate=0.2)
    builder.voting_gate("top", 2, ["a", "b", "c"])
    return builder.build("top")


@pytest.fixture
def layered_tree():
    """Two-level tree with a shared subtree and mixed gates."""
    builder = FMTBuilder("layered")
    builder.basic_event("a", rate=0.1)
    builder.basic_event("b", rate=0.2)
    builder.basic_event("c", rate=0.3)
    builder.degraded_event("d", phases=3, mean=5.0, threshold=2)
    builder.and_gate("ab", ["a", "b"])
    builder.voting_gate("bcd", 2, ["b", "c", "d"])
    builder.or_gate("top", ["ab", "bcd"])
    return builder.build("top")


@pytest.fixture
def maintained_tree():
    """Degrading component + inspection module + RDEP, for FMT tests."""
    builder = FMTBuilder("maintained")
    builder.degraded_event("wear", phases=4, mean=8.0, threshold=2)
    builder.basic_event("shock", rate=0.05)
    builder.or_gate("top", ["wear", "shock"])
    builder.rdep("accel", trigger="shock", targets=["wear"], factor=5.0)
    return builder.build("top")


@pytest.fixture
def inspection_strategy():
    """Quarterly cleaning of the 'wear' component."""
    module = InspectionModule(
        "insp", period=0.25, targets=["wear"], action=clean()
    )
    return MaintenanceStrategy(
        "inspect", inspections=(module,), on_system_failure="replace"
    )
