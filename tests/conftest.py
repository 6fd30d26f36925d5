"""Shared fixtures and Hypothesis profiles for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.cache.geometry import CacheGeometry
from repro.mem.layout import MemoryMap

# Bounded-examples profiles: "tier1" (default) keeps the property
# suites fast enough for the tier-1 gate; "thorough" is for local deep
# runs and the weekly scheduled CI workflow
# (.github/workflows/deep-properties.yml, HYPOTHESIS_PROFILE=thorough).
# Suites that pin their own ``max_examples`` via @settings keep it —
# profiles only set the default.
settings.register_profile("tier1", max_examples=25, deadline=None)
settings.register_profile("thorough", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A 2 KB, 4-column cache (the Figure 4 configuration)."""
    return CacheGeometry(line_size=16, sets=32, columns=4)


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """A tiny cache for exhaustive checks: 4 sets x 2 columns x 16 B."""
    return CacheGeometry(line_size=16, sets=4, columns=2)


@pytest.fixture
def memory_map() -> MemoryMap:
    """A page-aligned memory map like the workloads use."""
    return MemoryMap(base=0x10000, page_size=64, page_aligned=True)
