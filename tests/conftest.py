"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.policy import VminPolicyTable
from repro.platform.chip import Chip
from repro.platform.specs import xgene2_spec, xgene3_spec
from repro.power.model import PowerModel
from repro.vmin.model import VminModel
from repro.workloads.generator import ServerWorkloadGenerator
from repro.workloads.suites import get_benchmark


@pytest.fixture(scope="module")
def restore_registry():
    """Unregister every platform a test module registers, afterwards."""
    from repro.platform import registry

    registry.platform_keys()  # load the built-ins before the snapshot
    models = dict(registry._MODELS)
    names = dict(registry._BY_SPEC_NAME)
    yield
    registry._MODELS.clear()
    registry._MODELS.update(models)
    registry._BY_SPEC_NAME.clear()
    registry._BY_SPEC_NAME.update(names)


@pytest.fixture
def spec2():
    """X-Gene 2 spec."""
    return xgene2_spec()


@pytest.fixture
def spec3():
    """X-Gene 3 spec."""
    return xgene3_spec()


@pytest.fixture
def chip2():
    """Fresh X-Gene 2 chip (paper silicon)."""
    return Chip(xgene2_spec())


@pytest.fixture
def chip3():
    """Fresh X-Gene 3 chip (paper silicon)."""
    return Chip(xgene3_spec())


@pytest.fixture
def vmin2(spec2):
    """Ground-truth Vmin model of the paper's X-Gene 2."""
    return VminModel(spec2)


@pytest.fixture
def vmin3(spec3):
    """Ground-truth Vmin model of the paper's X-Gene 3."""
    return VminModel(spec3)


@pytest.fixture
def power2(spec2):
    """X-Gene 2 power model."""
    return PowerModel(spec2)


@pytest.fixture
def power3(spec3):
    """X-Gene 3 power model."""
    return PowerModel(spec3)


@pytest.fixture(scope="session")
def policy2():
    """Characterization-backed policy table for X-Gene 2 (cached)."""
    return VminPolicyTable.from_characterization(xgene2_spec())


@pytest.fixture(scope="session")
def policy3():
    """Characterization-backed policy table for X-Gene 3 (cached)."""
    return VminPolicyTable.from_characterization(xgene3_spec())


@pytest.fixture
def namd():
    """The most CPU-intensive SPEC profile."""
    return get_benchmark("namd")


@pytest.fixture
def cg():
    """The most memory-intensive NPB profile."""
    return get_benchmark("CG")


@pytest.fixture
def short_workload2():
    """Small deterministic workload for the 8-core chip."""
    return ServerWorkloadGenerator(max_cores=8, seed=7).generate(300.0)


@pytest.fixture
def short_workload3():
    """Small deterministic workload for the 32-core chip."""
    return ServerWorkloadGenerator(max_cores=32, seed=7).generate(300.0)
