"""Shared fixtures for the test suite.

The expensive artifacts (aging workloads, aged file systems) are built
once per session at a deliberately small scale; tests that mutate a file
system always work on copies.
"""

from __future__ import annotations

import copy
import os

import pytest

from repro import cache
from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.replay import age_file_system
from repro.ffs.filesystem import FileSystem
from repro.ffs.params import FSParams, scaled_params
from repro.units import MB


TEST_SEED = 20260706


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_cache(tmp_path_factory):
    """Point the persistent artifact cache at a session-private tmp dir.

    Tests still exercise the cache code path (and benefit from warm
    reruns within the session), but never read from or litter the
    developer's ``.repro-cache/``.
    """
    prior = os.environ.get(cache.ENV_DIR)
    os.environ[cache.ENV_DIR] = str(tmp_path_factory.mktemp("artifact-cache"))
    yield
    if prior is None:
        os.environ.pop(cache.ENV_DIR, None)
    else:
        os.environ[cache.ENV_DIR] = prior


@pytest.fixture
def private_cache(tmp_path):
    """Point the artifact cache at a private directory for one test;
    yields that directory."""
    from repro.experiments import config

    directory = tmp_path / "cache"
    cache.configure(enabled=True, directory=str(directory))
    config.clear_caches()
    yield directory
    cache.configure()
    config.clear_caches()


@pytest.fixture(scope="session")
def tiny_params() -> FSParams:
    """A small but structurally faithful file system (same block sizes,
    maxcontig, and blocks-per-group ballpark as the paper)."""
    return scaled_params(24 * MB)


@pytest.fixture(scope="session")
def aging_artifacts(tiny_params):
    """Ground truth + snapshots + reconstruction at test scale."""
    config = AgingConfig(params=tiny_params, days=25, seed=TEST_SEED)
    return build_workloads(config)


@pytest.fixture(scope="session")
def aged_ffs(tiny_params, aging_artifacts):
    """A file system aged under the original policy (session-shared,
    treat as read-only)."""
    return age_file_system(
        aging_artifacts.reconstructed, params=tiny_params, policy="ffs"
    )


@pytest.fixture(scope="session")
def aged_realloc(tiny_params, aging_artifacts):
    """A file system aged under the realloc policy (session-shared,
    treat as read-only)."""
    return age_file_system(
        aging_artifacts.reconstructed, params=tiny_params, policy="realloc"
    )


@pytest.fixture
def aged_ffs_copy(aged_ffs) -> FileSystem:
    """A mutable copy of the FFS-aged file system."""
    return copy.deepcopy(aged_ffs.fs)


@pytest.fixture
def aged_realloc_copy(aged_realloc) -> FileSystem:
    """A mutable copy of the realloc-aged file system."""
    return copy.deepcopy(aged_realloc.fs)


@pytest.fixture
def fresh_fs(tiny_params) -> FileSystem:
    """A brand-new empty file system under the original policy."""
    return FileSystem(params=tiny_params, policy="ffs")


@pytest.fixture
def fresh_realloc_fs(tiny_params) -> FileSystem:
    """A brand-new empty file system under the realloc policy."""
    return FileSystem(params=tiny_params, policy="realloc")
