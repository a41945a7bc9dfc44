"""Shared fixtures for protocol integration tests."""

import pytest

from repro.common.params import SystemParams

ALL_PROTOCOLS = [
    "TokenCMP-arb0",
    "TokenCMP-dst0",
    "TokenCMP-dst4",
    "TokenCMP-dst1",
    "TokenCMP-dst1-pred",
    "TokenCMP-dst1-filt",
    "DirectoryCMP",
    "DirectoryCMP-zero",
    "PerfectL2",
]

TOKEN_PROTOCOLS = [p for p in ALL_PROTOCOLS if p.startswith("Token")]
COHERENT_PROTOCOLS = [p for p in ALL_PROTOCOLS if p != "PerfectL2"]


@pytest.fixture(scope="session")
def repo_tree():
    """The ``repro`` package loaded once for the in-process staticcheck tests.

    Passes never mutate the shared ASTs, so every test that reads the
    real tree without fixture files can pass this through ``files=``.
    """
    from repro.staticcheck.runner import default_root
    from repro.staticcheck.source import load_tree

    return load_tree(default_root())


@pytest.fixture
def small_params():
    """A 2-chip x 2-processor machine: fast, still exercises inter-CMP paths."""
    return SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)


@pytest.fixture
def full_params():
    """The paper's 4x4 target system."""
    return SystemParams()
