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

    Passes never mutate the shared ASTs, so every in-process staticcheck
    test passes this list (or :func:`tree_with`'s extension of it)
    through ``files=``.
    """
    from repro.staticcheck.runner import default_root
    from repro.staticcheck.source import load_tree

    return load_tree(default_root())


@pytest.fixture
def tree_with(repo_tree):
    """``tree_with(path)``: the shared tree plus one parsed fixture file.

    The fixture gets module name ``<fixture>`` and its own path as the
    display path, so a test picks its findings out by ``path.as_posix()``.
    The result is a new list; ``repo_tree`` itself is never extended.
    """
    from repro.staticcheck.source import parse_source

    def build(path):
        fixture = parse_source(path.as_posix(), path.read_text(), "<fixture>")
        return repo_tree + [fixture]

    return build


@pytest.fixture
def small_params():
    """A 2-chip x 2-processor machine: fast, still exercises inter-CMP paths."""
    return SystemParams(num_chips=2, procs_per_chip=2, tokens_per_block=16)


@pytest.fixture
def full_params():
    """The paper's 4x4 target system."""
    return SystemParams()
