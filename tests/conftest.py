from __future__ import annotations

import multiprocessing

import pytest

from authchain.harness import World, setup_world


SMALL = dict(n_validators=3, n_users=10, n_resources=10, seed=42)


def build_small_world(seed: int = 42, **overrides) -> World:
    params = dict(SMALL)
    params["seed"] = seed
    params.update(overrides)
    return setup_world(**params)


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that returns with a child process still alive."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(scope="session")
def shared_world() -> World:
    """Read-mostly world shared across tests; tests that mutate heavily
    build their own via build_small_world."""
    return build_small_world()


@pytest.fixture()
def fresh_world() -> World:
    return build_small_world()
