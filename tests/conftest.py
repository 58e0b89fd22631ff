from __future__ import annotations

import multiprocessing
import os

import pytest

from authchain.harness import World, setup_world

pytest_plugins = ["pytester"]

SMALL = dict(n_validators=3, n_users=10, n_resources=10, seed=42)

# The Ed25519 identity point as a verify key, and R = identity with S = 0:
# [S]B = R + [k]A holds for every message's k, so a verifier that accepts
# small-order keys takes this signature for any message.
IDENTITY_KEY = (1).to_bytes(32, "little")
UNIVERSAL_SIG = IDENTITY_KEY + bytes(32)

# X25519 u-coordinates (RFC 7748) whose exchange with any secret gives the
# all-zero shared secret: 0, 1, p - 1, the non-canonical p and p + 1, and
# the two points of order 8.  As an ephemeral key, each must fail
# decryption.
_P25519 = 2**255 - 19
SMALL_ORDER_X25519 = {
    name: u.to_bytes(32, "little")
    for name, u in (
        ("zero", 0),
        ("one", 1),
        ("p-1", _P25519 - 1),
        ("p", _P25519),
        ("p+1", _P25519 + 1),
        ("order-8-a", 325606250916557431795983626356110631294008115727848805560023387167927233504),
        ("order-8-b", 39382357235489614581723060781553021112529911719440698176882885853963445705823),
    )
}


def build_small_world(seed: int = 42, **overrides) -> World:
    params = dict(SMALL)
    params["seed"] = seed
    params.update(overrides)
    return setup_world(**params)


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that returns with a child process still alive, or
    exited but not reaped.  ``waitid`` also sees children made with a bare
    ``os.fork``, which ``multiprocessing`` does not know of."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"
    try:
        child = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return
    pytest.fail(f"child process left running or unreaped: {child or 'still running'}")


@pytest.fixture(scope="session")
def shared_world() -> World:
    """Read-mostly world shared across tests; tests that mutate heavily
    build their own via build_small_world."""
    return build_small_world()


@pytest.fixture()
def fresh_world() -> World:
    return build_small_world()
