import weakref

import pytest

from liaison import ring
from liaison.ring import make_ring


@pytest.fixture(autouse=True)
def cold_rings(monkeypatch):
    """An empty ring registry for each test, so that equal ring definitions
    share a ring within a test but no test sees another's rings and cached
    values (work pins and cold-cache tests count on it).  Calling the
    fixture's value empties the registry again: the next ``make_ring``
    builds a ring with a cold cache."""

    def cold():
        monkeypatch.setattr(ring, "_RINGS", weakref.WeakValueDictionary())

    cold()
    return cold


@pytest.fixture(scope="session")
def F101x():
    return make_ring(101, ["x"])


@pytest.fixture(scope="session")
def F101xy():
    return make_ring(101, ["x", "y"])


@pytest.fixture(scope="session")
def F7xy():
    return make_ring(7, ["x", "y"])


@pytest.fixture(scope="session")
def F101xyzw():
    return make_ring(101, ["x", "y", "z", "w"])


@pytest.fixture(scope="session")
def cubic_ideal(F101xyzw):
    from liaison.ring import parse_poly

    return [
        parse_poly(F101xyzw, s) for s in ("x*z - y^2", "y*w - z^2", "x*w - y*z")
    ]


@pytest.fixture(scope="session")
def hypersurface():
    return make_ring(101, ["x", "y"], ["x*y"])


@pytest.fixture(scope="session")
def semigroup345():
    # coordinate ring of the monomial curve (t^3, t^4, t^5); weights 3,4,5
    return make_ring(
        101,
        ["x", "y", "z"],
        ["y^2 - x*z", "z^2 - x^2*y", "x^3 - y*z"],
        weights=[3, 4, 5],
    )
