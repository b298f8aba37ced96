import signal
import time

import pytest

from afembed.embedding import embed
from afembed.graph import parse_graph
from afembed.verify import RelationStatus


def failed_rows(report) -> list:
    """The rows of a symbolic report whose outcome is FAILED, in order."""
    checks = report.checks
    return [c for c in map(checks.row, checks.held()) if c.status is RelationStatus.FAILED]


@pytest.fixture(autouse=True)
def sigpipe_unchanged():
    """Fails a test that leaves the ``SIGPIPE`` disposition changed, and
    restores it: at its default action, a later test whose child exits
    leaving piped input unread would end pytest itself, exit 141 with no
    summary."""
    found = signal.getsignal(signal.SIGPIPE)
    yield
    left = signal.getsignal(signal.SIGPIPE)
    signal.signal(signal.SIGPIPE, found)
    assert left == found, f"the test left SIGPIPE at {left!r}, not {found!r}"


def growth_ratio(small, large, bound: float, attempts: int = 3, repeats: int = 7) -> float:
    """Least wall time of ``large()`` over least wall time of ``small()``.

    The calls alternate, so both sizes see the same phases of the host's
    other load, and the least time of each is the run it disturbed least.
    A neighbour that fights for the caches can still push a linear ratio
    near ``bound``, so the measurement is repeated, up to ``attempts``
    times, until one reads below it; the least ratio is returned.  Growth
    that is really faster than ``bound`` reads above it every time.
    """
    least = float("inf")
    for _ in range(attempts):
        best = {small: float("inf"), large: float("inf")}
        for _ in range(repeats):
            for fn in (small, large):
                started = time.perf_counter()
                fn()
                best[fn] = min(best[fn], time.perf_counter() - started)
        least = min(least, best[large] / best[small])
        if least < bound:
            break
    return least


SQUARE_TEXT = """\
# the 4-cycle: u_i -> u_{i+1 mod 4}
vertex u1
vertex u2
vertex u3
vertex u4
edge e1 u1 u2
edge e2 u2 u3
edge e3 u3 u4
edge e4 u4 u1
"""


@pytest.fixture(scope="session")
def square():
    return parse_graph(SQUARE_TEXT)


@pytest.fixture(scope="session")
def square_embedding(square):
    return embed(square)


@pytest.fixture(scope="session")
def self_loop():
    return parse_graph("vertex u\nedge e u u\n")


@pytest.fixture(scope="session")
def two_self_loops():
    return parse_graph("vertex v\nedge a v v\nedge b v v\n")


@pytest.fixture(scope="session")
def square_plus_entrance():
    return parse_graph(SQUARE_TEXT + "vertex w\nedge x w u2\n")
