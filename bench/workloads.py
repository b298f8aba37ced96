"""The fixed request list of each workload.

A request is one ``afembed`` invocation on one generated graph.  The list
(commands, options and graph shapes, in order) is the same for every seed;
the seed only draws labels and fringe endpoints, so a pass over the list
costs about the same whatever the seed.  Every pass draws fresh graphs, so
no input repeats within a run.

``smoke`` selects the smallest size of each family, for a check of the
benchmark itself that finishes in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gen import Planted, cycle_forest, diamond_ladder, layered_dag, planted


@dataclass(frozen=True)
class Request:
    command: str
    options: tuple[str, ...]
    graph: Planted


# (cycle lengths, fringe vertices, extra edges, entrances); at most 8 vertices each
SMALL_SHAPES = {
    "af": [((), 6, 8, 0), ((), 8, 12, 0), ((), 4, 5, 0)],
    "embeddable": [((3,), 3, 4, 0), ((1, 2), 4, 5, 0), ((2, 2), 3, 4, 0)],
    "not-finite": [((3,), 3, 3, 1), ((1, 2), 2, 3, 1), ((4,), 2, 3, 2)],
}
SMALL_COMMANDS = ("classify", "loops", "embed")


def structure_mix(rng: random.Random, smoke: bool) -> list[Request]:
    """Classify, loops and embed; no symbolic or numeric work.

    21 small graphs, 7 of each verdict, each verdict paired with 7 distinct
    (command, shape) combinations; import dominates these.  Five large
    requests stress the Tarjan pass, the witness search and namespace
    picking; one is placed after every fourth small request.
    """
    small = []
    for j in range(1 if smoke else 7):
        for kind, shapes in SMALL_SHAPES.items():
            cycles, fringe, extra, entrances = shapes[(j + j // 3) % 3]
            small.append(Request(SMALL_COMMANDS[j % 3], (), planted(rng, cycles, fringe, extra, entrances)))
    n, loops, rungs = (50, 20, (3, 4)) if smoke else (50_000, 2_000, (15, 16))
    large = [
        Request("classify", (), planted(rng, (n,))),
        Request("loops", (), planted(rng, (n,))),
        Request("embed", (), planted(rng, (1,) * loops)),
        Request("classify", (), diamond_ladder(rng, rungs[0])),
        Request("classify", (), diamond_ladder(rng, rungs[1])),
    ]
    out = []
    for i, req in enumerate(small):
        out.append(req)
        if i % 4 == 3 and large:
            out.append(large.pop(0))
    return out + large


def verify_wide(rng: random.Random, smoke: bool) -> list[Request]:
    """``verify`` at the default depth on graphs with many generators.

    CK2 has |E|**2 instances while the basis stays small, so the cost per
    relation instance dominates.  Sizes come in groups of similar cost, so
    that the median and the tail fall inside a group and do not hinge on
    the noise of a single request.
    """
    if smoke:
        return [
            Request("verify", (), planted(rng, (4,))),
            Request("verify", (), cycle_forest(rng, (2, 3), 6)),
            Request("verify", (), layered_dag(rng, 2, 3, 2)),
        ]
    sizes = (16, 16, 16, 24, 24, 24, 32, 32, 32, 32, 40, 40, 40, 48, 48, 48)
    reqs = [Request("verify", (), planted(rng, (n,))) for n in sizes]
    reqs += [
        Request("verify", (), cycle_forest(rng, tuple(2 + i % 2 for i in range(c)), 6))
        for c in (10, 15, 20)
    ]
    reqs += [Request("verify", (), layered_dag(rng, 3, 8, 3)) for _ in range(2)]
    return reqs


DEEP_OPTIONS = [
    ("--depth", "9"),
    ("--depth", "10"),
    ("--depth", "11"),
    ("--mult", "3", "--depth", "7"),
    ("--mult", "3,3;2", "--depth", "8"),
]


def verify_deep(rng: random.Random, smoke: bool) -> list[Request]:
    """``verify`` on 1- to 4-edge loops at large depth.

    Few relation instances but a basis dimension of 4k to 16k, so the
    dense spectra, then building the representation, dominate what import
    leaves.  Memory peaks near 600 MB at depth 11.  Each loop length
    also runs at depth 10 with one exit edge, which adds paths but no
    loop.  A self-loop at depth 12 needs about 2 GB and is left out.
    """
    if smoke:
        return [Request("verify", ("--depth", "3"), planted(rng, (n,))) for n in (1, 2)]
    reqs = []
    for n in (1, 2, 3, 4):
        reqs += [Request("verify", opts, planted(rng, (n,))) for opts in DEEP_OPTIONS]
        reqs.append(Request("verify", ("--depth", "10"), planted(rng, (n,), fringe=1, extra_edges=1)))
    return reqs


WORKLOADS = {
    "structure-mix": structure_mix,
    "verify-wide": verify_wide,
    "verify-deep": verify_deep,
}
