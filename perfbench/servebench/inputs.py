"""Seeded inputs: relations, statement streams and append batches.

Everything a run sends to the server is generated here from the
``--seed`` argument alone, before any clock starts.  The server only
ever receives these rows and statement texts.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.relation.tuples import TemporalTuple
from repro.workload.generator import (
    PAPER_LIFESPAN,
    WorkloadParameters,
    generate_relation,
)

TABLE = "employed"

#: The five unfiltered aggregates, in the rotation every dashboard
#: client of ``warm_read`` follows.
UNFILTERED = (
    f"SELECT COUNT(name) FROM {TABLE}",
    f"SELECT SUM(salary) FROM {TABLE}",
    f"SELECT MIN(salary) FROM {TABLE}",
    f"SELECT MAX(salary) FROM {TABLE}",
    f"SELECT AVG(salary) FROM {TABLE}",
)

#: The two statements the ``append_mix`` reader alternates.
LATEST = (UNFILTERED[1], UNFILTERED[0])

_WRITER_NAMES = ("Nick", "Karen", "Suchen", "Ilsoo")


def base_rows(tuples: int, seed: int) -> List[TemporalTuple]:
    """The paper's Section 6 relation (Table 3 generator, 0 % long-lived)."""
    relation = generate_relation(
        WorkloadParameters(tuples=tuples, seed=seed), name=TABLE
    )
    return relation.rows()


def relation_of(rows: Sequence[TemporalTuple]) -> TemporalRelation:
    """A fresh relation over ``rows`` (no shared caches with any other)."""
    return TemporalRelation(EMPLOYED_SCHEMA, rows, name=TABLE)


def wire_rows(rows: Sequence[TemporalTuple]) -> List[list]:
    """Rows in the ``append`` op's ``[value..., start, end]`` shape."""
    return [[*row.values, row.start, row.end] for row in rows]


#: Irrational steps (golden ratio, sqrt 2, sqrt 3 conjugates): each
#: statement parameter walks its range as a low-discrepancy sequence, so
#: every seed's stream covers the ranges evenly and runs with different
#: seeds cost about the same.
_STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772)


def filtered_streams(seed: int, clients: int, count: int) -> List[List[str]]:
    """``count`` statements per client, no two identical across clients.

    Three shapes rotate: a valid-time window of varied width, an
    attribute predicate, and a multi-call SELECT with an arithmetic
    expression, a two-condition WHERE and a HAVING.  Every statement
    carries a WHERE, so none is cache-eligible.  The seed picks where
    each parameter's sequence starts.
    """
    rng = random.Random(seed * 1_000_003 + 11)
    offsets = [rng.random() for _ in _STEPS]
    seen = set()
    streams: List[List[str]] = [[] for _ in range(clients)]
    draw = 0
    for index in range(count):
        for stream in streams:
            while True:
                draw += 1
                point = [(o + draw * s) % 1.0 for o, s in zip(offsets, _STEPS)]
                text = _filtered_statement(point, index % 3, draw)
                if text not in seen:
                    break
            seen.add(text)
            stream.append(text)
    return streams


def _filtered_statement(point: Sequence[float], shape: int, draw: int) -> str:
    start = int(point[0] * (PAPER_LIFESPAN - 60_000))
    end = start + 1_000 + int(point[1] * 49_000)
    if shape == 0:
        return (
            f"SELECT SUM(salary) FROM {TABLE} "
            f"WHERE VALID OVERLAPS [{start}, {end}]"
        )
    if shape == 1:
        return (
            f"SELECT COUNT(name) FROM {TABLE} "
            f"WHERE salary > {100_000 + int(point[2] * 18_000)}"
        )
    return (
        f"SELECT MAX(salary) - MIN(salary), COUNT(name) FROM {TABLE} "
        f"WHERE VALID OVERLAPS [{start}, {end}] "
        f"AND salary > {20_000 + int(point[2] * 40_000)} "
        f"HAVING COUNT(name) >= {1 + draw % 3}"
    )


def append_batches(seed: int, count: int, rows: int) -> List[List[list]]:
    """``count`` batches of ``rows`` short-lived rows each.

    Starts are uniform over the whole lifespan, so most batches land
    behind the relation's newest rows and dirty cached shards.
    """
    rng = random.Random(seed * 1_000_003 + 29)
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(rows):
            start = rng.randrange(0, PAPER_LIFESPAN - 1_000)
            batch.append([
                rng.choice(_WRITER_NAMES),
                rng.randrange(20_000, 120_000),
                start,
                start + rng.randrange(0, 1_000),
            ])
        batches.append(batch)
    return batches
