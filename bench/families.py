"""Seeded chain families for the benchmark, and an independent structure oracle.

Every generator takes a ``random.Random`` and returns a ``Chain``: the
matrix as exact literal strings (the program only ever sees these), plus
what the construction guarantees about it. Entries are small positive
integers normalised by their row sum, so denominators stay tame and the
integer growth inside the determinant comes from the size of the chain,
not from the literals.

The tests prove with an independent structure oracle that each family has
the structure it claims; the gate compares the program's report against
the claim.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

ERGODIC = "ergodic"
REDUCIBLE = "reducible"
PERIODIC = "periodic"
TRANSIENT = "transient"
FAMILIES = (ERGODIC, REDUCIBLE, PERIODIC, TRANSIENT)


@dataclass(frozen=True)
class Chain:
    """A generated chain and the facts its construction guarantees.

    ``closed_periods`` lists the period of every closed class; the chain
    is irreducible when ``transient`` is empty and there is one closed
    class. ``transient`` holds the 0-based transient states.
    """

    family: str
    rows: tuple  # tuple of tuples of exact literal strings
    closed_periods: tuple
    transient: tuple = ()

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def irreducible(self) -> bool:
        return not self.transient and len(self.closed_periods) == 1

    @property
    def aperiodic(self) -> bool:
        return math.lcm(*self.closed_periods) == 1

    @property
    def ergodic(self) -> bool:
        return self.irreducible and self.aperiodic

    def fractions(self) -> list:
        return [[Fraction(e) for e in row] for row in self.rows]


def _normalise(weights: list) -> tuple:
    rows = []
    for row in weights:
        total = sum(row)
        rows.append(tuple(str(Fraction(w, total)) for w in row))
    return tuple(rows)


def _weight(rng: random.Random) -> int:
    return rng.randint(1, 6)


def _irreducible_edges(rng: random.Random, states: list, density: float) -> dict:
    """Edges of a strongly connected, aperiodic diagram on ``states``:
    a random Hamiltonian cycle, one self-loop, and random extra edges."""
    order = states[:]
    rng.shuffle(order)
    edges = {s: set() for s in states}
    for a, b in zip(order, order[1:] + order[:1]):
        edges[a].add(b)
    loop = rng.choice(states)
    edges[loop].add(loop)
    for s in states:
        for t in states:
            if rng.random() < density:
                edges[s].add(t)
    return edges


def _rows_from_edges(rng: random.Random, n: int, edges: dict) -> tuple:
    weights = [[0] * n for _ in range(n)]
    for s, targets in edges.items():
        for t in targets:
            weights[s][t] = _weight(rng)
    return _normalise(weights)


def ergodic_chain(rng: random.Random, n: int) -> Chain:
    """Irreducible and aperiodic: the determinant is nonzero."""
    edges = _irreducible_edges(rng, list(range(n)), rng.uniform(0.45, 0.65))
    return Chain(ERGODIC, _rows_from_edges(rng, n, edges), (1,))


def _split(rng: random.Random, states: list, parts: int, minimum: int) -> list:
    """Random partition of ``states`` into ``parts`` groups of >= minimum."""
    states = states[:]
    rng.shuffle(states)
    sizes = [minimum] * parts
    for _ in range(len(states) - minimum * parts):
        sizes[rng.randrange(parts)] += 1
    groups, start = [], 0
    for size in sizes:
        groups.append(sorted(states[start:start + size]))
        start += size
    return groups


def _periodic_edges(rng: random.Random, groups: list, density: float) -> dict:
    """Edges of an irreducible diagram of period len(groups): every edge
    steps from cyclic class g to class g+1. A representative of each class
    reaches all of the next class and is reached from all of the previous
    one, which makes the diagram strongly connected with a cycle of
    length exactly p through the representatives."""
    p = len(groups)
    reps = [rng.choice(g) for g in groups]
    edges = {s: set() for g in groups for s in g}
    for g in range(p):
        nxt = groups[(g + 1) % p]
        for s in groups[g]:
            edges[s].add(reps[(g + 1) % p])
            for t in nxt:
                if rng.random() < density:
                    edges[s].add(t)
        edges[reps[g]].update(nxt)
    return edges


def periodic_chain(rng: random.Random, n: int, p: int) -> Chain:
    """Irreducible with period p: the determinant vanishes."""
    groups = _split(rng, list(range(n)), p, 1)
    edges = _periodic_edges(rng, groups, rng.uniform(0.2, 0.7))
    return Chain(PERIODIC, _rows_from_edges(rng, n, edges), (p,))


def reducible_chain(rng: random.Random, n: int) -> Chain:
    """Two or three closed classes and no transient state; each class is
    aperiodic or, with some chance, periodic."""
    parts = rng.choice((2, 3)) if n >= 6 else 2
    classes = _split(rng, list(range(n)), parts, 2)
    edges, periods = {}, []
    for members in classes:
        if len(members) >= 3 and rng.random() < 0.3:
            p = rng.choice((2, 3))
            edges.update(_periodic_edges(rng, _split(rng, members, p, 1), 0.5))
            periods.append(p)
        else:
            edges.update(_irreducible_edges(rng, members, rng.uniform(0.3, 0.8)))
            periods.append(1)
    return Chain(REDUCIBLE, _rows_from_edges(rng, n, edges), tuple(periods))


def transient_chain(rng: random.Random, n: int) -> Chain:
    """Transient states, a third of the chain, feeding two closed aperiodic
    classes that split the rest evenly. Every transient state steps into
    both classes, so none is closed and the limit exists, and into half of
    the transient states. The determinant vanishes on the block of the two
    closed classes and the criterion does not apply. Sizes and densities
    are fixed, so that chains of one n cost the program about the same and
    the witness search varies little between seeds."""
    if n < 3:
        raise ValueError("a transient chain with two closed classes needs n >= 3")
    t = max(1, min(n // 3, n - 2))
    states = list(range(n))
    rng.shuffle(states)
    transient = sorted(states[:t])
    half = (n - t) // 2
    first, second = sorted(states[t:t + half]), sorted(states[t + half:])
    edges = {}
    edges.update(_irreducible_edges(rng, first, 0.55))
    edges.update(_irreducible_edges(rng, second, 0.55))
    for s in transient:
        edges[s] = {rng.choice(first), rng.choice(second)}
        edges[s].update(rng.sample(transient, (t + 1) // 2))
    return Chain(TRANSIENT, _rows_from_edges(rng, n, edges), (1, 1), tuple(transient))


def make(rng: random.Random, family: str, n: int) -> Chain:
    """One chain of the named family; periodic chains draw p from {2, 3, 4}."""
    if family == ERGODIC:
        return ergodic_chain(rng, n)
    if family == REDUCIBLE:
        return reducible_chain(rng, n)
    if family == PERIODIC:
        return periodic_chain(rng, n, rng.choice([p for p in (2, 3, 4) if p <= n]))
    if family == TRANSIENT:
        return transient_chain(rng, n)
    raise ValueError(f"unknown family {family!r}")


def to_json(chain: Chain) -> dict:
    return {"label": f"{chain.family} n={chain.n}", "rows": [list(r) for r in chain.rows]}
