"""Seeded benchmark inputs whose shape never depends on the seed.

Every instance is first laid out as a fixed *structure* over dense
integer node ids (the same on every seed), then the seed draws its fact
contents: node ``i`` becomes the ``i``-th of a sorted sample of distinct
nine-digit integers, and the fact order is shuffled.  Such a relabelling
is an isomorphism that keeps the canonical (string) constant order, so
the seed never changes an instance's size, its route through the engine,
its answer, or where an order-driven early exit stops -- only the values
and the hash order of the data.

Two structures cover every route:

* ``chain`` -- ``q`` repeated along one path with a dead-end conflict at
  every node (a "no" for every catalog query satisfying C3); the "yes"
  variant adds one conflict-free ``q``-path whose nodes sit mid-order;
* ``gadget`` -- the Figure 3 bifurcation generalised to any query
  violating C3 (``q = uRvRw``, Lemma 19's witness): each branch forks
  after ``u`` into ``vRw`` (completing ``q``) and ``vRvRw`` (which never
  contains ``q``).  The fixpoint pre-filter accepts the long side, so it
  says "yes" and SAT runs on every item; the answer is "yes" iff one
  branch is straight.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.classification.witnesses import c3_violation
from repro.words.word import Word

Triple = Tuple[str, int, int]

#: Constants are nine-digit integers: equal width keeps string order
#: equal to numeric order, so a sorted sample preserves the structure's
#: canonical constant order.
_LOW, _HIGH = 10 ** 8, 10 ** 9


class Structure:
    """Triples over dense node ids, in creation order."""

    def __init__(self) -> None:
        self.triples: List[Triple] = []
        self.nodes = 0

    def node(self) -> int:
        self.nodes += 1
        return self.nodes - 1

    def path(self, word: Sequence[str], start: int) -> int:
        """A fresh ``word``-labelled path from *start*; returns its end."""
        node = start
        for relation in word:
            nxt = self.node()
            self.triples.append((relation, node, nxt))
            node = nxt
        return node

    def relabel(self, rng: random.Random) -> List[Triple]:
        """The seeded, order-preserving relabelling, in shuffled order."""
        values = sorted(rng.sample(range(_LOW, _HIGH), self.nodes))
        triples = [(r, values[k], values[v]) for r, k, v in self.triples]
        rng.shuffle(triples)
        return triples


def chain(query: str, n_facts: int, yes: bool) -> Structure:
    """``query`` repeated along a path, a dead end hanging off every node."""
    q = Word.coerce(query)
    length = max(1, round(n_facts / (2 * len(q)))) * len(q)
    s = Structure()
    node = s.node()
    for position in range(length):
        if yes and position == length // 2:
            s.path(q, s.node())
        relation = q[position % len(q)]
        s.triples.append((relation, node, s.node()))
        nxt = s.node()
        s.triples.append((relation, node, nxt))
        node = nxt
    return s


def gadget(query: str, n_facts: int, yes: bool) -> Structure:
    """Bifurcated branches for a C3-violating *query*; one straight if yes."""
    witness = c3_violation(query)
    if witness is None:
        raise ValueError("{} satisfies C3: no gadget".format(query))
    u, rel = list(witness.u), witness.relation
    v, w = list(witness.v), list(witness.w)
    per_branch = len(u) + 2 + len(v + [rel] + w) + len(v + [rel] + v + [rel] + w)
    branches = max(2, round(n_facts / per_branch))
    s = Structure()
    for branch in range(branches):
        root = s.node()
        if yes and branch == branches // 2:
            s.path(list(Word.coerce(query)), root)
            continue
        fork = s.path(u, root)
        short, long_ = s.node(), s.node()
        s.triples.append((rel, fork, short))
        s.triples.append((rel, fork, long_))
        s.path(v + [rel] + w, short)
        s.path(v + [rel] + v + [rel] + w, long_)
    return s


def union(parts: Sequence[Structure]) -> Structure:
    """Disjoint union, node ids renumbered part by part."""
    out = Structure()
    for part in parts:
        base = out.nodes
        out.triples.extend((r, k + base, v + base) for r, k, v in part.triples)
        out.nodes += part.nodes
    return out


def zipf_weights(n: int) -> List[float]:
    """Zipf popularity (exponent 1) over ranks ``1..n``, unnormalised."""
    return [1.0 / rank for rank in range(1, n + 1)]


def poisson_arrivals(rng: random.Random, rate: float, count: int) -> List[float]:
    """*count* seeded arrival offsets (seconds) of a Poisson process."""
    t, out = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out
