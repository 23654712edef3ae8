"""Shared deterministic graph corpus for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from bngap.graphs import (
    Graph,
    PartSizes,
    closes_k4,
    complete_multipartite,
    from_edge_list,
    turan_graph,
)
from bngap.search import random_graph, random_k4_free


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    return from_edge_list(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ])


def greedy_k4_free(n: int, target_density: float, seed: int) -> Graph:
    """Seeded K4-free graph: walk a shuffled pair order and insert any edge
    that closes no K4, stopping at ``round(density * C(n,2))`` edges; if the
    target is unreachable the best effort is returned."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    npairs = n * (n - 1) // 2
    target_m = int(round(target_density * npairs))
    pairs = list(combinations(range(n), 2))
    order = rng.permutation(len(pairs))
    g = Graph._unchecked(n, (0,) * n)
    m = 0
    for idx in order:
        if m >= target_m:
            break
        u, v = pairs[idx]
        if not closes_k4(g, u, v):
            g = g.with_edge(u, v)
            m += 1
    return g


def complete(n: int) -> Graph:
    return complete_multipartite(PartSizes((1,) * n)) if n >= 2 else Graph(1, (0,))


def build_corpus() -> list[tuple[str, Graph]]:
    """Structured families plus seeded random graphs, n up to 64."""
    corpus: list[tuple[str, Graph]] = [
        ("K1", Graph(1, (0,))),
        ("K2", complete(2)),
        ("K3", complete(3)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("edgeless4", Graph(4, (0, 0, 0, 0))),
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("P5", path_graph(5)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("C7", cycle_graph(7)),
        ("star5", star_graph(5)),
        ("paw", from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])),
        ("bull", from_edge_list(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])),
        ("petersen", petersen()),
        ("K23", complete_multipartite(PartSizes((2, 3)))),
        ("K33", complete_multipartite(PartSizes((3, 3)))),
        ("K44", complete_multipartite(PartSizes((4, 4)))),
        ("K122", complete_multipartite(PartSizes((1, 2, 2)))),
        ("K222", complete_multipartite(PartSizes((2, 2, 2)))),
        ("K333", complete_multipartite(PartSizes((3, 3, 3)))),
        ("K555", complete_multipartite(PartSizes((5, 5, 5)))),
        ("T(7,3)", turan_graph(7, 3)),
        ("T(10,3)", turan_graph(10, 3)),
        ("T(12,3)", turan_graph(12, 3)),
        ("T(13,4)", turan_graph(13, 4)),
        ("K(10,6,2)", complete_multipartite(PartSizes((10, 6, 2)))),
    ]
    for n, density, seed in [
        (8, 0.3, 101), (8, 0.6, 102), (12, 0.25, 103), (12, 0.5, 104),
        (16, 0.5, 105), (20, 0.35, 106), (24, 0.5, 107), (32, 0.3, 108),
        (48, 0.5, 109), (64, 0.5, 110), (64, 0.2, 111),
    ]:
        rng = np.random.default_rng(np.random.PCG64(seed))
        corpus.append((f"ER({n},{density})#{seed}", random_graph(n, density, rng)))
    corpus.append(("k4free-tri(15)",
                   random_k4_free(15, 0.5, np.random.default_rng(201))))
    corpus.append(("k4free-tri(30)",
                   random_k4_free(30, 0.4, np.random.default_rng(202))))
    corpus.append(("k4free-greedy(12)", greedy_k4_free(12, 0.7, seed=203)))
    return corpus


CORPUS = build_corpus()
