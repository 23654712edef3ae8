"""Dense eigensolving, the cube trace identity, and the Weyl comparison.

``weyl_check`` is the oracle of acceptance criterion 9 and of the
stability tests: it holds two same-order spectra to Weyl's perturbation
bound.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from bngap.graphs import Graph, PartSizes, complete_multipartite, triangle_count
from bngap.search import random_graph
from bngap.spectra import adjacency_matrix, eigenvalues

from corpus import CORPUS, cycle_graph


@dataclass(frozen=True)
class WeylReport:
    spectral_norm: float
    frobenius_norm: float
    edges_changed: int
    max_deviation: float
    passes: bool
    tol: float


def weyl_check(g: Graph, h: Graph, tol: float = 1e-9) -> WeylReport:
    """Compare two same-order spectra against the perturbation bound.

    Every eigenvalue may move by at most the spectral norm of the adjacency
    difference; the Frobenius norm equals sqrt(2 * |symmetric difference of
    the edge sets|) and is reported alongside.
    """
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    diff = adjacency_matrix(g) - adjacency_matrix(h)
    dvals = np.linalg.eigvalsh(diff)
    spectral = float(max(abs(dvals[0]), abs(dvals[-1])))
    changed = sum((g.adj[u] ^ h.adj[u]).bit_count() for u in range(g.n)) // 2
    frob = float(np.sqrt(2.0 * changed))
    max_dev = float(np.max(np.abs(eigenvalues(g) - eigenvalues(h))))
    return WeylReport(spectral, frob, changed, max_dev,
                      max_dev <= spectral + tol, tol)


def test_known_spectra():
    k3 = complete_multipartite(PartSizes((1, 1, 1)))
    assert np.allclose(eigenvalues(k3)[::-1], [2, -1, -1], atol=1e-12)
    k23 = complete_multipartite(PartSizes((2, 3)))
    r6 = math.sqrt(6)
    assert np.allclose(eigenvalues(k23)[::-1], [r6, 0, 0, 0, -r6], atol=1e-12)
    assert eigenvalues(Graph(1, (0,))).tolist() == [0.0]


def test_sorted_non_increasing():
    for name, g in CORPUS:
        vals = eigenvalues(g)[::-1]
        assert all(a >= b for a, b in zip(vals, vals[1:])), name


def test_values_are_python_floats_of_the_solver():
    for name, g in CORPUS:
        vals = eigenvalues(g)[::-1].tolist()
        assert all(type(v) is float for v in vals), name
        solved = np.linalg.eigvalsh(adjacency_matrix(g))[::-1]
        assert [v.hex() for v in vals] == [float(x).hex() for x in solved], name


def test_c5_spectrum_closed_form():
    vals = eigenvalues(cycle_graph(5))[::-1]
    expected = sorted((2 * math.cos(2 * math.pi * k / 5) for k in range(5)),
                      reverse=True)
    assert np.allclose(vals, expected, atol=1e-12)


def test_cube_trace_equals_six_triangles():
    for name, g in CORPUS:
        if g.n > 64:
            continue
        vals = eigenvalues(g)
        assert abs(float((vals ** 3).sum()) - 6 * triangle_count(g)) < 1e-6, name


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    for name, g in [c for c in CORPUS if c[1].n <= 24][:12]:
        base = eigenvalues(g)
        for _ in range(10):
            perm = rng.permutation(g.n)
            rows = [0] * g.n
            for u in range(g.n):
                for v in range(g.n):
                    if g.adj[u] >> v & 1:
                        rows[perm[u]] |= 1 << int(perm[v])
            shuffled = Graph(g.n, tuple(rows))
            assert np.allclose(
                eigenvalues(shuffled), base, atol=1e-9
            ), name


class TestWeyl:
    def test_identical_graphs(self):
        g = complete_multipartite(PartSizes((2, 2, 2)))
        r = weyl_check(g, g)
        assert r.spectral_norm == 0 and r.max_deviation == 0 and r.passes

    def test_single_edge_perturbation(self):
        g = complete_multipartite(PartSizes((2, 2, 2)))
        h = g.without_edge(0, 2)
        r = weyl_check(g, h)
        assert r.spectral_norm == pytest.approx(1.0, abs=1e-12)
        assert r.frobenius_norm == pytest.approx(math.sqrt(2), abs=1e-12)
        assert r.max_deviation <= 1 + 1e-9 and r.passes

    def test_k5_vs_edgeless(self):
        k5 = complete_multipartite(PartSizes((1,) * 5))
        r = weyl_check(k5, Graph(5, (0,) * 5))
        assert r.spectral_norm == pytest.approx(4.0, abs=1e-12)
        assert r.max_deviation == pytest.approx(4.0, abs=1e-12)
        assert r.passes

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weyl_check(Graph(2, (2, 1)), Graph(3, (0, 0, 0)))

    def test_random_flip_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(4, 41))
            g = random_graph(n, float(rng.random()), rng)
            h = g
            k = int(rng.integers(1, 11))
            for _ in range(k):
                u = int(rng.integers(n))
                v = int(rng.integers(n))
                if u == v:
                    continue
                h = (h.without_edge(u, v) if h.has_edge(u, v)
                     else h.with_edge(u, v))
            r = weyl_check(g, h, tol=1e-9)
            assert r.passes, (n, k, r)
