"""Dense adjacency spectra, trace-identity checks, and Weyl comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

TRACE_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing, with the originating edge count."""

    values: tuple[float, ...]
    source_m: int

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("spectrum must hold at least one value")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def lambda1(self) -> float:
        return self.values[0]

    @property
    def lambda2(self) -> float:
        if len(self.values) < 2:
            raise ValueError("no second eigenvalue on one vertex")
        return self.values[1]

    @property
    def lambda_n(self) -> float:
        return self.values[-1]


def adjacency_matrix(g: Graph) -> np.ndarray:
    nbytes = (g.n + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in g.adj)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(g.n, nbytes)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    return bits[:, : g.n].astype(np.float64)


def eigenvalues(g: Graph) -> Spectrum:
    """Full adjacency spectrum, sorted non-increasing.

    Backed by a dense symmetric eigensolver (tridiagonalization plus
    implicit-shift iteration under the hood); accuracy is far inside the
    1e-9 relative contract for n <= 2048.
    """
    vals = np.linalg.eigvalsh(adjacency_matrix(g))
    return Spectrum(tuple(vals[::-1].tolist()), g.m)


@dataclass(frozen=True)
class TraceReport:
    sum_residual: float
    square_residual: float
    passes: bool
    tol: float


def trace_check(s: Spectrum) -> TraceReport:
    """Residuals of the two trace identities: sum 0 and sum of squares 2m."""
    arr = np.asarray(s.values)
    r1 = abs(float(arr.sum()))
    r2 = abs(float((arr * arr).sum()) - 2.0 * s.source_m)
    ok = r1 <= TRACE_TOL * s.n and r2 <= TRACE_TOL * max(1.0, 2.0 * s.source_m)
    return TraceReport(r1, r2, ok, TRACE_TOL)


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
    sg = np.asarray(eigenvalues(g).values)
    sh = np.asarray(eigenvalues(h).values)
    max_dev = float(np.max(np.abs(sg - sh)))
    return WeylReport(spectral, frob, changed, max_dev,
                      max_dev <= spectral + tol, tol)
