"""Dense adjacency spectra: the packed adjacency matrix and its eigenvalues.

``adjacency_matrix`` unpacks a graph's bitset rows into a float64 matrix,
and ``eigenvalues`` solves it with one ``eigvalsh`` call: the ascending
array that every reader takes lambda1 (``[-1]``), lambda2 (``[-2]``) and
lambda_n (``[0]``) from.  The checks that hold these spectra to the trace
identities and to Weyl's perturbation bound are oracles in the tests
(acceptance criteria 8 and 9).

A float64 adjacency stack of shape (B, n, n) holds at most
``_CHUNK_ENTRIES`` matrix entries (2^15 doubles, 256 KiB), B =
``_chunk_size(n)``: 910 graphs at n = 6, 9 at n = 60, one graph at n >=
129.  The exhaustive engine's batched ``eigvalsh`` and a stability group's
Perron iteration and fallback ``eigvalsh`` are built one such stack at a
time, which bounds their working memory whatever the family or group size.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph

# Matrix entries per float64 adjacency stack.
_CHUNK_ENTRIES = 2 ** 15


def _chunk_size(n: int) -> int:
    """Graphs per float64 stack of n-vertex adjacency matrices."""
    return max(1, _CHUNK_ENTRIES // (n * n))


def adjacency_matrix(g: Graph) -> np.ndarray:
    nbytes = (g.n + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in g.adj)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(g.n, nbytes)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    return bits[:, : g.n].astype(np.float64)


def eigenvalues(g: Graph) -> np.ndarray:
    """Full adjacency spectrum, sorted ascending (``eigvalsh`` output).

    Backed by a dense symmetric eigensolver (tridiagonalization plus
    implicit-shift iteration under the hood); accuracy is far inside the
    1e-9 relative contract for n <= 2048.
    """
    return np.linalg.eigvalsh(adjacency_matrix(g))
