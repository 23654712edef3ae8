"""Exact structured spectra of complete multipartite graphs.

For K_{n1,...,nr} the adjacency spectrum splits into three groups:

  * the roots of the secular equation  sum_i n_i / (lam + n_i) = 1,
    one positive and one in each open interval between consecutive
    distinct poles -p_k;
  * the poles -p_k themselves, with multiplicity t_k - 1 when the distinct
    size p_k occurs t_k times;
  * zero, with multiplicity n - r, spanned by within-part difference
    vectors.

Repeated part sizes are collapsed to distinct sizes p_k with multiplicities
t_k, so every pole of the rational function is simple; the collapsed poles
re-enter as explicit eigenvalues.  The s secular roots are exactly the
eigenvalues of the s x s symmetric matrix diag(-p) + w w^T with
w_k = sqrt(t_k p_k), since det(lam I - diag(-p) - w w^T) equals
prod_k (lam + p_k) times (1 - sum_k t_k p_k / (lam + p_k)) (Golub, "Some
modified matrix eigenvalue problems", SIAM Review 15, 1973).  One small
dense eigensolve therefore gives all of them.

``secular_roots`` solves one partition as a stack of one matrix.
``secular_root_range``, the one batched entry point, solves a sweep chunk
of partitions at once: it takes the chunk as one zero-padded array of part
sizes, finds the distinct sizes with numpy, stacks the matrices of equal s
into one (k, s, s) array, makes one batched ``eigvalsh`` call per s and
returns only the largest and the smallest root of each partition: lambda1,
and with the largest pole lambda_n, without assembling the full spectrum.
numpy solves each matrix of a stack with the same LAPACK call as a single
solve, so a root is the same float either way.  ``multipartite_spectrum``
assembles the full spectrum of one partition as a ``SecularSpectrum``, the
``spectrum --parts`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import PartSizes


def multipartite_tag(sizes: Sequence[int]) -> str:
    """The source tag of the reports and spectra of the part sizes ``sizes``
    (descending): ``multipartite[3,2,1]``."""
    return "multipartite[" + ",".join(map(str, sizes)) + "]"


def secular_value(parts: PartSizes, lam: float) -> float:
    """Evaluate sum_i n_i / (lam + n_i); lam must not be a pole."""
    total = 0.0
    for p, t in parts.distinct():
        d = lam + p
        if d == 0.0:
            raise ValueError(f"lambda = {lam} is a pole")
        total += t * p / d
    return total


def _secular_eigenvalues(p: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """The ascending secular roots of each row of the (k, s) float arrays
    ``p`` (distinct sizes p_i) and ``tp`` (t_i p_i): one ``eigvalsh`` call
    on the stacked s x s matrices sqrt(t_i p_i t_j p_j) - diag(p)."""
    # w w^T as sqrt(t_i p_i t_j p_j): one rounding per entry and an exact
    # diagonal, which makes the balanced and bipartite closed forms exact.
    matrices = np.sqrt(tp[:, :, None] * tp[:, None, :])
    diagonal = np.arange(p.shape[1])
    matrices[:, diagonal, diagonal] -= p
    return np.linalg.eigvalsh(matrices)


def secular_root_range(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest and the smallest secular root of each row of ``sizes``,
    a (k, R) int array of descending part sizes padded with zeros, as two
    columns.

    The distinct sizes and their multiplicities are read off the rows with
    numpy, and the matrices of equal s are stacked and solved with one
    ``eigvalsh`` call per s.  numpy solves each matrix of a stack with the
    same LAPACK call as a single solve, so each root is the float
    ``secular_roots`` gives.
    """
    k, width = sizes.shape
    filled = sizes > 0
    # first[b, j]: sizes[b, j] opens a run of equal sizes.  index[b, j] is
    # the flat place of that run among the distinct sizes of row b.
    first = filled.copy()
    first[:, 1:] &= sizes[:, 1:] != sizes[:, :-1]
    s = first.sum(axis=1)
    index = np.arange(k)[:, None] * width + np.cumsum(first, axis=1) - 1
    p = np.zeros(k * width)
    p[index[first]] = sizes[first]
    # t_i p_i is the sum of the run of p_i, an integer, so exact.
    tp = np.bincount(index[filled], weights=sizes[filled], minlength=k * width)
    p, tp = p.reshape(k, width), tp.reshape(k, width)
    largest, smallest = np.empty(k), np.empty(k)
    for count in np.unique(s).tolist():
        members = np.flatnonzero(s == count)
        vals = _secular_eigenvalues(p[members, :count], tp[members, :count])
        largest[members], smallest[members] = vals[:, -1], vals[:, 0]
    return largest, smallest


def secular_roots(parts: PartSizes) -> tuple[float, ...]:
    """All s roots of the secular equation, in descending order.

    The first is the unique positive root; the rest interlace the distinct
    poles, one strictly between each consecutive pair.
    """
    dist = parts.distinct()
    p = np.array([[size for size, _ in dist]], dtype=float)
    tp = np.array([[size * t for size, t in dist]], dtype=float)
    return tuple(_secular_eigenvalues(p, tp)[0, ::-1].tolist())


@dataclass(frozen=True)
class SecularSpectrum:
    """Exact spectrum of a complete multipartite graph: its fields, in
    order, are the ``spectrum --parts`` output record.  ``values`` is the
    whole spectrum, sorted non-increasing; the other three fields are its
    parts, each pole ``(-p, t - 1)`` for a size p that occurs t >= 2
    times."""

    source: str
    n: int
    m: int
    values: tuple[float, ...]
    secular_roots: tuple[float, ...]
    pole_eigenvalues: tuple[tuple[float, int], ...]
    zero_multiplicity: int


def multipartite_spectrum(parts: PartSizes) -> SecularSpectrum:
    n, zeros = parts.n, parts.n - parts.r
    roots = secular_roots(parts)
    poles = tuple((float(-p), t - 1) for p, t in parts.distinct() if t >= 2)
    values = [*roots, *[0.0] * zeros]
    for val, mult in poles:
        values.extend([val] * mult)
    values.sort(reverse=True)
    return SecularSpectrum(
        multipartite_tag(parts.sizes), n,
        (n * n - sum(s * s for s in parts.sizes)) // 2,
        tuple(values), roots, poles, zeros)
