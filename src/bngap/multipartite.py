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

``_secular_solves`` is the one derivation: it reads the distinct sizes p
and their multiplicities t off a zero-padded array of part sizes with
numpy, stacks the matrices of equal s into one (k, s, s) array and makes
one batched ``eigvalsh`` call per s.  Its two readers:
``secular_root_range`` takes the largest and the smallest root of each row
of a sweep chunk (lambda1, and with the largest pole lambda_n), and
``multipartite_spectrum`` all roots of a one-row array and the poles of its
p and t, as a ``SecularSpectrum``, the ``spectrum --parts`` record, whose
roots ``secular_roots`` returns.  numpy solves each matrix of a stack with
the same LAPACK call as a single solve, so a root is the same float either
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import PartSizes


def multipartite_tag(sizes: Sequence[int]) -> str:
    """The source tag of the reports and spectra of the part sizes ``sizes``
    (descending): ``multipartite[3,2,1]``."""
    return "multipartite[" + ",".join(map(str, sizes)) + "]"


def secular_value(parts: PartSizes, lam: float) -> float:
    """Evaluate sum_i n_i / (lam + n_i); lam must not be a pole."""
    total = 0.0
    for size in parts.sizes:
        d = lam + size
        if d == 0.0:
            raise ValueError(f"lambda = {lam} is a pole")
        total += size / d
    return total


def _secular_solves(sizes: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The secular solves of the rows of ``sizes``, a (k, R) int array of
    descending part sizes padded with zeros, one group per count s of
    distinct sizes: the row indices, the (rows, s) distinct sizes p
    (float), their multiplicities t (int) and the ascending roots."""
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
    t = np.bincount(index[filled], minlength=k * width)
    p, t = p.reshape(k, width), t.reshape(k, width)
    for count in np.unique(s).tolist():
        rows = np.flatnonzero(s == count)
        p_s, t_s = p[rows, :count], t[rows, :count]
        # w w^T as sqrt(t_i p_i t_j p_j): t_i p_i is an integer, so exact,
        # and one rounding per entry gives an exact diagonal, which makes
        # the balanced and bipartite closed forms exact.
        tp = t_s * p_s
        matrices = np.sqrt(tp[:, :, None] * tp[:, None, :])
        diagonal = np.arange(count)
        matrices[:, diagonal, diagonal] -= p_s
        yield rows, p_s, t_s, np.linalg.eigvalsh(matrices)


def secular_root_range(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest and the smallest secular root of each row of ``sizes``,
    a (k, R) int array of descending part sizes padded with zeros, as two
    columns of ``_secular_solves``."""
    largest, smallest = np.empty(len(sizes)), np.empty(len(sizes))
    for rows, _, _, roots in _secular_solves(sizes):
        largest[rows], smallest[rows] = roots[:, -1], roots[:, 0]
    return largest, smallest


def secular_roots(parts: PartSizes) -> tuple[float, ...]:
    """All s roots of the secular equation, in descending order.

    The first is the unique positive root; the rest interlace the distinct
    poles, one strictly between each consecutive pair.
    """
    return multipartite_spectrum(parts).secular_roots


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
    [(_, p, t, ascending)] = _secular_solves(np.array([parts.sizes]))
    roots = tuple(ascending[0, ::-1].tolist())
    poles = tuple((-size, mult - 1) for size, mult
                  in zip(p[0].tolist(), t[0].tolist()) if mult >= 2)
    values = [*roots, *[0.0] * zeros]
    for val, mult in poles:
        values.extend([val] * mult)
    values.sort(reverse=True)
    return SecularSpectrum(
        multipartite_tag(parts.sizes), n,
        (n * n - sum(s * s for s in parts.sizes)) // 2,
        tuple(values), roots, poles, zeros)
