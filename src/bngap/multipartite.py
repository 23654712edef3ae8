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

``batched_secular_roots`` solves many partitions at once: it stacks the
matrices of equal s into one (k, s, s) array and makes one batched
``eigvalsh`` call per s.  numpy solves each matrix of a stack with the same
LAPACK call as a single solve, so a root is the same float either way;
``secular_roots`` is a batch of one.  The sweep solves its partitions in
fixed-size chunks with ``secular_root_range``, which takes a chunk as one
zero-padded array of part sizes, finds the distinct sizes with numpy and
returns only the largest and the smallest root of each partition: lambda1,
and with the largest pole lambda_n, without assembling the full spectrum
(``flatten``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import PartSizes

_POLE_GUARD = 1e-9


def multipartite_tag(sizes: Sequence[int]) -> str:
    """The source tag of the reports and spectra of the part sizes ``sizes``
    (descending): ``multipartite[3,2,1]``."""
    return "multipartite[" + ",".join(map(str, sizes)) + "]"


def multipartite_edge_count(parts: PartSizes) -> int:
    n = parts.n
    return (n * n - sum(s * s for s in parts.sizes)) // 2


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


def batched_secular_roots(
    dists: Sequence[Sequence[tuple[int, int]]],
) -> list[tuple[float, ...]]:
    """The secular roots of each distinct-size list ``[(p_k, t_k), ...]``
    (``PartSizes.distinct()``), each in descending order, in input order.

    The matrices of equal s are stacked and solved with one ``eigvalsh``
    call per s.
    """
    by_s: dict[int, list[int]] = {}
    for k, dist in enumerate(dists):
        by_s.setdefault(len(dist), []).append(k)
    roots: list[tuple[float, ...]] = [()] * len(dists)
    for members in by_s.values():
        p = np.array([[size for size, _ in dists[k]] for k in members], dtype=float)
        tp = np.array([[size * t for size, t in dists[k]] for k in members],
                      dtype=float)
        vals = _secular_eigenvalues(p, tp)
        for k, row in zip(members, vals[:, ::-1].tolist()):
            roots[k] = tuple(row)
    return roots


def secular_root_range(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest and the smallest secular root of each row of ``sizes``,
    a (k, R) int array of descending part sizes padded with zeros, as two
    columns.

    The distinct sizes and their multiplicities are read off the rows with
    numpy, and the matrices of equal s are solved as in
    ``batched_secular_roots``, so each root is the same float.
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
    return batched_secular_roots([parts.distinct()])[0]


@dataclass(frozen=True)
class SecularSpectrum:
    """Structured exact spectrum of a complete multipartite graph."""

    parts: PartSizes
    distinct: tuple[tuple[int, int], ...]
    secular_roots: tuple[float, ...]
    pole_eigenvalues: tuple[tuple[float, int], ...]
    zero_multiplicity: int

    @property
    def lambda1(self) -> float:
        return self.secular_roots[0]

    @property
    def lambda2(self) -> float:
        return 0.0 if self.zero_multiplicity >= 1 else -1.0

    def flatten(self) -> tuple[float, ...]:
        values = list(self.secular_roots)
        values.extend([0.0] * self.zero_multiplicity)
        for val, mult in self.pole_eigenvalues:
            values.extend([val] * mult)
        values.sort(reverse=True)
        return tuple(values)


def multipartite_spectrum(parts: PartSizes) -> SecularSpectrum:
    dist = tuple(parts.distinct())
    poles = tuple(
        (float(-p), t - 1) for p, t in dist if t >= 2
    )
    return SecularSpectrum(
        parts=parts,
        distinct=dist,
        secular_roots=secular_roots(parts),
        pole_eigenvalues=poles,
        zero_multiplicity=parts.n - parts.r,
    )


@dataclass(frozen=True)
class ZeroBasisVector:
    """A +1/-1 difference vector inside one part, annihilated by the adjacency."""

    part_index: int
    member_index: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.coefficients) != 0:
            raise ValueError("coefficients must sum to zero")


def zero_eigenbasis(parts: PartSizes) -> list[ZeroBasisVector]:
    """The n - r within-part difference vectors spanning the zero eigenspace.

    Vector (i, k) has +1 at the k-th vertex of part i and -1 at the last
    vertex of that part; vectors from distinct parts have disjoint supports.
    """
    n = parts.n
    offsets = parts.offsets()
    out = []
    for i, (size, start) in enumerate(zip(parts.sizes, offsets)):
        last = start + size - 1
        for k in range(size - 1):
            coeffs = [0] * n
            coeffs[start + k] = 1
            coeffs[last] = -1
            out.append(ZeroBasisVector(i, k, tuple(coeffs)))
    return out


def quotient_eigenvector(parts: PartSizes, root: float) -> tuple[float, ...]:
    """Part-constant coefficients c_i = 1/(root + n_i) of a secular root.

    Normalized so that sum_i n_i c_i = 1; lifting c to the full vertex set
    (value c_i on every vertex of part i) gives an eigenvector for `root`.
    """
    for p, _ in parts.distinct():
        if abs(root + p) <= _POLE_GUARD:
            raise ValueError(f"root {root} is within {_POLE_GUARD} of pole {-p}")
    return tuple(1.0 / (root + s) for s in parts.sizes)

