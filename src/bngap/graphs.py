"""Simple undirected graphs over bitset adjacency rows.

A graph on n vertices (n <= MAX_N) is stored as n Python integers; bit v of
row u is set iff uv is an edge.  Graphs are immutable value objects: every
mutation-shaped operation returns a new Graph, so instances are safe to share
across parallel workers.

Input is checked once, where it enters from outside.  ``Graph(n, adj)``
takes rows as any iterable of integers (numpy ones too; a float raises),
keeps them as a tuple of Python ints and validates them: the vertex count,
the row range, the zero diagonal and symmetry, the last by decoding the
rows' edge code.  The parsers check their input and build valid rows:
``from_edge_list`` (so ``parse_edge_list_text`` and the generators of
``bngap.search``) checks the vertex count, each pair's range and self-loops;
``parse_graph6`` checks the header, the byte range, the length and the
padding.  They, the operations that derive a graph from a valid one
(``complement``, ``with_edge``, ``without_edge``, ``zykov``) and those that
build rows symmetric by construction (``complete_multipartite``,
``turan_graph``, ``Graph.from_edge_bitset``) trust their rows and skip the
row check; a property test holds them to the full validator.  Vertex
arguments of the operations stay checked because each one both indexes a row
and is a shift count: a vertex >= n raises IndexError, a negative one
ValueError.

The edge code of a graph is its upper triangle as one integer: bit k is the
k-th pair of ``graph6_pairs``.  ``Graph.edge_bitset`` encodes it and
``Graph.from_edge_bitset`` decodes it; this module is the only place that
knows the pair order.  graph6 is the edge code written as 6-bit text after a
vertex-count header.

``Graph.nth_edge(k)`` is ``edges()[k]`` and ``Graph.nth_non_edge(k)`` is
``complement().nth_edge(k)``, both read straight off the rows, so a uniform
draw of an edge or of a non-edge costs O(n) bit operations, no list and no
complement.

Alongside the representation live the combinatorial parameters used by the
gap reports (clique number, independence number, triangle count and test,
the K4 tests), the Zykov neighbourhood-replacement operation, and graph6 /
edge-list serialization.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_N = 2048


class Graph6Error(ValueError):
    """Malformed graph6 record (bad header, truncated body, trailing bytes...)."""


def _bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def graph6_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Vertex pairs (u, v), u < v, in graph6 bit order: (0,1), (0,2), (1,2),
    (0,3), ...  Bit k of an edge code is the k-th pair."""
    for v in range(1, n):
        for u in range(v):
            yield u, v


def check_vertex_count(n: int) -> None:
    """Reject a vertex count outside 1..MAX_N."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"vertex count {n} outside 1..{MAX_N}")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``Graph(n, adj)`` validates its rows, any iterable of integers.
    ``Graph._unchecked(n, adj)`` does not; it is for rows derived from a
    valid graph, symmetric by construction or built by a parser from
    checked input.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        object.__setattr__(self, "adj", tuple(map(operator.index, self.adj)))
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        mask = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~mask:
                raise ValueError(f"row {u} has bits beyond vertex range")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
        # The edge code keeps the bits below the diagonal; decoding mirrors them.
        if Graph.from_edge_bitset(self.n, self.edge_bitset()).adj != self.adj:
            raise ValueError("adjacency is not symmetric")

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A Graph over trusted rows, skipping ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            above = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in _bits(above))
        return out

    def nth_edge(self, k: int) -> tuple[int, int]:
        """``edges()[k]`` without building the list.

        Each row's above-diagonal count is subtracted from k until k falls
        inside a row; the k low bits of that row are then cleared and the
        lowest remaining one is the edge.  Raises IndexError unless
        0 <= k < m.
        """
        return self._nth_pair(k, 0)

    def nth_non_edge(self, k: int) -> tuple[int, int]:
        """``complement().nth_edge(k)`` without building the complement:
        the same walk over the rows' zero bits.  Raises IndexError unless
        0 <= k < C(n, 2) - m.
        """
        return self._nth_pair(k, (1 << self.n) - 1)

    def _nth_pair(self, k: int, flip: int) -> tuple[int, int]:
        """The k-th pair (u, v), u < v, whose bit in ``row ^ flip`` is set."""
        if k >= 0:
            for u, row in enumerate(self.adj):
                above = (row ^ flip) >> (u + 1)
                count = above.bit_count()
                if k < count:
                    for _ in range(k):
                        above &= above - 1
                    return u, u + (above & -above).bit_length()
                k -= count
        raise IndexError("pair index out of range")

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def complement(self) -> "Graph":
        mask = (1 << self.n) - 1
        rows = tuple(~row & mask & ~(1 << u) for u, row in enumerate(self.adj))
        return Graph._unchecked(self.n, rows)

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("self-loop")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._unchecked(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._unchecked(self.n, tuple(rows))

    def edge_bitset(self) -> int:
        """The upper triangle packed into one integer, graph6 bit order.

        Bit k is the k-th pair of ``graph6_pairs``, so row v below the
        diagonal fills the v bits from v(v-1)/2 on.  Used as a
        deterministic total order on same-n graphs.
        """
        code = 0
        for v in range(1, self.n):
            code |= (self.adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
        return code

    @classmethod
    def from_edge_bitset(cls, n: int, code: int) -> "Graph":
        """The graph whose ``edge_bitset`` is ``code`` (0 <= code <
        2^C(n,2), a Python int).  Both bits of each pair are set, so the
        rows are trusted."""
        rows = [0] * n
        for v in range(1, n):
            below = code >> (v * (v - 1) // 2) & ((1 << v) - 1)
            rows[v] = below
            for u in _bits(below):
                rows[u] |= 1 << v
        return cls._unchecked(n, tuple(rows))


@dataclass(frozen=True)
class PartSizes:
    """Part sizes of a complete multipartite graph, canonicalized descending."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.sizes, reverse=True))
        object.__setattr__(self, "sizes", ordered)
        if len(ordered) < 2:
            raise ValueError("need at least 2 parts")
        if any(s < 1 for s in ordered):
            raise ValueError("part sizes must be positive")
        if sum(ordered) > MAX_N:
            raise ValueError(f"total vertex count exceeds {MAX_N}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def r(self) -> int:
        return len(self.sizes)

    def offsets(self) -> list[int]:
        """Start vertex of each part under the canonical labelling."""
        out = [0]
        for s in self.sizes[:-1]:
            out.append(out[-1] + s)
        return out


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges; duplicates are idempotent.  Both
    bits of each checked pair are set, so the rows are trusted."""
    check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._unchecked(n, tuple(rows))


def complete_multipartite(parts: PartSizes) -> Graph:
    """K_{n1,...,nr} with vertices grouped by part in order."""
    n = parts.n
    offsets = parts.offsets()
    rows = []
    full = (1 << n) - 1
    for size, start in zip(parts.sizes, offsets):
        part_mask = ((1 << size) - 1) << start
        row = full & ~part_mask
        rows.extend([row] * size)
    return Graph._unchecked(n, tuple(rows))


def turan_graph(n: int, r: int) -> Graph:
    """Balanced complete r-partite graph on n vertices, larger parts first."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if r == 1:
        check_vertex_count(n)
        return Graph._unchecked(n, (0,) * n)
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return complete_multipartite(PartSizes(tuple(sizes)))


def clique_number(g: Graph) -> int:
    """Exact clique number via branch and bound with greedy-colouring bounds.

    Vertices are always scanned in ascending index order, so the search is
    deterministic.  A single vertex is always a clique, since n >= 1.  The
    frames that wait on a branch sit on an explicit stack, so the search
    depth, up to the clique number, is not bound by the recursion limit.
    A candidate set that is itself a clique closes its branch without being
    coloured, so K_n takes no colouring at all.
    """
    adj = g.adj
    best, size, cand = 1, 0, (1 << g.n) - 1
    if _is_clique(adj, cand):
        return g.n
    order, bounds = _color_sort(adj, cand)
    stack: list[tuple[int, int, list[int], list[int]]] = []
    while True:
        if order and size + bounds[-1] > best:
            bounds.pop()
            v = order.pop()
            sub = cand & adj[v]
            cand &= ~(1 << v)
            if _is_clique(adj, sub):
                best = max(best, size + 1 + sub.bit_count())
            else:
                stack.append((size, cand, order, bounds))
                size, cand = size + 1, sub
                order, bounds = _color_sort(adj, sub)
        elif stack:
            size, cand, order, bounds = stack.pop()
        else:
            return best


def _is_clique(adj: tuple[int, ...], cand: int) -> bool:
    """True iff the vertex set ``cand`` spans a clique: each of its vertices
    misses no other one, tested up to the first that does."""
    rest = cand
    while rest:
        low = rest & -rest
        if cand & ~adj[low.bit_length() - 1] != low:
            return False
        rest ^= low
    return True


def _color_sort(adj: tuple[int, ...], cand: int) -> tuple[list[int], list[int]]:
    """Greedy colouring of the candidate set ``cand``: ``bounds[i]`` is the
    colour class index of ``order[i]``, an upper bound on any clique inside
    {order[0..i]}."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append(v)
            bounds.append(color)
            avail &= ~adj[v] & ~(1 << v)
            rest &= ~(1 << v)
    return order, bounds


def independence_number(g: Graph) -> int:
    return clique_number(g.complement())


def closes_k4(g: Graph, u: int, v: int) -> bool:
    """True iff the common neighbourhood of u and v spans an edge, so that
    u, v and that edge make a K4 once uv is an edge."""
    x = g.adj[u] & g.adj[v]
    while x:
        w = (x & -x).bit_length() - 1
        x &= x - 1
        if g.adj[w] & x:
            return True
    return False


def is_k4_free(g: Graph) -> bool:
    """True iff the graph has no complete subgraph on 4 vertices: no edge
    closes a K4."""
    return not any(closes_k4(g, u, v) for u, v in g.edges())


def triangle_count(g: Graph) -> int:
    """Exact triangle count via bitset row intersections."""
    adj = g.adj
    total = 0
    for u in range(g.n):
        above_u = adj[u] & -(1 << (u + 1))
        for v in _bits(above_u):
            total += (adj[u] & adj[v] & -(1 << (v + 1))).bit_count()
    return total


def has_triangle(g: Graph) -> bool:
    """True iff some edge uv, u < v, has a common neighbour; stops at the
    first one found."""
    adj = g.adj
    for u, row in enumerate(adj):
        above = row >> (u + 1) << (u + 1)
        while above:
            v = (above & -above).bit_length() - 1
            above &= above - 1
            if row & adj[v]:
                return True
    return False


def zykov(g: Graph, u: int, v: int) -> Graph:
    """Replace the neighbourhood of u by that of v (u, v non-adjacent).

    The result has N(u) = N(v) = the old N(v); all other adjacencies are
    unchanged.  Applying it to vertices that already share a neighbourhood
    is the identity.
    """
    if u == v:
        raise ValueError("vertices must be distinct")
    if g.has_edge(u, v):
        raise ValueError(f"vertices {u} and {v} are adjacent")
    target = g.adj[v]
    rows = []
    ubit = 1 << u
    for w in range(g.n):
        if w == u:
            rows.append(target)
        elif target >> w & 1:
            rows.append(g.adj[w] | ubit)
        else:
            rows.append(g.adj[w] & ~ubit)
    return Graph._unchecked(g.n, tuple(rows))


# graph6: the edge code as a stream of bits, pair 0 first, six to a byte
# with the earliest bit highest, each byte offset by 63.

def _g6_byte_values(text: str, what: str) -> list[int]:
    vals = []
    for ch in text:
        b = ord(ch)
        if not 63 <= b <= 126:
            raise Graph6Error(f"{what}: byte {b!r} outside graph6 range 63..126")
        vals.append(b - 63)
    return vals


def parse_graph6(line: str) -> Graph:
    line = line.rstrip("\r\n")
    if not line:
        raise Graph6Error("empty record")
    if line.startswith(">>"):
        raise Graph6Error("header directives are not supported")
    vals = _g6_byte_values(line, "record")
    if vals[0] < 63:
        body_at = 1
        n = vals[0]
    else:  # 0x7e marker: 3-byte vertex count
        if len(vals) >= 2 and vals[1] == 63:
            raise Graph6Error("8-byte vertex counts exceed the supported range")
        if len(vals) < 4:
            raise Graph6Error("truncated vertex-count header")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body_at = 4
    if n < 1:
        raise Graph6Error("vertex count must be at least 1")
    if n > MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds limit {MAX_N}")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = vals[body_at:]
    if len(body) < need:
        raise Graph6Error(f"truncated body: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error("trailing bytes after adjacency body")
    # Bit k of the code is stream bit k; each byte holds six, high bit first.
    code = int("".join(f"{b:06b}" for b in body)[::-1] or "0", 2)
    if code >> npairs:
        raise Graph6Error("nonzero padding bits")
    return Graph.from_edge_bitset(n, code)


def to_graph6(g: Graph) -> str:
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = chr(126) + "".join(
            chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)
        )
    npairs = g.n * (g.n - 1) // 2
    stream = f"{g.edge_bitset():0{npairs}b}"[::-1]
    return head + "".join(chr(63 + int(stream[k:k + 6].ljust(6, "0"), 2))
                          for k in range(0, npairs, 6))


def _int_pair(line: str, form: str) -> tuple[int, int]:
    toks = line.split()
    if len(toks) != 2:
        raise ValueError(f"expected {form!r}, got {line!r}")
    return int(toks[0]), int(toks[1])


def parse_edge_list_text(text: str) -> Graph:
    """Parse the plain edge-list format: first line "n m", then m lines "u v".

    Blank lines are skipped, but counted: an error about one line names it
    by its number in the text, from 1, as ``graph6_records`` numbers them.
    """
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), 1)
             if (line := raw.strip())]
    if not lines:
        raise ValueError("empty edge-list input")
    at = lines[0][0]  # the line read last, which an error names

    def edges() -> Iterator[tuple[int, int]]:
        # ``from_edge_list`` checks each pair as it is drawn, so ``at`` is
        # its line when the check fails.
        nonlocal at
        for at, line in lines[1:]:
            yield _int_pair(line, "u v")

    try:
        n, m = _int_pair(lines[0][1], "n m")
        if len(lines) - 1 == m:
            return from_edge_list(n, edges())
    except ValueError as exc:
        raise ValueError(f"line {at}: {exc}") from exc
    raise ValueError(f"declared {m} edges but found {len(lines) - 1} edge lines")

