"""The boolean cube Q_n as a graph over bitmask vertices.

A vertex is a plain int ``< 2**n``: bit ``k-1`` set means coordinate ``k``
is 1. The dimension ``n`` travels separately and is validated at module
boundaries. Edges join vertices differing in exactly one coordinate; the
edge gains a direction ``gamma -> beta`` when ``beta`` has the extra 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

MAX_DIMENSION = 24  # membership bitset of 2^n bits stays small


def check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")


def check_vertex(bits: int, n: int) -> None:
    if not 0 <= bits < (1 << n):
        raise ValueError(f"vertex {bits:#b} out of range for dimension {n}")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order, in linear time."""
    find = bin(mask)[:1:-1].find  # the binary digits, lowest first
    pos = find("1")
    while pos >= 0:
        yield pos
        pos = find("1", pos + 1)


def lane_width(n: int) -> int:
    """Bits per packed subset: one per vertex, padded to whole bytes."""
    return max(8, 1 << n)


def lane_ones(n: int, count: int) -> int:
    """A 1 at the bottom of each of ``count`` lanes."""
    return int.from_bytes((1).to_bytes(lane_width(n) // 8, "little") * count, "little")


def degree_sets(members: int, n: int, ones: int) -> list[int]:
    """``at_least[k]`` for k = 0..n: the members with at least k neighbours
    among the members, so the maximum induced degree is the largest k with
    ``at_least[k]`` nonzero.

    ``members`` may hold many subsets side by side, each in its own lane of
    ``lane_width(n)`` bits (lane i at bit ``i * lane_width(n)``), and
    ``ones`` is ``lane_ones(n, lanes)``: 1 for a single subset. Every step
    is a big-int operation on all lanes at once and no bit crosses a lane.
    For each direction b, ``m & (m >> 2^b)`` on the vertices with bit b
    clear marks the lower ends of the members' edges in that direction.
    Those vertices repeat 2^b ones, then 2^b zeros: each direction's mask
    is the one above XOR itself shifted left by 2^b, so b runs top-down.
    """
    width, half = lane_width(n), 1 << (n - 1)
    # with 8-bit lanes for n <= 2 the pattern repeats to fill the lane
    clear = ones * (((1 << width) - 1) // ((1 << 2 * half) - 1) * ((1 << half) - 1))
    at_least = [members] + [0] * n
    for directions in range(1, n + 1):  # directions counted, this one included
        lower = members & (members >> half) & clear
        hit = lower | (lower << half)
        for k in range(directions, 0, -1):  # descending: at_least[k - 1] is still the old set
            at_least[k] |= at_least[k - 1] & hit
        half >>= 1
        if half:  # direction 0 has no mask below it to derive
            clear ^= clear << half
    return at_least


@dataclass(frozen=True)
class DegreeProfile:
    """Induced degrees of one vertex, split by edge direction."""

    indegree: int   # neighbors gamma in H with gamma -> vertex
    outdegree: int  # neighbors gamma in H with vertex -> gamma

    @property
    def degree(self) -> int:
        return self.indegree + self.outdegree


@dataclass(frozen=True)
class InducedSubgraph:
    """A vertex subset H of Q_n with the induced cube edges.

    ``members`` is a 2^n-bit int bitset: bit ``u`` set iff vertex ``u`` is
    in H. "Large" means more than half the cube, the regime where the
    sqrt(n) degree bound applies.
    """

    n: int
    members: int

    def __post_init__(self) -> None:
        check_dimension(self.n)
        if not 0 <= self.members < (1 << (1 << self.n)):
            raise ValueError("membership bitset wider than 2^n")

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "InducedSubgraph":
        members = 0
        for u in vertices:
            check_vertex(u, n)
            members |= 1 << u
        return cls(n, members)

    @property
    def cardinality(self) -> int:
        return self.members.bit_count()

    @property
    def is_large(self) -> bool:
        return self.cardinality > (1 << (self.n - 1))

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < (1 << self.n) and bool(self.members >> vertex & 1)

    def vertices(self) -> Iterator[int]:
        return iter_bits(self.members)

    def degree_profile(self, beta: int) -> DegreeProfile:
        if beta not in self:
            raise ValueError(f"vertex {beta} is not in the subgraph")
        indeg = outdeg = 0
        for b in range(self.n):
            gamma = beta ^ (1 << b)
            if gamma in self:
                if beta & (1 << b):
                    indeg += 1  # gamma = beta minus coordinate b+1, so gamma -> beta
                else:
                    outdeg += 1
        return DegreeProfile(indeg, outdeg)

    def max_degree(self) -> tuple[int, int]:
        """Vertex of maximum induced degree and that degree; ties take the
        smallest bitmask."""
        if self.members == 0:
            raise ValueError("empty subgraph has no maximum degree")
        at_least = degree_sets(self.members, self.n, 1)
        degree = max(k for k, vertices in enumerate(at_least) if vertices)
        top = at_least[degree]
        return (top & -top).bit_length() - 1, degree

    def to_lines(self) -> list[str]:
        return [format_vertex(u, self.n) for u in self.vertices()]


def format_vertex(bits: int, n: int) -> str:
    """Binary string of length n, MSB = coordinate n."""
    return format(bits, f"0{n}b")


def parse_vertex(line: str, n: int) -> int:
    text = line.strip()
    if len(text) != n or set(text) - {"0", "1"}:
        raise ValueError(f"bad vertex line {line!r} for dimension {n}")
    return int(text, 2)


def parse_subgraph(text: str, n: Optional[int] = None) -> InducedSubgraph:
    """Read the one-vertex-per-line format; blank lines and # comments ignored.

    The dimension is inferred from the first vertex line unless given, and
    every line must agree with it.
    """
    vertices: list[int] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = len(line)
            check_dimension(n)
        vertices.append(parse_vertex(line, n))
    if n is None:
        raise ValueError("subgraph text contains no vertices")
    return InducedSubgraph.from_vertices(n, vertices)
