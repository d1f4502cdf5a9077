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


def adjacent(u: int, v: int) -> bool:
    return (u ^ v).bit_count() == 1


def lane_width(n: int) -> int:
    """Bits per packed subset: one per vertex, padded to whole bytes."""
    return max(8, 1 << n)


def _bit_clear(b: int, bits: int) -> int:
    """The positions below ``bits`` whose bit ``b`` is clear: a pattern of
    period 2^(b+1), so it is the same in every lane of a packed block."""
    half = 1 << b
    if half < 8:
        unit = bytes([0xFF // ((1 << 2 * half) - 1) * ((1 << half) - 1)])
    else:
        unit = b"\xff" * (half // 8) + bytes(half // 8)
    return int.from_bytes(unit * (bits // (8 * len(unit))), "little")


def degree_sets(members: int, n: int) -> list[int]:
    """``at_least[k]`` for k = 0..n: the members with at least k neighbours
    among the members, so the maximum induced degree is the largest k with
    ``at_least[k]`` nonzero.

    ``members`` may hold many subsets side by side, each in its own lane of
    ``lane_width(n)`` bits (lane i at bit ``i * lane_width(n)``); every
    step is a big-int operation on all lanes at once and no bit crosses a
    lane. For each direction b, ``m & (m >> 2^b)`` on the vertices with bit
    b clear marks the lower ends of the members' edges in that direction.
    """
    width = lane_width(n)
    bits = width * -(-members.bit_length() // width)
    at_least = [members] + [0] * n
    for b in range(n):
        half = 1 << b
        lower = members & (members >> half) & _bit_clear(b, bits)
        hit = lower | (lower << half)
        for k in range(b + 1, 0, -1):  # descending: at_least[k - 1] is still the old set
            at_least[k] |= at_least[k - 1] & hit
    return at_least


@dataclass(frozen=True)
class Step:
    """A directed cube edge: coordinate (1-based) gained (up) or lost."""

    up: bool
    coordinate: int

    def reversed(self) -> "Step":
        return Step(not self.up, self.coordinate)


def direction(u: int, v: int) -> Optional[Step]:
    """Classify the pair: Step(up=True, k) if v = u plus coordinate k,
    Step(up=False, k) if v = u minus coordinate k, None if not adjacent."""
    diff = u ^ v
    if diff.bit_count() != 1:
        return None
    k = diff.bit_length()  # 1-based coordinate of the changed bit
    return Step(up=bool(v & diff), coordinate=k)


@dataclass(frozen=True)
class DegreeProfile:
    """Induced degrees of one vertex, split by edge direction."""

    vertex: int
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

    @classmethod
    def full_cube(cls, n: int) -> "InducedSubgraph":
        check_dimension(n)
        return cls(n, (1 << (1 << n)) - 1)

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
        return DegreeProfile(beta, indeg, outdeg)

    def max_degree(self) -> tuple[int, int]:
        """Vertex of maximum induced degree and that degree; ties take the
        smallest bitmask."""
        if self.members == 0:
            raise ValueError("empty subgraph has no maximum degree")
        at_least = degree_sets(self.members, self.n)
        degree = max(k for k, vertices in enumerate(at_least) if vertices)
        top = at_least[degree]
        return (top & -top).bit_length() - 1, degree

    def complemented(self) -> "InducedSubgraph":
        """Flip every coordinate of every vertex (reverses all edge directions)."""
        full = (1 << self.n) - 1
        return InducedSubgraph.from_vertices(self.n, (u ^ full for u in self.vertices()))

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
