"""Boolean cube graph: induced degrees split by edge direction, parsing.

Core claims:
    - degree profiles count in/out neighbors inside the subgraph, and
      complementing every vertex swaps the two counts
    - max_degree breaks ties toward the smallest bitmask
    - the handshake parity and full-cube degree identities hold
    - the one-vertex-per-line text format round-trips
    - iter_bits lists set bits like the bit-clearing loop, up to 5000 bits
"""

import random

import pytest

from cubesense import (
    InducedSubgraph,
    format_vertex,
    parse_subgraph,
    parse_vertex,
)
from cubesense.cube import iter_bits

from helpers import complemented, full_cube, oracle_iter_bits


def test_degree_profile_examples():
    H = InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b11])
    profile = H.degree_profile(0b01)
    assert (profile.indegree, profile.outdegree, profile.degree) == (1, 1, 2)

    lone = InducedSubgraph.from_vertices(2, [0b00])
    assert lone.degree_profile(0b00).degree == 0

    q3 = full_cube(3)
    bottom = q3.degree_profile(0b000)
    assert (bottom.indegree, bottom.outdegree, bottom.degree) == (0, 3, 3)


def test_degree_profile_requires_membership():
    H = InducedSubgraph.from_vertices(2, [0b00])
    with pytest.raises(ValueError):
        H.degree_profile(0b01)


def test_max_degree_examples():
    assert InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b11]).max_degree() == (0b01, 2)
    # full cube: all degrees equal, smallest bitmask wins
    assert full_cube(3).max_degree() == (0b000, 3)
    # even-weight vertices of Q_3 form an independent set
    evens = InducedSubgraph.from_vertices(3, [0b000, 0b011, 0b101, 0b110])
    assert evens.max_degree() == (0b000, 0)
    with pytest.raises(ValueError):
        InducedSubgraph(2, 0).max_degree()


def test_handshake_parity_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 8)
        members = rng.randrange(1, 1 << (1 << n))
        H = InducedSubgraph(n, members)
        total = sum(H.degree_profile(u).degree for u in H.vertices())
        assert total % 2 == 0


def test_full_cube_degree_identities():
    for n in range(1, 7):
        H = full_cube(n)
        for u in H.vertices():
            profile = H.degree_profile(u)
            assert profile.degree == n
            assert profile.indegree == u.bit_count()
            assert profile.outdegree == n - u.bit_count()


def test_cardinality_and_largeness():
    H = InducedSubgraph.from_vertices(3, [0, 1, 2, 3, 4])
    assert H.cardinality == 5
    assert H.is_large
    assert not InducedSubgraph.from_vertices(3, [0, 1, 2, 3]).is_large


def test_complemented_reverses_directions():
    H = InducedSubgraph.from_vertices(3, [0b000, 0b001, 0b011, 0b111, 0b101])
    flipped = complemented(H)
    for u in H.vertices():
        p = H.degree_profile(u)
        q = flipped.degree_profile(u ^ 0b111)
        assert (p.indegree, p.outdegree) == (q.outdegree, q.indegree)


def test_vertex_text_round_trip():
    assert format_vertex(0b011, 3) == "011"
    assert parse_vertex("011", 3) == 0b011
    with pytest.raises(ValueError):
        parse_vertex("01", 3)
    with pytest.raises(ValueError):
        parse_vertex("012", 3)


def test_parse_subgraph_format():
    text = """
    # a comment line
    001
    011   # trailing comment

    111
    """
    H = parse_subgraph(text)
    assert H.n == 3
    assert sorted(H.vertices()) == [0b001, 0b011, 0b111]
    assert H.to_lines() == ["001", "011", "111"]


def test_parse_subgraph_validates():
    with pytest.raises(ValueError):
        parse_subgraph("01\n001")  # inconsistent lengths
    with pytest.raises(ValueError):
        parse_subgraph("# nothing\n")
    with pytest.raises(ValueError):
        parse_subgraph("01", n=3)


def test_vertex_range_validation():
    with pytest.raises(ValueError):
        InducedSubgraph.from_vertices(2, [4])
    with pytest.raises(ValueError):
        InducedSubgraph(0, 0)
    with pytest.raises(ValueError):
        InducedSubgraph(25, 0)
    with pytest.raises(ValueError):
        InducedSubgraph(2, 1 << 4)  # vertex 4 is outside Q_2


def test_iter_bits_matches_oracle():
    rng = random.Random(31)
    masks = [0, (1 << 5000) - 1] + [1 << b for b in (0, 1, 7, 63, 64, 4999)]
    masks += [rng.getrandbits(rng.randrange(1, 5001)) for _ in range(200)]
    masks += [rng.getrandbits(64) & rng.getrandbits(64) for _ in range(200)]
    for mask in masks:
        assert list(iter_bits(mask)) == list(oracle_iter_bits(mask)), mask
