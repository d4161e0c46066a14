import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifembed.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    petersen_graph,
    star_graph,
)
from motifembed import orbits
from motifembed.graph import Graph
from motifembed.orbits import (
    NUM_ORBITS,
    brute_force_orbit_counts,
    count_edge_orbits,
    node_motif_features,
)

TRIANGLE = complete_graph(3)


def row(g, u, v, counts):
    (e,) = g.edge_ids([u], [v])
    assert e >= 0
    return counts.counts[e].tolist()


def expected(**orbits):
    out = [0] * NUM_ORBITS
    out[0] = 1
    for key, val in orbits.items():
        out[int(key[1:]) - 1] = val
    return out


def test_triangle_rows():
    c = count_edge_orbits(TRIANGLE)
    for u, v in TRIANGLE.edges():
        assert row(TRIANGLE, u, v, c) == expected(o3=1)


def test_path4_rows():
    g = path_graph(4)
    c = count_edge_orbits(g)
    assert row(g, 1, 2, c) == expected(o2=2, o5=1)
    assert row(g, 0, 1, c) == expected(o2=1, o4=1)
    assert row(g, 2, 3, c) == expected(o2=1, o4=1)


def test_cycle4_rows():
    g = cycle_graph(4)
    c = count_edge_orbits(g)
    for u, v in g.edges():
        assert row(g, u, v, c) == expected(o2=2, o7=1)


def test_cycle5_rows():
    g = cycle_graph(5)
    c = count_edge_orbits(g)
    for u, v in g.edges():
        assert row(g, u, v, c) == expected(o2=2, o4=2, o5=1)


def test_star3_rows():
    g = star_graph(3)
    c = count_edge_orbits(g)
    for u, v in g.edges():
        assert row(g, u, v, c) == expected(o2=2, o6=1)


def test_k4_rows():
    g = complete_graph(4)
    c = count_edge_orbits(g)
    for u, v in g.edges():
        assert row(g, u, v, c) == expected(o3=2, o13=1)


def test_tailed_triangle_and_diamond_rows():
    tailed = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    c = count_edge_orbits(tailed)
    assert row(tailed, 0, 3, c) == expected(o2=2, o8=1)
    assert row(tailed, 0, 1, c) == expected(o2=1, o3=1, o9=1)
    assert row(tailed, 0, 2, c) == expected(o2=1, o3=1, o9=1)
    assert row(tailed, 1, 2, c) == expected(o3=1, o10=1)

    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    c = count_edge_orbits(diamond)
    assert row(diamond, 0, 1, c) == expected(o3=2, o12=1)
    for u, v in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        assert row(diamond, u, v, c) == expected(o2=1, o3=1, o11=1)


def test_complete_graph_closed_forms():
    for n in range(4, 9):
        g = complete_graph(n)
        c = count_edge_orbits(g).counts
        assert np.all(c[:, 2] == n - 2)
        assert np.all(c[:, 12] == (n - 2) * (n - 3) // 2)
        assert np.all(c[:, 11] == 0)
        assert np.all(c[:, 1] == 0)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_equivalence_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 26))
    p = float(rng.choice([0.1, 0.3, 0.5]))
    try:
        g = erdos_renyi(n, p, seed=seed + 100)
    except ValueError:
        pytest.skip("degenerate empty draw")
    fast = count_edge_orbits(g)
    slow = brute_force_orbit_counts(g)
    np.testing.assert_array_equal(fast.counts, slow.counts)


def test_oracle_equivalence_fixtures():
    for g in [complete_graph(4), path_graph(4), cycle_graph(4), cycle_graph(5),
              cycle_graph(6), star_graph(3), petersen_graph()]:
        np.testing.assert_array_equal(
            count_edge_orbits(g).counts, brute_force_orbit_counts(g).counts
        )


def test_petersen_has_no_triangles_or_squares():
    c = count_edge_orbits(petersen_graph()).counts
    assert np.all(c[:, 2] == 0)
    assert np.all(c[:, 6] == 0)
    assert np.all(c[:, 1] == 4)  # 3-regular, girth 5: every edge sits in 4 wedges


def test_oracle_refuses_large_graphs():
    g = erdos_renyi(70, 0.1, seed=3)
    with pytest.raises(ValueError, match="refuses"):
        brute_force_orbit_counts(g)


def test_counts_are_readonly_and_keep_their_graph():
    c = count_edge_orbits(TRIANGLE)
    assert c.graph is TRIANGLE
    assert brute_force_orbit_counts(TRIANGLE).graph is TRIANGLE
    with pytest.raises(ValueError):
        c.counts[0, 0] = 5
    with pytest.raises(ValueError):
        c.orbit_column(0)
    with pytest.raises(ValueError):
        c.orbit_column(14)


def wheel(spokes):
    rim = [(1 + i, 1 + (i + 1) % spokes) for i in range(spokes)]
    return Graph.from_edges(spokes + 1, rim + [(0, 1 + i) for i in range(spokes)])


def complete_bipartite_2k(k):
    return Graph.from_edges(k + 2, [(side, 2 + i) for side in (0, 1) for i in range(k)])


def cliques_at_hub(sizes):
    """Cliques sharing node 0, plus one edge joining each clique to the next."""
    edges, start, firsts = [], 1, []
    for size in sizes:
        members = [0] + list(range(start, start + size - 1))
        edges += [(a, b) for ix, a in enumerate(members) for b in members[ix + 1 :]]
        firsts.append(start)
        start += size - 1
    edges += list(zip(firsts, firsts[1:]))
    return Graph.from_edges(start, edges)


def skewed(n, seed):
    """Chung-Lu draw on power-law weights: a few hubs, many low-degree nodes."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1) ** -0.7
    w *= 6.0 * n / w.sum()
    p = np.minimum(1.0, np.outer(w, w) / w.sum())
    iu, iv = np.triu_indices(n, 1)
    hit = rng.random(iu.size) < p[iu, iv]
    return Graph.from_edges(n, np.stack([iu[hit], iv[hit]], axis=1))


HUB_GRAPHS = {
    "wheel12": wheel(12),
    "wheel40": wheel(40),
    "k2_30": complete_bipartite_2k(30),
    "cliques_at_hub": cliques_at_hub([5, 6, 4, 7]),
    **{f"skewed{seed}": skewed(int(40 + 5 * seed), seed) for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(HUB_GRAPHS))
def test_oracle_equivalence_hub_heavy(name):
    g = HUB_GRAPHS[name]
    assert g.num_nodes <= 60
    np.testing.assert_array_equal(
        count_edge_orbits(g).counts, brute_force_orbit_counts(g).counts
    )


def test_tiny_chunks_give_identical_counts(monkeypatch):
    g = HUB_GRAPHS["skewed3"]
    whole = count_edge_orbits(g).counts
    runs = []  # (running work total, runs) per _chunks call; the first splits the wedges

    def recording(cum, bound):
        out = real_chunks(cum, bound)
        runs.append((cum, out))
        return out

    real_chunks = orbits._chunks
    monkeypatch.setattr(orbits, "_chunks", recording)
    count_edge_orbits(g)
    total_wedges = int(runs[0][0][-1])
    # bound 1 gives every top vertex with wedges a chunk of its own; a
    # middle bound still splits the graph into several chunks
    for bound in (1, total_wedges // 4):
        runs.clear()
        monkeypatch.setattr(orbits, "_CHUNK_WEDGES", bound)
        np.testing.assert_array_equal(count_edge_orbits(g).counts, whole)
        cum, wedge_runs = runs[0]
        work = np.diff(cum)
        assert len(wedge_runs) > 1
        assert [lo for lo, _ in wedge_runs] == [0] + [hi for _, hi in wedge_runs[:-1]]
        assert wedge_runs[-1][1] == work.size
        for lo, hi in wedge_runs:
            assert work[lo:hi].sum() <= bound or hi == lo + 1


def dense_raw_terms(g):
    """T, Q, S, D and K from the dense adjacency matrix, in edge order."""
    a = np.zeros((g.num_nodes, g.num_nodes), dtype=np.int64)
    a[g.edge_u, g.edge_v] = a[g.edge_v, g.edge_u] = 1
    a2 = a @ a
    tri = a2 * a
    common = a[g.edge_u] * a[g.edge_v]
    ends = (g.edge_u, g.edge_v)
    return (
        a2[ends],
        (a2 @ a)[ends],
        ((a * a.sum(axis=1)) @ a)[ends],
        (tri @ a + a @ tri)[ends],
        ((common @ a) * common).sum(axis=1) // 2,
    )


def assert_raw_terms_match_dense(g):
    for name, fast, dense in zip("TQSDK", orbits._raw_terms(g), dense_raw_terms(g)):
        np.testing.assert_array_equal(fast, dense, err_msg=f"raw term {name}")


@pytest.mark.parametrize("g", [skewed(300, 11), wheel(260)], ids=["chung_lu300", "wheel260"])
def test_raw_terms_match_dense_products_on_hub_graphs(g):
    # above the oracle's node cap, with a hub of degree >= 100
    assert 200 <= g.num_nodes <= 400 and g.degrees.max() >= 100
    assert_raw_terms_match_dense(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=len(possible)))
    return Graph.from_edges(n, edges)


@st.composite
def hub_graphs(draw):
    """A star joined to a small random graph; the hub's id is drawn, so the
    degree order differs from the id order."""
    n = draw(st.integers(min_value=6, max_value=16))
    hub = draw(st.integers(min_value=0, max_value=n - 1))
    leaves = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=4, unique=True))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=2 * n))
    return Graph.from_edges(n, [(hub, leaf) for leaf in leaves] + edges)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_wedge_identity_property(g):
    c = count_edge_orbits(g)
    deg = g.degrees
    for e, (u, v) in enumerate(g.edges()):
        o2 = c.counts[e, 1]
        o3 = c.counts[e, 2]
        assert o2 == deg[u] + deg[v] - 2 - 2 * o3


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_automorphism_invariance_property(g, pyrng):
    perm = list(range(g.num_nodes))
    pyrng.shuffle(perm)
    relabeled = Graph.from_edges(
        g.num_nodes, [(perm[u], perm[v]) for u, v in g.edges()]
    )
    c1 = count_edge_orbits(g)
    c2 = count_edge_orbits(relabeled)
    perm = np.array(perm)
    moved = relabeled.edge_ids(perm[g.edge_u], perm[g.edge_v])
    assert (moved >= 0).all()
    np.testing.assert_array_equal(c1.counts, c2.counts[moved])


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_graphs(), hub_graphs()))
def test_counts_match_oracle_property(g):
    np.testing.assert_array_equal(
        count_edge_orbits(g).counts, brute_force_orbit_counts(g).counts
    )


def test_node_features_shape_and_norms():
    g = erdos_renyi(25, 0.3, seed=5)
    feats = node_motif_features(g, count_edge_orbits(g))
    assert feats.shape == (25, 4 * NUM_ORBITS)
    assert np.all(np.isfinite(feats))
    norms = np.linalg.norm(feats, axis=0)
    assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))


def test_node_features_base_values():
    c = count_edge_orbits(TRIANGLE)
    feats = node_motif_features(TRIANGLE, c)
    # triangle: every node has two incident edges, each in one triangle, so the
    # O3 base column is (2,2,2) before normalization
    np.testing.assert_allclose(feats[:, 2], 2 / np.sqrt(12), atol=1e-15)

    star = star_graph(3)
    feats = node_motif_features(star, count_edge_orbits(star))
    base_o6 = np.array([3.0, 1.0, 1.0, 1.0])  # center sums three O6 edges
    np.testing.assert_allclose(feats[:, 5], base_o6 / np.linalg.norm(base_o6), atol=1e-15)


def test_node_features_o1_base_is_degree():
    g = erdos_renyi(20, 0.3, seed=9)
    feats = node_motif_features(g, count_edge_orbits(g))
    deg = g.degrees.astype(float)
    np.testing.assert_allclose(feats[:, 0], deg / np.linalg.norm(deg), atol=1e-14)


def test_node_features_reject_foreign_counts():
    c = count_edge_orbits(TRIANGLE)
    with pytest.raises(ValueError, match="different graph"):
        node_motif_features(path_graph(4), c)
