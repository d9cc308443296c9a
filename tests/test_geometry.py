import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrinv import geometry
from corrinv.config import parse_config
from corrinv.csvio import read_csv
from corrinv.geometry import (
    BoundaryCurve,
    BoundaryTag,
    DomainSpec,
    EmptyPortionError,
    GeometryError,
    build_rectangle_mesh,
    export_mesh_csv,
    inner_portion,
    quadrature_weights,
    segment_distance,
    trace_sample,
)

from conftest import (
    CHAIN_LAYOUTS,
    UNCHAINED_LAYOUTS,
    UNIT_SQUARE,
    rectangle,
    triangles,
)

D, G1, G2 = BoundaryTag.GAMMAD, BoundaryTag.GAMMA1, BoundaryTag.GAMMA2


class TestDomainSpec:
    def test_outward_normals(self, square):
        # sides in order: bottom, right, top, left
        expected = [(0, -1), (1, 0), (0, 1), (-1, 0)]
        for i, n in enumerate(expected):
            assert square.side_normal(i) == pytest.approx(n)

    def test_requires_grounding(self):
        with pytest.raises(GeometryError, match="gammaD"):
            DomainSpec(vertices=[(0, 0), (1, 0), (1, 1), (0, 1)],
                       side_tags=(G1, G2, G1, G2))

    @pytest.mark.parametrize("layout,tag", UNCHAINED_LAYOUTS + (
        ("gamma1 gamma2 gammaD gamma1", "gamma1"),  # wraps past side 3
    ))
    def test_disconnected_portion_is_rejected(self, layout, tag):
        with pytest.raises(GeometryError, match=f"^{tag} must be one "
                           "nonempty run of consecutive sides; list the "
                           "vertices so that its sides are consecutive$"):
            rectangle(1.0, layout)

    def test_rejects_self_intersection(self):
        with pytest.raises(GeometryError):
            DomainSpec(vertices=[(0, 0), (1, 1), (1, 0), (0, 1)],
                       side_tags=(D, G2, G1, D))

    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            DomainSpec(vertices=[(0, 0), (0, 1), (1, 1), (1, 0)],
                       side_tags=(D, G2, G1, D))

    def test_rejects_oversized(self):
        with pytest.raises(GeometryError):
            DomainSpec(vertices=[(0, 0), (100, 0), (100, 1), (0, 1)],
                       side_tags=(D, G2, G1, D), diameter_bound=10.0)

    def test_contains(self, square):
        assert square.contains((0.5, 0.5))
        assert square.contains((0.0, 0.5))  # boundary counts as inside
        assert not square.contains((1.5, 0.5))

    @given(w=st.floats(0.2, 5.0), h=st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_rectangle_metrics(self, w, h):
        spec = DomainSpec(vertices=[(0, 0), (w, 0), (w, h), (0, h)],
                          side_tags=(D, G2, G1, D))
        assert spec.diameter() == pytest.approx(np.hypot(w, h))
        assert spec.contains(spec.centroid())


class TestMesh:
    def test_structure(self, square):
        mesh = build_rectangle_mesh(square, 8)
        check_mesh(mesh)
        assert mesh.nodes.shape == (81, 2)
        assert triangles(mesh).shape == (128, 3)
        # boundary edges cover the perimeter once
        total = sum(
            np.hypot(*(mesh.nodes[n1] - mesh.nodes[n0]))
            for n0, n1 in mesh.edges.nodes)
        assert total == pytest.approx(4.0)

    def test_tag_local_arclength(self, square):
        mesh = build_rectangle_mesh(square, 8)
        for tag in (G1, G2):
            _, ts = mesh.tag_polyline(tag)
            assert ts[0] == pytest.approx(0.0)
            assert ts[-1] == pytest.approx(1.0)
            assert np.all(np.diff(ts) > 0)
        # gammaD (bottom + left) runs on across its gap but has no polyline
        ts = mesh.tag_edges(D).t
        assert ts[0, 0] == pytest.approx(0.0)
        assert ts[-1, 1] == pytest.approx(2.0)
        assert np.all(ts[:, 1] > ts[:, 0])
        np.testing.assert_array_equal(ts[1:, 0], ts[:-1, 1])
        with pytest.raises(GeometryError,
                           match="gammaD is not one connected chain"):
            mesh.tag_polyline(D)

    def test_nonsquare_cells(self):
        spec = DomainSpec(vertices=[(0, 0), (2, 0), (2, 1), (0, 1)],
                          side_tags=(D, G2, G1, D))
        mesh = build_rectangle_mesh(spec, 8)
        check_mesh(mesh)
        _, ts = mesh.tag_polyline(G1)
        assert ts[-1] == pytest.approx(2.0)

    def test_per_mesh_data_is_computed_once(self, square):
        mesh = build_rectangle_mesh(square, 8)
        assert mesh.stiffness is mesh.stiffness
        assert mesh.tag_polyline(G1) is mesh.tag_polyline(G1)
        with pytest.raises(ValueError):
            mesh.free_nodes[0] = 0

    def test_tag_edges_match_edge_table(self, square):
        mesh = build_rectangle_mesh(square, 8)
        table = mesh.edges
        np.testing.assert_array_equal(table.ids, np.arange(table.ids.size))
        for tag in (G1, G2, D):
            edges = mesh.tag_edges(tag)
            ids = [i for i, s in enumerate(table.sides)
                   if square.side_tags[s] == tag]
            for name in ("ids", "nodes", "t", "lengths", "sides"):
                np.testing.assert_array_equal(getattr(edges, name),
                                              getattr(table, name)[ids])
                with pytest.raises(ValueError):
                    getattr(edges, name)[0] = 0
            for (n0, n1), le in zip(edges.nodes, edges.lengths):
                assert le == float(np.hypot(*(mesh.nodes[n1]
                                              - mesh.nodes[n0])))

    def test_mesh_is_its_axes(self, square):
        mesh = build_rectangle_mesh(square, 4)
        np.testing.assert_array_equal(mesh.gx, np.linspace(0.0, 1.0, 5))
        np.testing.assert_array_equal(mesh.gy, np.linspace(0.0, 1.0, 5))
        for arr in (mesh.gx, mesh.nodes, mesh.edges.nodes):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert mesh.nodes is mesh.nodes and mesh.edges is mesh.edges

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 0), (1, 1), (0.5, 1.5), (0, 1)],  # five vertices
        [(0, 0), (1, 0), (0, 1)],  # three vertices
        [(0, 0), (2, 0), (2, 1), (1, 1)],  # four, not a rectangle
    ])
    def test_rejects_a_polygon_off_the_grid(self, vertices):
        spec = DomainSpec(vertices=vertices,
                          side_tags=(D, G2, G1) + (D,) * (len(vertices) - 3))
        with pytest.raises(GeometryError, match="axis-aligned rectangle"):
            build_rectangle_mesh(spec, 4)

    def test_tiny_rectangle(self):
        # corners closer than np.allclose's tolerance each get their side;
        # at n = 1e16 linspace repeats floating-point values
        w = 1e-14
        spec = DomainSpec(vertices=[(1, 0), (1 + w, 0), (1 + w, w), (1, w)],
                          side_tags=(D, G2, G1, D))
        check_mesh(build_rectangle_mesh(spec, 2))
        with pytest.raises(GeometryError, match="same floating-point"):
            build_rectangle_mesh(spec, 10**16)

    def test_free_and_grounded_nodes_partition(self, square):
        mesh = build_rectangle_mesh(square, 8)
        np.testing.assert_array_equal(mesh.dirichlet_nodes,
                                      np.unique(mesh.tag_edges(D).nodes))
        both = np.concatenate([mesh.free_nodes, mesh.dirichlet_nodes])
        np.testing.assert_array_equal(np.sort(both),
                                      np.arange(mesh.nodes.shape[0]))

    def test_export_roundtrip(self, square, tmp_path):
        mesh = build_rectangle_mesh(square, 4)
        export_mesh_csv(mesh, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["bedges.csv"]
        bedges = read_csv(tmp_path / "bedges.csv")
        assert len(bedges["id"]) == mesh.edges.ids.size
        np.testing.assert_array_equal(bedges["t1"], mesh.edges.t[:, 1])


def check_mesh(mesh):
    """The mesh invariants, by loops over triangles and edges: positive
    signed areas, a conforming triangulation whose hull edges are the
    stored boundary edges, and boundary edges that cover the polygon."""
    tris, p = triangles(mesh), mesh.nodes
    a = p[tris[:, 1]] - p[tris[:, 0]]
    b = p[tris[:, 2]] - p[tris[:, 0]]
    assert np.all(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0)
    edge_count = {}
    for tri in tris:
        for i in range(3):
            e = tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3]))))
            edge_count[e] = edge_count.get(e, 0) + 1
    assert max(edge_count.values()) <= 2
    hull_edges = {e for e, c in edge_count.items() if c == 1}
    edge_nodes = mesh.edges.nodes
    assert hull_edges == {tuple(sorted(map(int, e))) for e in edge_nodes}
    total = sum(float(np.hypot(*(p[e[1]] - p[e[0]]))) for e in edge_nodes)
    perim = sum(float(np.hypot(*(b - a))) for a, b in
                map(mesh.domain.side, range(mesh.domain.n_sides())))
    assert abs(total - perim) <= 1e-10 * max(1.0, perim)


def loop_rectangle_mesh(spec, n):
    """Cell-by-cell and edge-by-edge reference for build_rectangle_mesh:
    the mesh arrays by name."""
    verts = spec.vertices
    xs = sorted(set(np.round(verts[:, 0], 14)))
    ys = sorted(set(np.round(verts[:, 1], 14)))
    nx = max(1, round(n * (xs[1] - xs[0])))
    ny = max(1, round(n * (ys[1] - ys[0])))
    xx, yy = np.meshgrid(np.linspace(xs[0], xs[1], nx + 1),
                         np.linspace(ys[0], ys[1], ny + 1))
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    side_chains = (
        [nid(i, 0) for i in range(nx + 1)],
        [nid(nx, j) for j in range(ny + 1)],
        [nid(i, ny) for i in range(nx, -1, -1)],
        [nid(0, j) for j in range(ny, -1, -1)],
    )
    edge_nodes, edge_tags, edge_t, edge_sides = [], [], [], []
    tag_running = {tag: 0.0 for tag in BoundaryTag}
    for i, tag in enumerate(spec.side_tags):
        a, b = spec.side(i)
        chain = next(ch for ch in side_chains if np.allclose(a, nodes[ch[0]])
                     and np.allclose(b, nodes[ch[-1]]))
        s = tag_running[tag]
        for k in range(len(chain) - 1):
            p, q = chain[k], chain[k + 1]
            le = float(np.hypot(*(nodes[q] - nodes[p])))
            edge_nodes.append((p, q))
            edge_tags.append(tag)
            edge_t.append((s, s + le))
            edge_sides.append(i)
            s += le
        tag_running[tag] = s
    return {"nodes": nodes, "triangles": np.asarray(tris, dtype=int),
            "edge_nodes": np.asarray(edge_nodes, dtype=int),
            "edge_tags": tuple(edge_tags),
            "edge_t": np.asarray(edge_t, dtype=float),
            "edge_sides": np.asarray(edge_sides, dtype=int)}


MESH_SPECS = {
    f"{layout.replace(' ', '-')}-w{width:g}": rectangle(width, layout)
    for layout in CHAIN_LAYOUTS for width in (1.0, 2.0)
}
# vertex list that starts at (1, 0), and a rectangle off the origin
MESH_SPECS["from-1-0"] = DomainSpec(
    vertices=[(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)],
    side_tags=(G2, G1, D, D))
MESH_SPECS["offset"] = DomainSpec(
    vertices=[(0.3, -0.7), (1.8, -0.7), (1.8, 0.55), (0.3, 0.55)],
    side_tags=(D, G2, G1, D))


class TestRectangleMeshMatchesLoop:
    """The mesh sliced from one grid index array equals the cell-by-cell
    loop in value, dtype and shape, so every exported file and every
    downstream number is unchanged."""

    @pytest.mark.parametrize("name", sorted(MESH_SPECS))
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_equal_to_loop(self, name, n):
        spec = MESH_SPECS[name]
        got = build_rectangle_mesh(spec, n)
        ref = loop_rectangle_mesh(spec, n)
        edges = got.edges
        for field, a in (("nodes", got.nodes), ("triangles", triangles(got)),
                         ("edge_nodes", edges.nodes), ("edge_t", edges.t),
                         ("edge_sides", edges.sides)):
            b = ref[field]
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert np.array_equal(a, b), field
        assert tuple(spec.side_tags[s] for s in edges.sides) == \
            ref["edge_tags"]
        check_mesh(got)


class TestTraceSample:
    def test_points_on_tagged_sides(self, square):
        mesh = build_rectangle_mesh(square, 8)
        curve = trace_sample(mesh, G1, 33)
        assert np.allclose(curve.points[:, 1], 1.0)  # top side
        assert np.allclose(curve.normals, [0.0, 1.0])
        assert curve.t[0] == pytest.approx(0.0)
        assert curve.t[-1] == pytest.approx(1.0)

    def test_disconnected_portion_stays_on_boundary(self, square):
        # gammaD = bottom + left: samples must never bridge the gap between
        # the two sides through the interior
        mesh = build_rectangle_mesh(square, 8)
        curve = trace_sample(mesh, D, 57)
        on_bottom = np.isclose(curve.points[:, 1], 0.0)
        on_left = np.isclose(curve.points[:, 0], 0.0)
        assert np.all(on_bottom | on_left)
        assert on_bottom.sum() > 0 and on_left.sum() > 0

    def test_normals_unit(self, square):
        mesh = build_rectangle_mesh(square, 8)
        for tag in (G1, G2, D):
            curve = trace_sample(mesh, tag, 17)
            np.testing.assert_allclose(
                np.hypot(curve.normals[:, 0], curve.normals[:, 1]), 1.0)

    def test_tangent_orthogonal_to_normal(self, square):
        mesh = build_rectangle_mesh(square, 8)
        curve = trace_sample(mesh, G2, 17)
        dots = np.einsum("pd,pd->p", curve.tangents(), curve.normals)
        np.testing.assert_allclose(dots, 0.0, atol=1e-14)

    def test_shared_curve_is_read_only(self, square):
        mesh = build_rectangle_mesh(square, 8)
        curve = trace_sample(mesh, D, 17)
        for arr in (curve.t, curve.points, curve.normals):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def reference_trace_sample(mesh, tag, m):
    """Sample-by-sample reference for trace_sample: components rebuilt
    edge by edge, each sample placed on the first component that holds
    its parameter, its normal taken from the edge that starts at or
    before it."""
    table = mesh.edges
    idx = np.asarray([i for i, s in enumerate(table.sides)
                      if mesh.domain.side_tags[s] == tag])
    edge_side = table.sides[idx]
    edge_t = table.t[idx]
    comps = []
    for k, i in enumerate(idx):
        n0, n1 = table.nodes[i]
        if k == 0 or n0 != comps[-1][0][-1]:
            comps.append(([int(n0)], [float(edge_t[k, 0])]))
        comps[-1][0].append(int(n1))
        comps[-1][1].append(float(edge_t[k, 1]))
    components = tuple(
        (np.asarray(ts, dtype=float), mesh.nodes[np.asarray(ns, dtype=int)])
        for ns, ts in comps)
    s = np.linspace(components[0][0][0], components[-1][0][-1], m)
    pts = np.empty((m, 2))
    normals = np.empty((m, 2))
    starts = edge_t[:, 0]
    for k, sk in enumerate(s):
        for ts, cpts in components:
            if ts[0] - 1e-14 <= sk <= ts[-1] + 1e-14:
                pts[k, 0] = np.interp(sk, ts, cpts[:, 0])
                pts[k, 1] = np.interp(sk, ts, cpts[:, 1])
                break
        else:
            raise AssertionError(f"sample parameter {sk:g} not on the portion")
        e = int(np.clip(np.searchsorted(starts, sk + 1e-14) - 1,
                        0, idx.size - 1))
        normals[k] = mesh.domain.side_normal(int(edge_side[e]))
    return BoundaryCurve(t=s, points=pts, normals=normals)


class TestTraceSampleMatchesReference:
    """Samples placed from the mesh's per-tag edge table equal the
    sample-by-sample reference bit for bit, also on a disconnected portion
    whose gap falls on a sample (m = 3 and 5 on the default gammaD)."""

    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS)
    @pytest.mark.parametrize("width", [1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_equal_to_reference(self, layout, width, n):
        mesh = build_rectangle_mesh(rectangle(width, layout), n)
        for tag in (G1, G2, D):
            for m in (2, 3, 5, 17, 57):
                ref = reference_trace_sample(mesh, tag, m)
                got = trace_sample(mesh, tag, m)
                for name in ("t", "points", "normals"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(ref, name)), (tag, m, name)


def reference_point_segment_distance(p, a, b):
    """Exact Euclidean distance from point p to segment [a, b], one point
    and one segment at a time."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    s = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    proj = a + s * ab
    return float(np.hypot(*(p - proj)))


def reference_distance(p, a, b):
    """Distance from p to the nearest segment [a_k, b_k], side by side."""
    return min(reference_point_segment_distance(p, ak, bk)
               for ak, bk in zip(a, b))


def point_on(mesh, tag, t):
    """The point of the tag's chain at tag-local arc length t."""
    node_ids, ts = mesh.tag_polyline(tag)
    pts = mesh.nodes[node_ids]
    return np.array([np.interp(t, ts, pts[:, 0]),
                     np.interp(t, ts, pts[:, 1])])


def reference_inner_portion(mesh, tag, rho, m):
    """Sample-by-sample reference for inner_portion: one distance per
    sample and per bisection step, each end bisected on its own."""
    if rho <= 0:
        raise GeometryError("rho must be positive")
    _, ts = mesh.tag_polyline(tag)
    t = trace_sample(mesh, tag, m).t
    length = float(ts[-1] - ts[0])
    if rho >= 0.5 * length:
        raise EmptyPortionError(
            f"rho={rho:g} is not below half the arc length {length:g}")
    a, b = mesh.domain.segments(without=tag)

    def dist(s):
        return reference_distance(point_on(mesh, tag, s), a, b)

    mask = np.array([dist(s) > rho for s in t])
    if not np.any(mask):
        raise EmptyPortionError(f"no boundary points at distance > {rho:g}")
    step = np.diff(mask.astype(int), prepend=0, append=0)
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1
    k = int(np.argmax(t[ends] - t[starts]))
    i0, i1 = starts[k], ends[k]

    def bisect(s_out, s_in):
        for _ in range(80):
            sm = 0.5 * (s_out + s_in)
            if dist(sm) > rho:
                s_in = sm
            else:
                s_out = sm
        return s_in

    t_lo = bisect(t[i0 - 1], t[i0]) if i0 > 0 else t[i0]
    t_hi = bisect(t[i1 + 1], t[i1]) if i1 < m - 1 else t[i1]
    run = t[i0:i1 + 1]
    return np.concatenate([[t_lo], run[(t_lo < run) & (run < t_hi)], [t_hi]])


class TestInnerPortion:
    def test_matches_bruteforce(self, square):
        mesh = build_rectangle_mesh(square, 16)
        rho = 0.2
        inner = inner_portion(mesh, G2, rho, 201)
        comp = square.segments(without=G2)
        # every kept point is at distance > rho (up to bisection tolerance)
        for t in inner:
            p = point_on(mesh, G2, t)
            assert reference_distance(p, *comp) > rho - 1e-8
        # the endpoints sit essentially at distance rho
        for t in (inner[0], inner[-1]):
            p = point_on(mesh, G2, t)
            assert reference_distance(p, *comp) == pytest.approx(
                rho, abs=1e-6)

    def test_interval_is_maximal(self, square):
        # on the right side of the unit square the inner portion for rho is
        # exactly y in (rho, 1 - rho)
        mesh = build_rectangle_mesh(square, 16)
        inner = inner_portion(mesh, G2, 0.3, 201)
        assert inner.ndim == 1 and np.all(np.diff(inner) > 0)
        assert inner[0] == pytest.approx(0.3, abs=1e-6)
        assert inner[-1] == pytest.approx(0.7, abs=1e-6)
        t = trace_sample(mesh, G2, 201).t
        np.testing.assert_array_equal(
            inner[1:-1], t[(t > inner[0]) & (t < inner[-1])])

    def test_crosses_a_corner(self):
        # gamma2 runs along the bottom and up the right side of a 2 x 1
        # rectangle; the margin is kept from the left side and the top
        mesh = build_rectangle_mesh(
            rectangle(2.0, "gamma2 gamma2 gamma1 gammaD"), 16)
        inner = inner_portion(mesh, G2, 0.1, 201)
        assert inner[0] == pytest.approx(0.1, abs=1e-6)
        assert inner[-1] == pytest.approx(2.9, abs=1e-6)

    def test_stops_once_no_end_can_move(self, monkeypatch):
        # the inner portion of the default sweep: the ends stop moving
        # long before 80 halvings, and the bisection stops with them
        config = parse_config(text="")
        mesh = build_rectangle_mesh(config.domain, config.mesh_n)
        calls = []

        def counting(*args):
            calls.append(args)
            return segment_distance(*args)

        monkeypatch.setattr(geometry, "segment_distance", counting)
        inner_portion(mesh, G2, 2.0 * config.domain.r0, 201)
        assert len(calls) < 60

    def test_too_large_margin(self, square):
        mesh = build_rectangle_mesh(square, 8)
        with pytest.raises(EmptyPortionError):
            inner_portion(mesh, G2, 0.6, 101)

    @pytest.mark.parametrize("rho", [0.0, -0.1])
    def test_nonpositive_margin(self, square, rho):
        mesh = build_rectangle_mesh(square, 8)
        with pytest.raises(GeometryError, match="rho must be positive"):
            inner_portion(mesh, G2, rho, 101)


class TestQuadratureWeights:
    def test_simpson_exact_for_cubics(self):
        t = np.linspace(0.0, 2.0, 21)
        w = quadrature_weights(t)
        f = t**3 - 2 * t**2 + 1
        assert w @ f == pytest.approx(4.0 - 16.0 / 3.0 + 2.0, abs=1e-13)

    def test_trapezoid_fallback_sums_to_length(self):
        t = np.array([0.0, 0.1, 0.35, 0.7, 1.0])
        w = quadrature_weights(t)
        assert w.sum() == pytest.approx(1.0)

    @given(n=st.integers(3, 40))
    @settings(max_examples=20, deadline=None)
    def test_weights_positive_and_sum(self, n):
        t = np.linspace(0.0, 1.0, n)
        w = quadrature_weights(t)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0)


class TestSegmentDistance:
    def test_cases(self):
        a, b = np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])
        pts = [(0.5, 1.0), (2.0, 0.0), (-3.0, 4.0), (0.3, 0.0)]
        np.testing.assert_array_equal(segment_distance(pts, a, b),
                                      [1.0, 1.0, 5.0, 0.0])
        assert segment_distance((-3.0, 4.0), a, b).shape == ()

    def test_degenerate_segment(self):
        a = np.array([[1.0, 1.0]])
        assert segment_distance((4.0, 5.0), a, a) == 5.0

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_to_reference(self, seed):
        """Bit for bit the one-point, one-segment formula, whatever the
        batch: random points and segments over several scales, one
        segment of four degenerate in most draws, and points on the
        segments (their ends and interior points)."""
        rng = np.random.default_rng(seed)
        for draw in range(100):
            scale = 10.0 ** rng.integers(-3, 4)
            a = rng.uniform(-3.0, 3.0, (4, 2)) * scale
            b = rng.uniform(-3.0, 3.0, (4, 2)) * scale
            if draw % 5 < 3:
                b[draw % 4] = a[draw % 4]
            k = (draw + 1) % 4  # not the degenerate segment
            on = a[k] + rng.uniform(0.0, 1.0, (8, 1)) * (b[k] - a[k])
            pts = np.concatenate([rng.uniform(-5.0, 5.0, (30, 2)) * scale,
                                  a, b, on])
            got = segment_distance(pts, a, b)
            want = [reference_distance(p, a, b) for p in pts]
            assert np.array_equal(got, want)
            for p, w in zip(pts[::7], want[::7]):
                assert segment_distance(p, a, b) == w
        assert np.all(segment_distance(a, a, b) == 0.0)


class TestInnerPortionMatchesReference:
    """Both ends bisected together, from one distance call per step, equal
    the end-by-end scalar bisection bit for bit, and the errors match: at
    m = 2 no sample is inside, and rho = 0.6 is not below half of a
    one-side chain.  The reference always takes 80 halvings, so the early
    stop of inner_portion changes no bit."""

    @pytest.mark.parametrize("name", sorted(MESH_SPECS))
    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.2, 0.3, 0.6])
    def test_equal_to_reference(self, name, rho):
        for n, tag, m in itertools.product((16, 64), (G1, G2), (201, 2)):
            mesh = build_rectangle_mesh(MESH_SPECS[name], n)
            try:
                want = reference_inner_portion(mesh, tag, rho, m)
            except EmptyPortionError as exc:
                with pytest.raises(EmptyPortionError) as got:
                    inner_portion(mesh, tag, rho, m)
                assert str(got.value) == str(exc)
            else:
                assert np.array_equal(inner_portion(mesh, tag, rho, m),
                                      want), (n, tag, m)
