"""2D polygonal domains with a tagged boundary partition and structured meshes.

The domain boundary is split into three portions: the corroded part (gamma1,
inaccessible), the measurement part (gamma2) and the grounded part (gammaD).
Tags are carried on boundary edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from corrinv.csvio import write_csv


class GeometryError(ValueError):
    """Invalid geometric input (bad polygon, missing tag, degenerate mesh)."""


class EmptyPortionError(GeometryError):
    """An inner boundary portion came out empty for the requested margin."""


class BoundaryTag(Enum):
    GAMMA1 = "gamma1"
    GAMMA2 = "gamma2"
    GAMMAD = "gammaD"

    @classmethod
    def parse(cls, text: str) -> "BoundaryTag":
        key = text.strip().lower()
        for tag in cls:
            if tag.value.lower() == key:
                return tag
        raise GeometryError(f"unknown boundary tag {text!r}")


def _polygon_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper intersection test for open segments (shared endpoints ignored)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact Euclidean distance from point p to segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    s = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    proj = a + s * ab
    return float(np.hypot(*(p - proj)))


def quadrature_weights(t: np.ndarray) -> np.ndarray:
    """Quadrature weights on a 1D grid: composite Simpson when the point
    count is odd and the grid is uniform, composite trapezoid otherwise."""
    t = np.asarray(t, dtype=float)
    n = t.size
    if n < 2:
        raise GeometryError("need at least two points for quadrature")
    dt = np.diff(t)
    uniform = np.allclose(dt, dt[0], rtol=1e-12, atol=1e-14)
    w = np.zeros(n)
    if uniform and n % 2 == 1 and n >= 3:
        h = dt[0]
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
    else:
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt
    return w


@dataclass(frozen=True)
class DomainSpec:
    """A simple, counterclockwise polygon with one boundary tag per side.

    Side i runs from vertex i to vertex i+1 (cyclically); gamma1 and gamma2
    each take one run of consecutive sides i..j, j >= i.  r0 is the a
    priori boundary length scale (the oscillation sweep scales the flux
    on the part of gamma2 farther than 2*r0 from the other sides);
    diameter_bound is checked at construction.
    """

    vertices: np.ndarray
    side_tags: tuple
    r0: float = 0.1
    diameter_bound: float = 10.0

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise GeometryError("vertices must be an (V, 2) array with V >= 3")
        object.__setattr__(self, "vertices", verts)
        tags = tuple(self.side_tags)
        if len(tags) != verts.shape[0]:
            raise GeometryError(
                f"need one tag per side: {verts.shape[0]} sides, {len(tags)} tags"
            )
        if not all(isinstance(t, BoundaryTag) for t in tags):
            raise GeometryError("side_tags must be BoundaryTag values")
        object.__setattr__(self, "side_tags", tags)
        if _polygon_area(verts) <= 0.0:
            raise GeometryError("polygon must be counterclockwise-oriented")
        nv = verts.shape[0]
        for i in range(nv):
            for j in range(i + 1, nv):
                if j == i or (j + 1) % nv == i or (i + 1) % nv == j:
                    continue
                if _segments_intersect(
                    verts[i], verts[(i + 1) % nv], verts[j], verts[(j + 1) % nv]
                ):
                    raise GeometryError(
                        f"polygon self-intersects (sides {i} and {j})"
                    )
        if BoundaryTag.GAMMAD not in tags:
            raise GeometryError("grounded portion gammaD must be nonempty")
        for tag in (BoundaryTag.GAMMA1, BoundaryTag.GAMMA2):
            sides = self.sides_with_tag(tag)
            if not sides or sides[-1] - sides[0] != len(sides) - 1:
                raise GeometryError(f"{tag.value} must be one nonempty run of "
                                    "consecutive sides; list the vertices so "
                                    "that its sides are consecutive")
        if self.diameter() > self.diameter_bound + 1e-12:
            raise GeometryError(
                f"polygon diameter {self.diameter():g} exceeds bound "
                f"{self.diameter_bound:g}"
            )

    def n_sides(self) -> int:
        return self.vertices.shape[0]

    def side(self, i: int) -> tuple:
        nv = self.n_sides()
        return self.vertices[i % nv], self.vertices[(i + 1) % nv]

    def side_normal(self, i: int) -> np.ndarray:
        a, b = self.side(i)
        d = (b - a) / np.hypot(*(b - a))
        # outward normal of a ccw polygon
        return np.array([d[1], -d[0]])

    def sides_with_tag(self, tag: BoundaryTag) -> list:
        return [i for i, t in enumerate(self.side_tags) if t == tag]

    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d**2).sum(-1)).max())

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def complement_segments(self, tag: BoundaryTag) -> list:
        """Sides of the polygon not carrying the given tag, as (a, b) pairs."""
        return [self.side(i) for i, t in enumerate(self.side_tags) if t != tag]

    def contains(self, p) -> bool:
        """Point-in-polygon by winding of crossings (boundary counts as in)."""
        p = np.asarray(p, dtype=float)
        verts = self.vertices
        nv = verts.shape[0]
        inside = False
        for i in range(nv):
            a, b = verts[i], verts[(i + 1) % nv]
            if point_segment_distance(p, a, b) < 1e-14:
                return True
            if (a[1] > p[1]) != (b[1] > p[1]):
                xc = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
                if p[0] < xc:
                    inside = not inside
        return inside


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled boundary portion: arc-length parameters, points and outward
    unit normals."""

    t: np.ndarray
    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        nrm = np.asarray(self.normals, dtype=float)
        if not (t.size == pts.shape[0] == nrm.shape[0]):
            raise GeometryError("curve arrays must have matching lengths")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise GeometryError("arc length must be strictly increasing")
        lens = np.hypot(nrm[:, 0], nrm[:, 1])
        if t.size and not np.allclose(lens, 1.0, atol=1e-10):
            raise GeometryError("normals must be unit vectors")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.t.size

    def tangents(self) -> np.ndarray:
        """Unit tangents in the direction of increasing arc length
        (outward normal rotated by +90 degrees for a ccw traversal)."""
        n = self.normals
        return np.column_stack([-n[:, 1], n[:, 0]])


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class TagEdges:
    """Boundary edges of one tag in traversal order: edge ids, endpoint
    node pairs, tag-local arc length of both endpoints, edge lengths and
    the polygon side of each edge.  The arrays are shared through the mesh
    and read-only."""

    ids: np.ndarray
    nodes: np.ndarray
    t: np.ndarray
    lengths: np.ndarray
    sides: np.ndarray

    def chain_starts(self) -> np.ndarray:
        """Indices of the edges that do not begin at the end node of the
        edge before them; each starts a new connected chain."""
        return np.flatnonzero(self.nodes[1:, 0] != self.nodes[:-1, 1]) + 1


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of a polygonal domain.

    Boundary edges are stored in traversal order with their tag and the
    tag-local arc-length coordinates of both endpoints.

    Derived per-mesh data (edge arrays per tag, polylines, sample curves,
    the stiffness matrix, the grounded and free node sets, the grid axes and
    the solver of the free stiffness block) is computed on first use and
    kept on the instance, so it lives exactly as long as the mesh.  Shared
    arrays are read-only.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    edge_nodes: np.ndarray  # (B, 2) node indices, oriented along traversal
    edge_tags: tuple  # length B
    edge_t: np.ndarray  # (B, 2) tag-local arc length of endpoints
    edge_sides: np.ndarray  # (B,) polygon side index of each edge
    domain: DomainSpec

    @cached_property
    def _tag_edges(self) -> dict:
        out = {}
        for tag in BoundaryTag:
            ids = np.asarray([i for i, t in enumerate(self.edge_tags)
                              if t == tag], dtype=int)
            nodes = self.edge_nodes[ids].reshape(-1, 2)
            d = self.nodes[nodes[:, 1]] - self.nodes[nodes[:, 0]]
            edges = TagEdges(ids=ids, nodes=nodes,
                             t=self.edge_t[ids].reshape(-1, 2),
                             lengths=np.hypot(d[:, 0], d[:, 1]),
                             sides=self.edge_sides[ids])
            _read_only(edges.ids, edges.nodes, edges.t, edges.lengths,
                       edges.sides)
            out[tag] = edges
        return out

    @cached_property
    def _memo(self) -> dict:
        # polylines by ("polyline", tag), sample curves by ("sample", tag, m)
        return {}

    def tag_edges(self, tag: BoundaryTag) -> TagEdges:
        return self._tag_edges[tag]

    def tag_polyline(self, tag: BoundaryTag):
        """Node chain of a tagged portion, in traversal order.

        Returns (node_ids, t) where t is the tag-local arc length of each
        node.  Raises GeometryError when the portion is not one connected
        chain of sides.
        """
        key = ("polyline", tag)
        if key not in self._memo:
            edges = self.tag_edges(tag)
            if edges.ids.size == 0:
                raise GeometryError(f"tag {tag.value} absent from mesh boundary")
            if edges.chain_starts().size:
                raise GeometryError(
                    f"{tag.value} is not one connected chain of sides")
            node_ids = np.concatenate([edges.nodes[:1, 0], edges.nodes[:, 1]])
            ts = np.concatenate([edges.t[:1, 0], edges.t[:, 1]])
            _read_only(node_ids, ts)
            self._memo[key] = (node_ids, ts)
        return self._memo[key]

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Nodes on the grounded portion gammaD."""
        nodes = np.unique(self.tag_edges(BoundaryTag.GAMMAD).nodes)
        _read_only(nodes)
        return nodes

    @cached_property
    def free_nodes(self) -> np.ndarray:
        """Nodes off gammaD, where the potential is unknown."""
        free = np.ones(self.nodes.shape[0], dtype=bool)
        free[self.dirichlet_nodes] = False
        nodes = np.flatnonzero(free)
        _read_only(nodes)
        return nodes

    @cached_property
    def stiffness(self):
        """P1 stiffness matrix of the Laplacian on the grid, assembled
        once; raises GeometryError for any other mesh."""
        from corrinv import forward  # forward imports this module

        K = forward.assemble_stiffness(self)
        _read_only(K.data, K.indices, K.indptr)
        return K

    @cached_property
    def grid(self) -> tuple:
        """Axes (gx, gy) of the structured grid that build_rectangle_mesh
        lays out: node j*gx.size + i sits at (gx[i], gy[j]) and each cell is
        split along its up-right diagonal.  Raises GeometryError for any
        other mesh."""
        nx1 = max(1, int(np.argmax(self.nodes[:, 1] != self.nodes[0, 1])))
        gx, gy = self.nodes[:nx1, 0], self.nodes[::nx1, 1]
        ids = np.arange(gx.size * gy.size).reshape(gy.size, gx.size)
        if not (np.all(np.diff(gx) > 0) and np.all(np.diff(gy) > 0)
                and np.array_equal(self.nodes, np.stack(
                    np.meshgrid(gx, gy), axis=-1).reshape(-1, 2))
                and np.array_equal(self.triangles, _grid_triangles(ids))):
            raise GeometryError("mesh is not a structured rectangle grid")
        return gx, gy

    @cached_property
    def stiffness_solver(self):
        """Exact tensor-product solver of the stiffness block on the free
        nodes, for the linear solves and the Newton steps; built on first
        use."""
        from corrinv import forward  # forward imports this module

        return forward.StiffnessSolver(self)


def _grid_triangles(ids: np.ndarray) -> np.ndarray:
    """Triangles of a (rows, cols) array of grid node ids: cell corners
    a b c d counterclockwise from the lower left, cells in row-major order,
    triangles (a, b, c) then (a, c, d) per cell."""
    a, b = ids[:-1, :-1], ids[:-1, 1:]
    c, d = ids[1:, 1:], ids[1:, :-1]
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def build_rectangle_mesh(spec: DomainSpec, n: int) -> Mesh:
    """Structured triangulation of an axis-aligned rectangle.

    n is the number of subdivisions per unit length; each grid cell is split
    into two triangles along its up-right diagonal.  Triangles and boundary
    chains are slices of one (ny+1, nx+1) array of node ids.
    """
    if n < 1:
        raise GeometryError("n must be >= 1")
    verts = spec.vertices
    if verts.shape[0] != 4:
        raise GeometryError("build_rectangle_mesh requires a 4-vertex polygon")
    xs, ys = sorted(set(np.round(verts[:, 0], 14))), sorted(set(np.round(verts[:, 1], 14)))
    if len(xs) != 2 or len(ys) != 2:
        raise GeometryError("polygon is not an axis-aligned rectangle")
    x0, x1 = xs
    y0, y1 = ys
    lx, ly = x1 - x0, y1 - y0
    nx = max(1, round(n * lx))
    ny = max(1, round(n * ly))
    gx = np.linspace(x0, x1, nx + 1)
    gy = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(gx, gy)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    ids = np.arange(nodes.shape[0]).reshape(ny + 1, nx + 1)

    triangles = _grid_triangles(ids)

    # the four sides as ccw node chains: bottom, right, top, left
    chains = (ids[0], ids[:, -1], ids[-1, ::-1], ids[::-1, 0])
    pairs, arcs = [], []
    tag_running = dict.fromkeys(BoundaryTag, 0.0)
    for i, tag in enumerate(spec.side_tags):
        start, end = spec.side(i)
        chain = next((ch for ch in chains if np.allclose(start, nodes[ch[0]])
                      and np.allclose(end, nodes[ch[-1]])), None)
        if chain is None:
            raise GeometryError(f"polygon side {i} does not match the rectangle")
        pairs.append(np.column_stack([chain[:-1], chain[1:]]))
        step = np.diff(nodes[chain], axis=0)
        s = np.cumsum(np.concatenate([[tag_running[tag]], np.hypot(*step.T)]))
        tag_running[tag] = s[-1]
        arcs.append(np.column_stack([s[:-1], s[1:]]))
    edge_sides = np.repeat(np.arange(4), [p.shape[0] for p in pairs])

    return Mesh(nodes=nodes, triangles=triangles,
                edge_nodes=np.concatenate(pairs),
                edge_tags=tuple(spec.side_tags[i] for i in edge_sides),
                edge_t=np.concatenate(arcs), edge_sides=edge_sides,
                domain=spec)


def trace_sample(mesh: Mesh, tag: BoundaryTag, m: int) -> BoundaryCurve:
    """m equispaced-in-arc-length samples along the tagged boundary portion.

    At a corner sample between two sides the normal of the following side is
    used.  The curve is built once per (tag, m) and kept on the mesh; its
    arrays are read-only because every caller shares them.
    """
    if m < 2:
        raise GeometryError("need at least two samples")
    key = ("sample", tag, m)
    if key not in mesh._memo:
        mesh._memo[key] = _build_trace_sample(mesh, tag, m)
    return mesh._memo[key]


def _build_trace_sample(mesh: Mesh, tag: BoundaryTag, m: int) -> BoundaryCurve:
    edges = mesh.tag_edges(tag)
    if edges.ids.size == 0:
        raise GeometryError(f"tag {tag.value} absent from mesh boundary")

    # connected polyline components (the tagged portion may be a disjoint
    # union of sides; never interpolate across a gap)
    cuts = np.concatenate([[0], edges.chain_starts(), [edges.ids.size]])
    s = np.linspace(edges.t[0, 0], edges.t[-1, 1], m)
    pts = np.empty((m, 2))
    # tag-local arc length runs on across a gap, so a sample at the shared
    # parameter of two components lies on the first of them
    todo = np.ones(m, dtype=bool)
    for a, b in zip(cuts[:-1], cuts[1:]):
        ts = np.concatenate([edges.t[a:a + 1, 0], edges.t[a:b, 1]])
        cpts = mesh.nodes[np.concatenate([edges.nodes[a:a + 1, 0],
                                          edges.nodes[a:b, 1]])]
        on = todo & (s <= ts[-1] + 1e-14)
        pts[on, 0] = np.interp(s[on], ts, cpts[:, 0])
        pts[on, 1] = np.interp(s[on], ts, cpts[:, 1])
        todo &= ~on
    # a sample exactly at an edge start belongs to that (following) edge
    e = np.clip(np.searchsorted(edges.t[:, 0], s + 1e-14) - 1,
                0, edges.ids.size - 1)
    side_normals = np.array([mesh.domain.side_normal(i)
                             for i in range(mesh.domain.n_sides())])
    curve = BoundaryCurve(t=s, points=pts,
                          normals=side_normals[edges.sides[e]])
    _read_only(curve.t, curve.points, curve.normals)
    return curve


def inner_portion(mesh: Mesh, tag: BoundaryTag, rho: float,
                  m: int) -> np.ndarray:
    """Tag-local arc lengths of the part of a tagged chain at exact
    Euclidean distance > rho from the polygon sides outside the tag.

    Distances are measured along ``mesh.tag_polyline(tag)``.  Returns both
    ends, located by bisection, and the ``trace_sample(mesh, tag, m)``
    parameters strictly between them.  If several runs of samples qualify,
    the longest run is taken.
    """
    if rho <= 0:
        raise GeometryError("rho must be positive")
    node_ids, ts = mesh.tag_polyline(tag)
    t = trace_sample(mesh, tag, m).t
    length = float(ts[-1] - ts[0])
    if rho >= 0.5 * length:
        raise EmptyPortionError(
            f"rho={rho:g} is not below half the arc length {length:g}")

    xs, ys = mesh.nodes[node_ids].T
    segs = mesh.domain.complement_segments(tag)

    def dist(s: float) -> float:
        p = np.array([np.interp(s, ts, xs), np.interp(s, ts, ys)])
        return min(point_segment_distance(p, a, b) for a, b in segs)

    mask = np.array([dist(s) > rho for s in t])
    if not np.any(mask):
        raise EmptyPortionError(f"no boundary points at distance > {rho:g}")

    # longest contiguous run of qualifying samples
    step = np.diff(mask.astype(int), prepend=0, append=0)
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1
    k = int(np.argmax(t[ends] - t[starts]))
    i0, i1 = starts[k], ends[k]

    def bisect(s_out: float, s_in: float) -> float:
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


def export_mesh_csv(mesh: Mesh, out_dir) -> None:
    """Write nodes.csv, tris.csv and bedges.csv into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "nodes.csv", ["id", "x", "y"],
              [np.arange(len(mesh.nodes)), *mesh.nodes.T])
    write_csv(out / "tris.csv", ["id", "n0", "n1", "n2"],
              [np.arange(len(mesh.triangles)), *mesh.triangles.T])
    write_csv(out / "bedges.csv", ["id", "n0", "n1", "tag", "t0", "t1"],
              [np.arange(len(mesh.edge_nodes)), *mesh.edge_nodes.T,
               [tag.value for tag in mesh.edge_tags], *mesh.edge_t.T])
