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
    """Invalid geometric input (bad polygon, missing tag, degenerate mesh);
    ``key`` names the config key, or keys, at fault, if any."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


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


def segment_distance(points, a, b) -> np.ndarray:
    """Exact Euclidean distance from each point to the nearest of the
    segments [a_k, b_k].

    ``points`` has shape (..., 2) and ``a``, ``b`` shape (S, 2); the result
    has shape (...).  Each point-segment term is p - (a + s (b - a)), with
    s the projection parameter clipped to [0, 1] (0 on a degenerate
    segment) and both dot products taken through ``@``, so a point's
    distance does not depend on the batch it is computed in.
    """
    p = np.asarray(points, dtype=float)[..., None, :]
    a = np.asarray(a, dtype=float)
    ab = np.asarray(b, dtype=float) - a
    denom = (ab[:, None, :] @ ab[:, :, None])[:, 0, 0]
    num = ((p - a)[..., None, :] @ ab[:, :, None])[..., 0, 0]
    s = np.clip(np.divide(num, denom, out=np.zeros_like(num),
                          where=denom != 0.0), 0.0, 1.0)
    d = p - (a + s[..., None] * ab)
    return np.hypot(d[..., 0], d[..., 1]).min(axis=-1)


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
            raise GeometryError("vertices must be an (V, 2) array with V >= 3",
                                "domain.vertices")
        object.__setattr__(self, "vertices", verts)
        tags = tuple(self.side_tags)
        if len(tags) != verts.shape[0]:
            raise GeometryError(f"need one tag per side: {verts.shape[0]} "
                                f"sides, {len(tags)} tags", "domain.tags")
        if not all(isinstance(t, BoundaryTag) for t in tags):
            raise GeometryError("side_tags must be BoundaryTag values",
                                "domain.tags")
        object.__setattr__(self, "side_tags", tags)
        if _polygon_area(verts) <= 0.0:
            raise GeometryError("polygon must be counterclockwise-oriented",
                                "domain.vertices")
        nv = verts.shape[0]
        for i in range(nv):
            for j in range(i + 1, nv):
                if j == i or (j + 1) % nv == i or (i + 1) % nv == j:
                    continue
                if _segments_intersect(
                    verts[i], verts[(i + 1) % nv], verts[j], verts[(j + 1) % nv]
                ):
                    raise GeometryError(
                        f"polygon self-intersects (sides {i} and {j})",
                        "domain.vertices")
        if BoundaryTag.GAMMAD not in tags:
            raise GeometryError("grounded portion gammaD must be nonempty",
                                "domain.tags")
        for tag in (BoundaryTag.GAMMA1, BoundaryTag.GAMMA2):
            sides = self.sides_with_tag(tag)
            if not sides or sides[-1] - sides[0] != len(sides) - 1:
                raise GeometryError(f"{tag.value} must be one nonempty run of "
                                    "consecutive sides; list the vertices so "
                                    "that its sides are consecutive",
                                    "domain.tags")
        if self.diameter() > self.diameter_bound + 1e-12:
            raise GeometryError(
                f"polygon diameter {self.diameter():g} exceeds bound "
                f"{self.diameter_bound:g}", "domain.diameter_bound")

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

    def segments(self, without: BoundaryTag | None = None) -> tuple:
        """Start and end points (a, b), as (S, 2) arrays, of the polygon
        sides in order, leaving out the sides tagged ``without``."""
        keep = [t != without for t in self.side_tags]
        return self.vertices[keep], np.roll(self.vertices, -1, axis=0)[keep]

    def contains(self, p) -> bool:
        """Point-in-polygon by parity of crossings (boundary counts as in)."""
        p = np.asarray(p, dtype=float)
        a, b = self.segments()
        if segment_distance(p, a, b) < 1e-14:
            return True
        on = (a[:, 1] > p[1]) != (b[:, 1] > p[1])
        a, b = a[on], b[on]
        xc = a[:, 0] + ((p[1] - a[:, 1]) * (b[:, 0] - a[:, 0])
                        / (b[:, 1] - a[:, 1]))
        return bool(np.count_nonzero(p[0] < xc) % 2)


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
    """Boundary edges in traversal order: edge ids, endpoint node pairs,
    tag-local arc length of both endpoints, edge lengths and the polygon
    side of each edge.  ``Mesh.edges`` holds every boundary edge and
    ``Mesh.tag_edges`` one tag's rows of it; the arrays are read-only."""

    ids: np.ndarray
    nodes: np.ndarray
    t: np.ndarray
    lengths: np.ndarray
    sides: np.ndarray

    def __post_init__(self):
        _read_only(self.ids, self.nodes, self.t, self.lengths, self.sides)


@dataclass(frozen=True)
class Mesh:
    """Structured P1 triangulation of an axis-aligned rectangle: the
    domain and the grid axes ``gx``, ``gy`` (read-only).

    Node ``j * gx.size + i`` sits at ``(gx[i], gy[j])`` and each cell is
    split along its up-right diagonal.  Everything else (nodes, the
    boundary edge table and its rows per tag, node chains, the grounded
    and free node sets and the one stiffness object, which applies and
    solves) is derived on first use and kept on the instance, so it lives
    exactly as long as the mesh.  Shared arrays are read-only.
    """

    domain: DomainSpec
    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        for name in ("gx", "gy"):
            axis = np.array(getattr(self, name), dtype=float)
            _read_only(axis)
            object.__setattr__(self, name, axis)

    @cached_property
    def _ids(self) -> np.ndarray:
        """Node ids as a (gy.size, gx.size) array."""
        return np.arange(self.gx.size * self.gy.size).reshape(
            self.gy.size, self.gx.size)

    @cached_property
    def nodes(self) -> np.ndarray:
        xx, yy = np.meshgrid(self.gx, self.gy)
        nodes = np.column_stack([xx.ravel(), yy.ravel()])
        _read_only(nodes)
        return nodes

    @cached_property
    def edges(self) -> TagEdges:
        """Every boundary edge, polygon side after side; each side takes
        the row or column of node ids along its direction."""
        ids = self._ids
        # the grid's sides as ccw node chains: bottom, right, top, left
        chains = (ids[0], ids[:, -1], ids[-1, ::-1], ids[::-1, 0])
        a, b = self.domain.segments()
        d = b - a
        # +x runs along the bottom, +y the right side, -x the top, -y the left
        sides = [chains[k] for k in np.argmax(np.hstack([d, -d]), axis=1)]
        nodes = np.concatenate([np.column_stack([c[:-1], c[1:]])
                                for c in sides])
        side = np.repeat(np.arange(len(sides)), [c.size - 1 for c in sides])
        step = self.nodes[nodes[:, 1]] - self.nodes[nodes[:, 0]]
        lengths = np.hypot(step[:, 0], step[:, 1])
        # tag-local arc length runs on across the sides of a tag
        t = np.empty(nodes.shape)
        for tag in BoundaryTag:
            on = np.isin(side, self.domain.sides_with_tag(tag))
            t[on, 1] = np.cumsum(lengths[on])
            t[on, 0] = np.concatenate([[0.0], t[on, 1][:-1]])
        return TagEdges(ids=np.arange(side.size), nodes=nodes, t=t,
                        lengths=lengths, sides=side)

    @cached_property
    def _tag_edges(self) -> dict:
        e, out = self.edges, {}
        for tag in BoundaryTag:
            on = np.isin(e.sides, self.domain.sides_with_tag(tag))
            out[tag] = TagEdges(ids=e.ids[on], nodes=e.nodes[on], t=e.t[on],
                                lengths=e.lengths[on], sides=e.sides[on])
        return out

    @cached_property
    def _chains(self) -> dict:
        out = {}
        for tag, edges in self._tag_edges.items():
            cuts = np.flatnonzero(edges.nodes[1:, 0] != edges.nodes[:-1, 1])
            bounds = np.concatenate([[0], cuts + 1, [edges.ids.size]])
            chains = []
            for a, b in zip(bounds[:-1], bounds[1:]):
                node_ids = np.concatenate([edges.nodes[a:a + 1, 0],
                                           edges.nodes[a:b, 1]])
                ts = np.concatenate([edges.t[a:a + 1, 0], edges.t[a:b, 1]])
                _read_only(node_ids, ts)
                chains.append((node_ids, ts))
            out[tag] = tuple(chains)
        return out

    def tag_edges(self, tag: BoundaryTag) -> TagEdges:
        return self._tag_edges[tag]

    def tag_chains(self, tag: BoundaryTag) -> tuple:
        """Connected node chains of a tagged portion, in traversal order, as
        (node_ids, t) pairs, t the tag-local arc length of each node; a
        portion whose sides do not meet has several."""
        return self._chains[tag]

    def tag_polyline(self, tag: BoundaryTag):
        """The node chain (node_ids, t) of a tagged portion.  Raises
        GeometryError when the portion is not one connected chain of
        sides."""
        chains = self.tag_chains(tag)
        if len(chains) > 1:
            raise GeometryError(
                f"{tag.value} is not one connected chain of sides")
        return chains[0]

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
        """The one ``forward.Stiffness`` of the grid: the stencil K u, the
        solve grounded on gammaD for the lift and the Newton steps, and
        the capacitance matrices."""
        from corrinv import forward  # forward imports this module

        return forward.assemble_stiffness(self)


def build_rectangle_mesh(spec: DomainSpec, n: int) -> Mesh:
    """Structured triangulation of an axis-aligned rectangle.

    n is the number of subdivisions per unit length; each grid cell is split
    into two triangles along its up-right diagonal.  Raises GeometryError
    unless the polygon's vertices, rounded to 14 decimals, are the
    rectangle's corners in counterclockwise order and the grid lines are
    distinct.
    """
    if n < 1:
        raise GeometryError("n must be >= 1")
    verts = np.round(spec.vertices, 14)
    (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
    corners = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    if not any(np.array_equal(verts, np.roll(corners, -k, axis=0))
               for k in range(4)):
        raise GeometryError("polygon is not an axis-aligned rectangle",
                            "domain.vertices")
    gx = np.linspace(x0, x1, max(1, round(n * (x1 - x0))) + 1)
    gy = np.linspace(y0, y1, max(1, round(n * (y1 - y0))) + 1)
    if not (np.all(np.diff(gx) > 0) and np.all(np.diff(gy) > 0)):
        raise GeometryError(f"n = {n} puts grid lines of the rectangle on "
                            "the same floating-point coordinate",
                            "mesh.n, domain.vertices")
    return Mesh(domain=spec, gx=gx, gy=gy)


def trace_sample(mesh: Mesh, tag: BoundaryTag, m: int) -> BoundaryCurve:
    """m equispaced-in-arc-length samples along the tagged boundary portion.

    At a corner sample between two sides the normal of the following side is
    used.  The curve is built on each call; its arrays are read-only
    because every cell of a batch shares it.
    """
    if m < 2:
        raise GeometryError("need at least two samples")
    edges = mesh.tag_edges(tag)
    s = np.linspace(edges.t[0, 0], edges.t[-1, 1], m)
    pts = np.empty((m, 2))
    # the tagged portion may be several chains; never interpolate across a
    # gap.  Tag-local arc length runs on across a gap, so a sample at the
    # shared parameter of two chains lies on the first of them
    todo = np.ones(m, dtype=bool)
    for node_ids, ts in mesh.tag_chains(tag):
        cpts = mesh.nodes[node_ids]
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
    ends, located by bisection (both ends at once, at most 80 halvings,
    until neither end can move), and the ``trace_sample(mesh, tag, m)``
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
    a, b = mesh.domain.segments(without=tag)

    def far(s: np.ndarray) -> np.ndarray:
        """Whether the chain point at each arc length is farther than rho
        from the sides outside the tag."""
        p = np.column_stack([np.interp(s, ts, xs), np.interp(s, ts, ys)])
        return segment_distance(p, a, b) > rho

    mask = far(t)
    if not np.any(mask):
        raise EmptyPortionError(f"no boundary points at distance > {rho:g}")

    # longest contiguous run of qualifying samples
    step = np.diff(mask.astype(int), prepend=0, append=0)
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1
    k = int(np.argmax(t[ends] - t[starts]))
    run_ends = np.array([starts[k], ends[k]])

    # bisect between each end of the run and the sample outside it; an end
    # at the end of the chain has no such sample and stays where it is
    s_in = t[run_ends]
    s_out = t[np.clip(run_ends + [-1, 1], 0, m - 1)]
    for _ in range(80):
        sm = 0.5 * (s_out + s_in)
        # each midpoint is an end: far is deterministic, so no end moves
        if np.all((sm == s_in) | (sm == s_out)):
            break
        inside = far(sm)
        s_in = np.where(inside, sm, s_in)
        s_out = np.where(inside, s_out, sm)
    t_lo, t_hi = s_in
    run = t[run_ends[0]:run_ends[1] + 1]
    return np.concatenate([[t_lo], run[(t_lo < run) & (run < t_hi)], [t_hi]])


def export_mesh_csv(mesh: Mesh, out_dir) -> None:
    """Write the boundary edge table, bedges.csv, into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edges = mesh.edges
    write_csv(out / "bedges.csv", ["id", "n0", "n1", "tag", "t0", "t1"],
              [edges.ids, *edges.nodes.T,
               [mesh.domain.side_tags[i].value for i in edges.sides],
               *edges.t.T])
