import numpy as np
import pytest

from corrinv.forward import ExponentialLaw, FluxProfile, LinearLaw
from corrinv.geometry import BoundaryTag, DomainSpec, build_rectangle_mesh
from corrinv.reconstruction import ReconstructedNonlinearity

# canonical test layout: grounded bottom and left, measured right,
# corroding top
UNIT_SQUARE = DomainSpec(
    vertices=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    side_tags=(BoundaryTag.GAMMAD, BoundaryTag.GAMMA2,
               BoundaryTag.GAMMA1, BoundaryTag.GAMMAD),
)

# tag layouts of the rectangle sides (bottom, right, top, left) in which
# gamma1 and gamma2 are each one connected chain of one or two sides
CHAIN_LAYOUTS = (
    "gammaD gamma2 gamma1 gammaD",
    "gammaD gamma2 gamma2 gamma1",
    "gammaD gamma2 gamma1 gamma1",
    "gamma1 gamma2 gammaD gammaD",
)

# tag layouts the domain rejects, each with the tag that is not one
# nonempty run of consecutive sides
UNCHAINED_LAYOUTS = (
    ("gamma2 gammaD gamma2 gamma1", "gamma2"),
    ("gamma1 gamma2 gamma1 gammaD", "gamma1"),
    ("gammaD gamma2 gammaD gammaD", "gamma1"),
    ("gammaD gamma1 gamma1 gammaD", "gamma2"),
)


def rectangle(width, layout):
    """The width x 1 rectangle with the given space-separated side tags."""
    return DomainSpec(
        vertices=[(0.0, 0.0), (width, 0.0), (width, 1.0), (0.0, 1.0)],
        side_tags=tuple(BoundaryTag.parse(t) for t in layout.split()))


def config_mesh(config):
    """A new mesh of the config's domain at its ``mesh.n``."""
    return build_rectangle_mesh(config.domain, config.mesh_n)


def interpolant_score(rec, law, grid=1000):
    """The sup error of a reconstruction as it was scored before the law
    itself was: against the law's piecewise-linear interpolant at 1,001
    knots on ``rec.interval``, over ``grid`` points of the intersection of
    the two intervals.  The reference of ``overlap_and_error``."""
    a, b = rec.interval
    knots = np.linspace(a, b, grid + 1)
    truth = ReconstructedNonlinearity(interval=(a, b), u_knots=knots,
                                      f_knots=law(knots))
    lo = max(rec.interval[0], truth.interval[0])
    hi = min(rec.interval[1], truth.interval[1])
    u = np.linspace(lo, hi, grid)
    return (lo, hi), float(np.max(np.abs(rec(u) - truth(u))))


@pytest.fixture
def square():
    return UNIT_SQUARE


@pytest.fixture
def ramp_flux():
    # g(t) = t along the right side, i.e. g = y
    return FluxProfile.polynomial([0.0, 1.0])


@pytest.fixture
def exponential_law():
    return ExponentialLaw(lam=0.1, a=0.5)


@pytest.fixture
def identity_law():
    return LinearLaw(1.0)


def triangles(mesh):
    """The mesh's triangles as node id triples: cell corners a b c d
    counterclockwise from the lower left, cells in row-major order,
    triangles (a, b, c) then (a, c, d) per cell."""
    ids = np.arange(mesh.nodes.shape[0]).reshape(mesh.gy.size, mesh.gx.size)
    a, b = ids[:-1, :-1], ids[:-1, 1:]
    c, d = ids[1:, 1:], ids[1:, :-1]
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def l2_error_on_mesh(mesh, values, exact):
    """Discrete L2 distance between a nodal field and a callable, by the
    3-midpoint rule (exact for quadratics) per triangle."""
    pts = mesh.nodes
    total = 0.0
    for tri in triangles(mesh):
        p = pts[tri]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        v = values[tri]
        for a, b in ((0, 1), (1, 2), (2, 0)):
            mid = 0.5 * (p[a] + p[b])
            vh = 0.5 * (v[a] + v[b])
            total += area / 3.0 * (vh - exact(mid[0], mid[1])) ** 2
    return float(np.sqrt(total))
