"""Measure-preserving maps of the unit 2-torus.

Phase space is the unit square with opposite edges identified; all built-in
maps are piecewise linear with |det J| = 1, so cell measures propagate
exactly through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import geometry
from .errors import ConfigurationError, UnsupportedOperationError

MAP_NAMES = ("identity", "baker", "cat")


def _mod1(x: float) -> float:
    r = x % 1.0
    # x % 1.0 can round up to 1.0 for tiny negative x
    return r if r < 1.0 else 0.0


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) on the unit torus; coordinates are reduced into [0, 1)."""

    q: float
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _mod1(float(self.q)))
        object.__setattr__(self, "p", _mod1(float(self.p)))

    def as_array(self) -> np.ndarray:
        return np.array([self.q, self.p])


@dataclass(frozen=True)
class TorusMap:
    """A named map of the torus with its derivative and preimage structure.

    ``forward_pieces`` / ``backward_pieces`` carry the exact piecewise-linear
    action on convex polygon pieces (None when the map has no such
    description); ``step_batch`` applies the map to an (N, 2) coordinate
    array.  These extra fields exist so refinement and preimage code never
    has to rediscover branch structure.
    """

    name: str
    step: Callable[[PhasePoint], PhasePoint]
    jacobian: Callable[[PhasePoint], np.ndarray]
    step_batch: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    forward_pieces: Optional[Callable[[geometry.Polygon], list[geometry.Polygon]]] = field(
        repr=False, default=None)
    backward_pieces: Optional[Callable[[geometry.Polygon], list[geometry.Polygon]]] = field(
        repr=False, default=None)


@dataclass(frozen=True)
class Trajectory:
    points: tuple[PhasePoint, ...]
    map_name: str
    n_steps: int


# --- identity ---------------------------------------------------------------

def _frozen(mat: np.ndarray) -> np.ndarray:
    # shared constant Jacobians are returned without copying; the read-only
    # flag keeps callers from mutating them behind the map's back
    mat.setflags(write=False)
    return mat


def _identity_map() -> TorusMap:
    eye = _frozen(np.eye(2))
    return TorusMap(
        name="identity",
        step=lambda x: x,
        jacobian=lambda x: eye,
        step_batch=lambda pts: np.array(pts, dtype=float),
        forward_pieces=lambda poly: [poly],
        backward_pieces=lambda poly: [poly],
    )


# --- baker ------------------------------------------------------------------

def _baker_step(x: PhasePoint) -> PhasePoint:
    k = 0.0 if x.q < 0.5 else 1.0
    return PhasePoint(2.0 * x.q - k, (x.p + k) / 2.0)


def _baker_step_batch(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    k = np.floor(2.0 * pts[:, 0])
    return np.column_stack((2.0 * pts[:, 0] - k, (pts[:, 1] + k) / 2.0))


def _baker_forward_pieces(poly: geometry.Polygon) -> list[geometry.Polygon]:
    out = []
    for k, (lo, hi) in enumerate(((0.0, 0.5), (0.5, 1.0))):
        part = geometry.clip_to_rect(poly, lo, hi, 0.0, 1.0)
        if part is None or geometry.polygon_area(part) == 0.0:
            continue
        # (q, p) -> (2q - k, p/2 + k/2), exact on dyadic vertices
        out.append(geometry.affine_image(part, 2.0, 0.0, 0.0, 0.5, -float(k), 0.5 * k))
    return out


def _baker_backward_pieces(poly: geometry.Polygon) -> list[geometry.Polygon]:
    out = []
    for k, (lo, hi) in enumerate(((0.0, 0.5), (0.5, 1.0))):
        part = geometry.clip_to_rect(poly, 0.0, 1.0, lo, hi)
        if part is None or geometry.polygon_area(part) == 0.0:
            continue
        # (q, p) -> (q/2 + k/2, 2p - k)
        out.append(geometry.affine_image(part, 0.5, 0.0, 0.0, 2.0, 0.5 * k, -float(k)))
    return out


def _baker_map() -> TorusMap:
    jac = _frozen(np.array([[2.0, 0.0], [0.0, 0.5]]))
    return TorusMap(
        name="baker",
        step=_baker_step,
        # constant away from the discontinuity; the line q = 0.5 uses the
        # same matrix (left-closed branch convention)
        jacobian=lambda x: jac,
        step_batch=_baker_step_batch,
        forward_pieces=_baker_forward_pieces,
        backward_pieces=_baker_backward_pieces,
    )


# --- cat --------------------------------------------------------------------

def _cat_step(x: PhasePoint) -> PhasePoint:
    return PhasePoint(2.0 * x.q + x.p, x.q + x.p)


def _cat_step_batch(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    return np.column_stack(((2.0 * pts[:, 0] + pts[:, 1]) % 1.0,
                            (pts[:, 0] + pts[:, 1]) % 1.0))


def _cat_forward_pieces(poly: geometry.Polygon) -> list[geometry.Polygon]:
    return geometry.wrap_to_torus(geometry.affine_image(poly, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0))


def _cat_backward_pieces(poly: geometry.Polygon) -> list[geometry.Polygon]:
    return geometry.wrap_to_torus(geometry.affine_image(poly, 1.0, -1.0, -1.0, 2.0, 0.0, 0.0))


def _cat_map() -> TorusMap:
    jac = _frozen(np.array([[2.0, 1.0], [1.0, 1.0]]))
    return TorusMap(
        name="cat",
        step=_cat_step,
        jacobian=lambda x: jac,
        step_batch=_cat_step_batch,
        forward_pieces=_cat_forward_pieces,
        backward_pieces=_cat_backward_pieces,
    )


_BUILDERS = {"identity": _identity_map, "baker": _baker_map, "cat": _cat_map}


def make_map(name: str) -> TorusMap:
    """Return a built-in map by name.

    Parameters
    ----------
    name : one of ``identity``, ``baker``, ``cat``.
    """
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown map {name!r}; valid names: {', '.join(MAP_NAMES)}") from None


def iterate(torus_map: TorusMap, x0: PhasePoint, n: int) -> Trajectory:
    """Forward orbit of length n+1 starting at x0."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    points = [x0]
    for _ in range(n):
        points.append(torus_map.step(points[-1]))
    return Trajectory(tuple(points), torus_map.name, n)


def preimage_cell(torus_map: TorusMap, cell: tuple[float, float, float, float],
                  j: int) -> list[geometry.Polygon]:
    """Exact preimage of an axis-aligned rectangle under j map applications.

    Parameters
    ----------
    cell : (q0, q1, p0, p1) with 0 <= q0 < q1 <= 1 and likewise for p.
    j : number of inverse applications.

    Returns
    -------
    A list of convex polygons (rectangles or wrapped parallelograms) whose
    total area equals the area of the cell.
    """
    q0, q1, p0, p1 = cell
    if not (0.0 <= q0 < q1 <= 1.0 and 0.0 <= p0 < p1 <= 1.0):
        raise ValueError("cell must be a nonempty axis-aligned rectangle inside the unit square")
    if j < 0:
        raise ValueError("preimage depth must be nonnegative")
    if torus_map.backward_pieces is None:
        raise UnsupportedOperationError(
            f"map {torus_map.name!r} has no piecewise-linear preimage description")
    pieces = [geometry.rect_polygon(q0, q1, p0, p1)]
    for _ in range(j):
        pieces = [w for piece in pieces for w in torus_map.backward_pieces(piece)]
    return pieces
