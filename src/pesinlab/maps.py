"""Measure-preserving maps of the unit 2-torus.

Phase space is the unit square with opposite edges identified; all built-in
maps are piecewise linear with |det J| = 1, so cell measures propagate
exactly through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import geometry
from .errors import ConfigurationError

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


@dataclass(frozen=True)
class TorusMap:
    """A named map of the torus with its derivative and branch structure.

    ``jacobian`` is the map's constant tangent matrix as a row-major
    (a, b, c, d) tuple: every built-in map is affine with one linear part
    on all of its branches.  ``branches`` describes the exact
    piecewise-affine forward action on convex polygon pieces as
    geometry.Branch data (None when the map has no such description);
    exact refinement applies it to whole batches of pieces.
    ``forward_pieces`` applies the forward action to one polygon;
    ``step_batch`` applies the map to an (N, 2) coordinate array.  These
    extra fields exist so refinement code never has to rediscover branch
    structure.
    """

    name: str
    step: Callable[[PhasePoint], PhasePoint]
    jacobian: tuple[float, float, float, float]
    step_batch: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    forward_pieces: Optional[Callable[[geometry.Polygon], list[geometry.Polygon]]] = field(
        repr=False, default=None)
    branches: Optional[tuple[geometry.Branch, ...]] = field(repr=False, default=None)


# --- identity ---------------------------------------------------------------

def _pieces_map(forward: tuple[geometry.Branch, ...]) -> dict:
    """The TorusMap jacobian and piece fields of a map given by its branches.

    The jacobian is the (a, b, c, d) that every forward branch of a
    built-in map shares; a branch with no affine action is the identity.
    """
    affine = forward[0].affine
    return {"jacobian": (1.0, 0.0, 0.0, 1.0) if affine is None else affine[:4],
            "branches": forward,
            "forward_pieces": partial(geometry.branch_images, branches=forward)}


_IDENTITY_BRANCHES = (geometry.Branch(None, None),)


def _identity_map() -> TorusMap:
    return TorusMap(
        name="identity",
        step=lambda x: x,
        step_batch=lambda pts: np.array(pts, dtype=float),
        **_pieces_map(_IDENTITY_BRANCHES),
    )


# --- baker ------------------------------------------------------------------

def _baker_step(x: PhasePoint) -> PhasePoint:
    k = 0.0 if x.q < 0.5 else 1.0
    return PhasePoint(2.0 * x.q - k, (x.p + k) / 2.0)


def _baker_step_batch(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    k = np.floor(2.0 * pts[:, 0])
    return np.column_stack((2.0 * pts[:, 0] - k, (pts[:, 1] + k) / 2.0))


# (q, p) -> (2q - k, p/2 + k/2) on the half q in [k/2, (k+1)/2], exact on
# dyadic vertices
_BAKER_FORWARD = tuple(
    geometry.Branch((0.5 * k, 0.5 * (k + 1), 0.0, 1.0),
                    (2.0, 0.0, 0.0, 0.5, -float(k), 0.5 * k))
    for k in (0, 1))


def _baker_map() -> TorusMap:
    return TorusMap(
        name="baker",
        step=_baker_step,
        step_batch=_baker_step_batch,
        **_pieces_map(_BAKER_FORWARD),
    )


# --- cat --------------------------------------------------------------------

def _cat_step(x: PhasePoint) -> PhasePoint:
    return PhasePoint(2.0 * x.q + x.p, x.q + x.p)


def _cat_step_batch(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    out = np.empty_like(pts)
    np.multiply(pts[:, 0], 2.0, out=out[:, 0])
    out[:, 0] += pts[:, 1]
    np.add(pts[:, 0], pts[:, 1], out=out[:, 1])
    # both sums are >= 0 on the torus, where x - floor(x) is the exact
    # fractional part, as x % 1.0 is, so the bits are those of x % 1.0
    out -= np.floor(out)
    return out


_CAT_FORWARD = (geometry.Branch(None, (2.0, 1.0, 1.0, 1.0, 0.0, 0.0), wrap=True),)


def _cat_map() -> TorusMap:
    return TorusMap(
        name="cat",
        step=_cat_step,
        step_batch=_cat_step_batch,
        **_pieces_map(_CAT_FORWARD),
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

