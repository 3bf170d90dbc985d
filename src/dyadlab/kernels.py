"""Discrete kernel evaluators on cell triples of the bi-parameter torus.

A kernel is a pure function of three product-grid points evaluated at cell
centres; singular triples (coinciding centres in a factor) return zero and
are excluded from all quadratures.  Built-ins: the tensorised odd
Riesz-type kernels, a sign kernel, and user tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TorusGrid

__all__ = [
    "KernelSpec",
    "register_kernel",
    "get_kernel",
    "torus_delta",
    "riesz_axis_kernel",
    "tensor_riesz",
    "sign_kernel",
]

_REGISTRY: dict[str, Callable] = {}


def register_kernel(name: str, factory: Callable) -> None:
    _REGISTRY[name] = factory


def get_kernel(name: str, **kwargs):
    if name not in _REGISTRY:
        raise KeyError(f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def torus_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed minimal-image displacement a - b on the unit torus."""
    d = np.asarray(a) - np.asarray(b)
    return d - np.round(d)


@dataclass(frozen=True)
class KernelSpec:
    """Evaluator plus declared regularity metadata.

    evaluate takes per-axis centre arrays (x1, x2, y1, y2, z1, z2) already
    broadcast to a common shape and returns kernel values; alpha is the
    declared smoothness exponent used by coefficient-decay reports, and
    translation_invariant that the value at (x, y, y) depends only on x - y.
    """

    name: str
    evaluate: Callable[..., np.ndarray]
    alpha: float = 1.0
    translation_invariant: bool = False

    def __call__(self, x1, x2, y1, y2, z1, z2):
        return self.evaluate(x1, x2, y1, y2, z1, z2)


def riesz_axis_kernel(component: int = 1):
    """One-factor kernel (x - y_or_z)_i / (|x-y|^2 + |x-z|^2)^(3/2) for d=1.

    component 1 differentiates against the first argument, 2 against the
    second (the two families of odd kernels); any other raises ValueError."""
    if component not in (1, 2):
        raise ValueError(f"riesz component {component!r} must be 1 or 2")

    def ev(x, y, z):
        dy = torus_delta(x, y)
        dz = torus_delta(x, z)
        denom = (dy**2 + dz**2) ** 1.5
        num = dy if component == 1 else dz
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
        return out

    return ev


def tensor_riesz(i: int = 1, j: int = 1, alpha: float = 1.0) -> KernelSpec:
    """Product of one odd kernel per factor; uniformly non-degenerate."""
    k1 = riesz_axis_kernel(i)
    k2 = riesz_axis_kernel(j)

    def ev(x1, x2, y1, y2, z1, z2):
        return k1(x1, y1, z1) * k2(x2, y2, z2)

    return KernelSpec(f"riesz_{i}{j}", ev, alpha, translation_invariant=True)


def sign_kernel(scale: float = 1.0) -> KernelSpec:
    """Positive kernel |R|^-2-shaped at unit scale; trivial sign choice."""

    def ev(x1, x2, y1, y2, z1, z2):
        shape = np.broadcast(x1, x2, y1, y2, z1, z2).shape
        return np.full(shape, scale)

    return KernelSpec("sign", ev, 1.0, translation_invariant=True)


register_kernel("riesz", lambda i=1, j=1, alpha=1.0: tensor_riesz(i, j, alpha))
register_kernel("sign", lambda scale=1.0: sign_kernel(scale))


def cell_centers(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = grid.shape
    c1 = (np.arange(n1) + 0.5) / n1
    c2 = (np.arange(n2) + 0.5) / n2
    return c1, c2
