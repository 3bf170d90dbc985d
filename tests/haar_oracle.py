"""The lattice walked one cube object at a time: the cube and rectangle
iterators, the Haar basis built from cube and Haar-function objects, and
goodness by distance scans and by enumeration over all shifts.  These are
the oracles for the tables `dyadlab.core` builds (`cube_masks`,
`haar_rows`, `cube_goodness`, `RectTable` ids)."""

import itertools

import numpy as np

from dyadlab.core import DyadicCube, DyadicRectangle, HaarFunction, ResolutionError, enumerate_axis_shifts


def axis_cubes(axis, level, shift):
    """The level-`level` cubes of the shifted lattice, positions in product order."""
    for pos in itertools.product(range(1 << level), repeat=axis.dim):
        yield DyadicCube(axis, level, pos, shift)


def all_axis_cubes(axis, shift, max_level=None):
    """The cubes of levels 0..max_level (default L), in cube index order."""
    top = axis.levels if max_level is None else max_level
    for level in range(top + 1):
        yield from axis_cubes(axis, level, shift)


def ops_cubes(ops) -> list:
    """The cubes of an `AxisOps` lattice in its row order, as objects."""
    return list(all_axis_cubes(ops.axis, ops.shift))


def all_rectangles(grid, shift, max_levels=(None, None)):
    """The rectangles of the shifted lattice in `RectTable` id order."""
    for c1 in all_axis_cubes(grid.axes[0], shift.shift1, max_levels[0]):
        for c2 in all_axis_cubes(grid.axes[1], shift.shift2, max_levels[1]):
            yield DyadicRectangle(c1, c2)


def axis_cube_indicator(cube) -> np.ndarray:
    v = np.zeros(cube.axis.n_cells)
    v[cube.cells()] = 1.0
    return v


def axis_haar_vector(h: HaarFunction) -> np.ndarray:
    """Evaluate a Haar function as an axis profile (values on level-L cells)."""
    cube = h.cube
    axis = cube.axis
    if h.cancellative and cube.level >= axis.levels:
        raise ResolutionError("cancellative Haar function needs children")
    w = cube.width_cells
    sign = np.ones(1)
    for bit in h.signature:
        # +1 on the first half of the coordinate range, -1 on the second
        sgn = np.where(np.arange(w) < w // 2, 1.0, -1.0) if bit else np.ones(w)
        sign = (sign[:, None] * sgn[None, :]).ravel()
    vec = np.zeros(axis.n_cells)
    vec[cube.cells()] = cube.measure ** -0.5 * sign
    return vec


def haar_functions(axis, shift) -> list[HaarFunction]:
    """The basis functions in `haar_rows` order: the top function, then per
    cube of levels 0..L-1 its cancellative signatures in product order."""
    zero = (0,) * axis.dim
    sigs = list(itertools.product((0, 1), repeat=axis.dim))[1:]
    return [HaarFunction(DyadicCube(axis, 0, zero, shift), zero)] + [
        HaarFunction(cube, sig) for cube in all_axis_cubes(axis, shift, axis.levels - 1) for sig in sigs]


def object_rows(axis, shift) -> np.ndarray:
    """`axis_haar_vector` of every basis function, in `haar_rows` order."""
    return np.stack([axis_haar_vector(h) for h in haar_functions(axis, shift)])


# -- goodness ------------------------------------------------------------------

def skeleton_distance_cells(cube, coarse_level: int) -> int:
    """Distance (in cell units, sup metric) from the cube to the union of
    boundaries of the level-`coarse_level` lattice cubes."""
    axis = cube.axis
    spacing = 1 << (axis.levels - coarse_level)
    off = cube.shift.offset_cells(coarse_level)
    w = cube.width_cells
    best = None
    for t, s in enumerate(cube.start_cells()):
        r0 = (s - off[t]) % spacing
        d = 0 if r0 + w >= spacing or r0 == 0 else min(r0, spacing - r0 - w)
        best = d if best is None else min(best, d)
    return best


def object_goodness(cube, r=2, gamma=None, alpha=1.0) -> bool:
    """Goodness of one cube, scanning its coarse levels one at a time."""
    if r < 1:
        raise ValueError("r must be >= 1")
    axis = cube.axis
    if gamma is None:
        gamma = alpha / (2.0 * (2 * axis.dim + alpha))
    for coarse in range(1, cube.level - r + 1):
        threshold = cube.side ** gamma * (2.0 ** (-coarse)) ** (1.0 - gamma)
        if skeleton_distance_cells(cube, coarse) / axis.n_side <= threshold:
            return False
    return True


def enumerated_goodness_fraction(axis, level, pos=None, r=2, gamma=None, alpha=1.0) -> float:
    """Share of the shifts of the axis under which the cube at `pos` (default
    the origin) is good, by enumeration over all 2^(L*dim) shifts."""
    pos = (0,) * axis.dim if pos is None else pos
    shifts = list(enumerate_axis_shifts(axis))
    good = sum(object_goodness(DyadicCube(axis, level, pos, s), r, gamma, alpha) for s in shifts)
    return good / len(shifts)
