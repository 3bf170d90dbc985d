"""The Haar basis built from cube and Haar-function objects, one profile at
a time: the oracle for the mask-built `core.haar_rows` table."""

import itertools

import numpy as np

from dyadlab.core import DyadicCube, HaarFunction, all_axis_cubes, axis_haar_vector


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
