"""Shifts and partial paraproducts to and from mappings of keys to arrays.

Tests write operators as {((K level, K position), (V level, V position)):
block} for a shift and {((K level, K position), (i1, i2, i3)): profile} for
a partial paraproduct; the operators store a key table and one stacked
array in the same order.
"""

import numpy as np

from dyadlab.model_ops import PartialParaproduct, ShiftOperator


def shift_from_map(grid, om, k, v, pattern, coeffs: dict) -> ShiftOperator:
    shape = tuple(1 << d for d in k) + tuple(1 << d for d in v)
    keys = [kk + vv for kk, vv in coeffs]
    blocks = np.reshape(list(coeffs.values()), (len(coeffs),) + shape)
    return ShiftOperator(grid, om, k, v, pattern, keys, blocks)


def partial_from_map(grid, om, shift_axis, k, h0_slot, ptype, symbols: dict) -> PartialParaproduct:
    n = grid.axes[1 - shift_axis].n_cells
    keys = [kk + idx for kk, idx in symbols]
    profiles = np.reshape(list(symbols.values()), (len(symbols), n))
    return PartialParaproduct(grid, om, shift_axis, k, h0_slot, ptype, keys, profiles)


def coeff_map(U) -> dict:
    """The keys of a shift or partial paraproduct, as pairs of tuples, mapped
    to its blocks or profiles, in key order."""
    values = U.blocks if isinstance(U, ShiftOperator) else U.profiles
    return {(tuple(key[:2]), tuple(key[2:])): val for key, val in zip(U.keys.tolist(), values)}
