"""dyadlab: a numerical laboratory for bilinear bi-parameter dyadic calculus.

Finite, exact dyadic harmonic analysis on the torus: shifted lattices,
Haar/martingale machinery, the three families of dyadic model operators,
a constructive trilinear-form decomposer, commutator expansions, and
median-method lower bounds, plus a deterministic experiment harness.
"""

from .core import (
    Axis,
    AxisShift,
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    HaarFunction,
    ResolutionError,
    TorusGrid,
    classify_goodness,
    enumerate_shifts,
    expectation_over_shifts,
    goodness_fraction,
    haar_coefficients,
    haar_evaluate,
    martingale_block,
    martingale_difference,
    sample_shift,
    truncated_projection,
)
from .measures import (
    NormReport,
    Weight,
    ainfty_characteristic,
    ap_characteristic,
    bmo_norm,
    lower_sf_check,
    lp_norm,
    maximal_function,
    mixed_norm,
    phi_function,
    square_function,
)
from .model_ops import (
    FullParaproduct,
    NormalizationError,
    PartialParaproduct,
    ShiftOperator,
    dmo_absolute_form_check,
    dmo_from_json,
    dmo_to_json,
    one_param_paraproduct,
    paraproduct_freeness_probe,
    random_full_paraproduct,
    random_partial_paraproduct,
    random_shift_operator,
    sparse_dominate_paraproduct,
)
from .commutators import (
    AdaptedMaximal,
    commutator_apply,
    commutator_form_decomposed,
    commutator_form_direct,
    coefficient_duality_check,
    expand_bipar,
    expand_none,
    expand_onepar,
    iterated_commutator_apply,
    iterated_form_decomposed,
    iterated_form_direct,
)
from .harness import ExperimentConfig, Report, run_suite

__version__ = "0.1.0"

# The decomposer's and the lower bounds' names load their module on first
# use (PEP 562), so a run that never decomposes or never bounds from below
# does not import it.
_REPRESENTATION = ("Decomposition", "KernelTensor", "averaged_reconstruction",
                   "common_ancestor", "decompose")
_LOWER_BOUNDS = ("BilinearKernel", "bmo_lower_bound", "find_nondegenerate_partner",
                 "gamma_constant")


def __getattr__(name: str):
    if name in _REPRESENTATION:
        from . import representation

        return getattr(representation, name)
    if name in _LOWER_BOUNDS:
        from . import lower_bounds

        return getattr(lower_bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
