"""varleb: variable-exponent Lebesgue norms, Muckenhoupt-type weight
constants, maximal operators, compactness diagnostics, and empirical
interpolation/extrapolation experiments on rectangular grids."""

from .errors import (ArityMismatchError, ConvergenceError, DomainError,
                     EmptyRegionError, HypothesisFailureError,
                     OverflowToInfinityError, RangeError, SchemaError,
                     SpecMismatchError, VarlebError, VersionMismatchWarning)
from .exponent import (ExponentField, LogHolderReport, QuadrupleSpec,
                       QuadrupleVerdict, blend_quadruple, component_exponent,
                       dual_exponent, harmonic_combine, nu_exponent,
                       reciprocal_affine, scale_exponent, theta_blend,
                       theta_invert, two_to_one_data, validate_quadruple)
from .field import (Box, Cube, DyadicCubeSet, FunctionFamily, Grid, GridFunction,
                    WeightField, ball_mask, box_mask, read_grid_csv, realize_function,
                    shift_function)
from .interp import (BallAverageProduct, EndpointSpace, ExtrapolationBuild, FractionalKernel,
                     InterpolationReport, MixedInterpolationReport, Product, ThetaEntry,
                     WorkflowReport, apply_operator, blend_spaces,
                     build_extrapolation_family, difference_field,
                     run_extrapolation_workflow, verify_interpolation_bound,
                     verify_interpolation_bounds, verify_mixed_interpolation_bound)
from .maximal import (RadiusSweep, ball_mean, ball_sums, maximal_function,
                      oscillation_average, oscillation_profiles)
from .norms import holder_constant, mixed_norm, modular, weighted_norm
from .rk import (NetReport, RKReport, classify, dilate_family,
                 eps_net_oracle, equicontinuity_profile, family_distance_matrix,
                 mollify, mollify_family, modulate_family, translate_family,
                 uniform_bound_profile, vanishing_profile)
from .weights import (BlendReport, ContainmentReport, TwoToOneReport,
                      WeightConstantReport, ap_constant, blend_constant_check,
                      containment_check, multilinear_constant, two_to_one_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
