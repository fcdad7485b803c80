"""The package's public names, pinned: adding or removing one is an edit
here."""

import varleb

PUBLIC = [
    "ArityMismatchError", "BallAverageProduct", "BlendReport", "Box", "ContainmentReport",
    "ConvergenceError", "Cube", "DomainError", "DyadicCubeSet", "EmptyRegionError",
    "EndpointSpace", "ExponentField", "ExtrapolationBuild", "FractionalKernel", "FunctionFamily",
    "Grid", "GridFunction", "HypothesisFailureError", "InterpolationReport", "LogHolderReport",
    "MixedInterpolationReport", "NetReport", "OverflowToInfinityError", "Product", "QuadrupleSpec",
    "QuadrupleVerdict", "RKReport", "RadiusSweep", "RangeError", "SchemaError",
    "SpecMismatchError", "ThetaEntry", "TwoToOneReport", "VarlebError", "VersionMismatchWarning",
    "WeightConstantReport", "WeightField", "WorkflowReport", "ap_constant", "apply_operator",
    "ball_mask", "ball_mean", "ball_sums", "blend_constant_check", "blend_quadruple",
    "blend_spaces", "box_mask", "build_extrapolation_family", "classify", "component_exponent",
    "containment_check", "difference_field", "dilate_family", "dual_exponent", "eps_net_oracle",
    "equicontinuity_profile", "errors", "exponent", "family_distance_matrix", "field",
    "harmonic_combine", "holder_constant", "interp", "maximal", "maximal_function", "mixed_norm",
    "modular", "modulate_family", "mollify", "mollify_family", "multilinear_constant", "norms",
    "nu_exponent", "oscillation_average", "oscillation_profiles", "read_grid_csv",
    "realize_function", "reciprocal_affine", "rk", "run_extrapolation_workflow", "scale_exponent",
    "shift_function", "theta_blend", "theta_invert", "translate_family", "two_to_one_check",
    "two_to_one_data", "uniform_bound_profile", "validate_quadruple", "vanishing_profile",
    "verify_interpolation_bound", "verify_interpolation_bounds",
    "verify_mixed_interpolation_bound", "weighted_norm", "weights",
]


def test_the_public_names_are_the_pinned_list():
    assert sorted(varleb.__all__) == PUBLIC
