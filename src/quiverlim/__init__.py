"""Moment maps, scaling flows, and conformal-limit maps on framed doubled quivers.

Hyperkaehler moment maps, Kempf-Ness style Newton
solvers along complex gauge orbits, circle-action fixed points with their
attracting slices, the rotation-scaling family realizing the conformal
limit, and gauge-invariant path invariants with their escape rates.
"""

from .config import RunConfig
from .conformal import (ConformalFamilySample, ConvergenceReport,
                        conformal_family_sample, conformal_limit,
                        conformal_point, convergence_study, twistor_rotate)
from .errors import (DimensionMismatch, EmptyVariety, GradingViolation,
                     IllConditioned, LeftBasin, MaxIterations, NoConvergence,
                     NonIntegerWeights, NotFixed, NotInjective, NotOnSlice,
                     NotOnVariety, OnWall, QuiverLimError, SamplingFailed,
                     ZeroInvariant)
from .fixedpoints import (FixedPointReport, FlowReport, WeightGrading,
                          bb_expected_dimension, cstar_act, default_schedule,
                          flow_limit, grade_increment, is_fixed_point,
                          scaling_energy, stability_margin, weight_grading)
from .invariants import (EscapeStudy, PathSpec, enumerate_paths, escape_slope,
                         eval_path, fingerprint, fingerprint_labels, fingerprints,
                         invariant_size, is_nilpotent, path_escape_exponent)
from .presets import PRESET_NAMES, Preset, get_preset, resolve_quiver_spec
from .quiver import (CentralParameter, DimensionVectors, Quiver, cartan_matrix,
                     expected_dimension, is_generic, load_quiver_file,
                     positive_roots_bounded, quiver_from_dict, quiver_to_dict,
                     wall_margins, walls)
from .repspace import (GaugeElement, LieElement, RepPoint, central_deviation,
                       central_lie, dmu_complex, dmoment_real_scaled,
                       gauge_act, hermitian_residual, inf_action,
                       inf_action_adjoint, lie_exp, lie_inner, metric,
                       moment_complex, moment_real, rep_dim, symplectic_form,
                       zeta_real_lie)
from .sampling import SampleReport, make_rng, random_rep, project_complex_level, \
    sample_on_variety, seeded_increment
from .slices import (SliceBasis, bb_slice_solve, bb_tangent_basis,
                     moment_correction, positive_weight_project, slice_solve,
                     tangent_basis)
from .solver import (GradedSolveReport, SolveReport, graded_solve,
                     hermitian_log, solve_real_moment)
from .verify import SuiteResult, VerifyReport, verify_run, write_outputs

__version__ = "0.1.0"
