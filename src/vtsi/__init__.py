"""Three-dimensional vehicle-track-structure interaction simulator.

A 4-DOF corotational vehicle runs along a curved multi-span bridge
(isogeometric Timoshenko beam on NURBS, or classical straight frame
elements) to which it is tied by time-varying kinematic constraints.
The resulting index-3 DAE is integrated by three strategies: generalized-
alpha on the displacement-level constraint, Newmark on the acceleration-
level constraint, and Newmark with per-step constraint projection.
"""

# First: it loads numpy's OpenBLAS and parks its pool before numpy's import.
from . import _lapack  # noqa: F401
from .splines import (KnotVector, NurbsCurve, eval_bspline_basis, eval_nurbs,
                      eval_nurbs_basis, fit_least_squares,
                      make_open_uniform_knots)
from .pathgeom import (ArclengthMap, CosineProfile, FrameKinematics, PlanPath,
                       PlanSpec, Span, build_plan_path, frame_kinematics)
from .vehicle import (L_TR, VehicleParams, VehicleSystem, vehicle_energy,
                      vehicle_matrices)
from .beams import (BeamSection, BridgeSystem, assemble_bridge,
                    element_matrices_fem, element_matrices_iga,
                    strain_operator)
from .coupling import Constraint, ConstraintTable, constraint_rates
from .integrators import (CoupledModel, CoupledState, SchemeParams, Stepper,
                          TimeHistory, coupled_model, initial_state,
                          project_constraints, run_model, run_rigid_profile,
                          scheme_params)
from .scenario import (BridgeConfig, Probe, RunConfig, Scenario,
                       ScenarioError, default_plan_spec, load_scenario,
                       parse_scenario)
from .simulate import (build_scenario_bridge, build_scenario_model,
                       build_scenario_path, run_simulation, scenario_scheme)
from .metrics import (CentripetalCheck, DiagnosticReport, build_report,
                      centripetal_check, oscillation_index)
from .output import write_report, write_timehistory

__version__ = "0.1.0"
