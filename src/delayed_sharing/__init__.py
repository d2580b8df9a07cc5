"""Exact solvers and verification probes for finite decentralized stochastic
control with n-step delayed sharing of observations and actions."""

from .model import (JointAction, ProblemSpec, Violation, WindowInfo,
                    load_problem, normalize_problem, serialize_problem,
                    validate_problem, window)
from .histories import (CommonObs, CoordinatorPolicy, Design,
                        ExtensionalDesign, GammaProfile, PartialFunction,
                        PrivateInfo, apply_profile, common_obs_space,
                        gamma_profiles, private_space, profile_count)
from .coordinator import (AlphaSet, InfoGraph, JointState, PiBelief,
                          ValueTable, alpha_backup, belief_update,
                          expected_stage_cost, extract_design, initial_belief,
                          joint_step_kernel, reachable_graph, solve_dp,
                          value_at)
from .second_form import (RSuffix, Theta, ThetaRState, extract_design2,
                          h_map, r_update, reachable_graph2, solve_dp2,
                          theta_update)
from .evaluate import (EvalResult, SimResult, brute_force_optimum,
                       enumerate_designs, exact_cost, simulate)
from .analysis import (check_aicardi_degenerate, check_one_step_factorization,
                       concavity_probe, kurtaran_witness_search)

__version__ = "0.1.0"
