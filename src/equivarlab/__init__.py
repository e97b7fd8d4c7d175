"""equivarlab: equivariant harmonic maps, twisted Hodge theory and the
energy functional on representation varieties, at desk scale."""

from .liealg import (MatrixGroup, Jet2, ad_action, bracket, cartan_project,
                     jet2_identity, jet2_inv, jet2_mul)
from .symspace import (act, dist, exp_point, geodesic, mc_edge,
                       translation_length)
from .meshcover import CoverMesh, build_circle, build_genus2, build_torus
from .repvar import (Cocycle, Jet2Cocycle, RepPath, Representation,
                     WordTable, bending_path, coboundary, cocycle_space_basis,
                     commuting_exp_path, conjugation_path, exp_family)
from .harmonicflow import (EquivariantMap, FlowReport, constant_map, energy,
                           energy_of_rep, flow, map_distance, random_map,
                           tension_norm)
from .twistedhodge import (LinearSolverError, PeriodMismatchError,
                           SingularKKTError, TwistedCochain, TwistedComplex)
from .deform import (FirstOrderDeformation, ObstructedDeformationError,
                     ObstructionReport, PsiSolution, SecondOrderDeformation,
                     companion_pair, first_order, obstruction_check,
                     second_order, solve_psi, validate_pair)
from .energyvar import (critical_scan, fd_energy_derivatives, first_variation,
                        omega_l2sq, psh_defect, second_variation,
                        variation_report)

__version__ = "0.1.0"
