"""Structure-preserving collocation integrators for explicit port-Hamiltonian
systems, with discrete Dirac-structure checks and energy-balance diagnostics."""

from .collocation import (GAUSS, LOBATTO, CollocationScheme, check_c1,
                          gauss_legendre_nodes, iiib_from_iiia,
                          lagrange_polynomial, lobatto_nodes, make_scheme,
                          quadratic_invariant_residual)
from .dirac import (BlockStructure, assemble_blocks, discrete_output,
                    kernel_check, power_residual, stage_flows)
from .energy import (EnergyReport, OrderFit, delta_h_bar, delta_h_tilde,
                     dissipation_decomposition, order_fit, reference_solution,
                     relative_errors, supplied_energy)
from .integrator import (SolverConfig, StageSolution, Trajectory, dense_eval,
                         simulate, solve_stages)
from .models import (FeedbackConfig, InputSignal, PHModel, closed_loop,
                     mechanical, oscillator, partitioned_oscillator,
                     pulse_input, rigid_body, zero_input)

__all__ = [name for name in dir() if not name.startswith("_")]
