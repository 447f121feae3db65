"""Structure-preserving collocation integrators for explicit port-Hamiltonian
systems, with discrete Dirac-structure checks and energy-balance diagnostics."""

from .collocation import (GAUSS, LOBATTO, CollocationScheme, make_scheme,
                          quadratic_invariant_residual)
from .dirac import (assemble_blocks, discrete_output, efforts, kernel_check,
                    power_residual, structure_residual)
from .energy import (EnergyReport, delta_h_bar, delta_h_tilde, order_fit,
                     reference_solution, supplied_energy)
from .integrator import (StageSolution, Trajectory, dense_eval, simulate,
                         solve_stages)
from .models import (FeedbackConfig, InputSignal, PHModel, mechanical,
                     oscillator, partitioned_oscillator, pulse_input,
                     rigid_body, zero_input)

__all__ = [name for name in dir() if not name.startswith("_")]
