"""ladderforge: a verifiable numerical engine for two-mode oscillator
Hamiltonians, their ladder operators, and the coherent/squeezed eigenstate
families they generate, all checked against brute-force truncated Fock-space
linear algebra."""

from .catalogue import Bindings, CatalogueRow, appendix_catalogue
from .chen import (PQParams, build_A_pq_generalized, build_calA_pq, build_H_pq,
                   chen_ground, degenerate_zero_states, louck_spectrum, tilde0_state)
from .eigenstates import (EigenstateRequest, basic21_states,
                          fractional_separable_cs, isotropic_states,
                          linear_coupled_states, verify_eigenstate)
from .errors import CutoffMismatch, CutoffTooSmall, DomainError, LadderForgeError
from .fock import (DEFAULT_TOL, FockCutoff, GeneratorSet, Operator,
                   ToleranceConfig, TwoModeState, build_generators,
                   interior_indices, normalize, basis_state)
from .params import (CaseTag, FamilyKind, HamiltonianParams, LadderCoeffs,
                     SolveReport, build_hamiltonian, build_ladder, classify,
                     compute_a0, solve_alpha_block, solve_ladder,
                     solve_mu_nu_block, su2_invariant, verify_ladder)
from .reductions import Reduction, reduce_by_similarity
from .spectra import SpectrumReport, nearest_eigenvalues, raising_chain
from .transforms import UnitarySpec

__version__ = "0.1.0"
