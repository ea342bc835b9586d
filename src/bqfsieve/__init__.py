"""Primes represented by positive definite binary quadratic forms: exact
congruence counts, local densities, character-sum functionals, and the
Selberg-sieve upper bound, with desk-scale verification sweeps."""

__version__ = "0.1.0"

from .arith import Factorization, factorize, kronecker, mult_functions, sieve_primes
from .forms import (Form, FormClassSet, ScaledForm, delta_f, discriminant,
                    enumerate_class_set, is_primitive, reduce_form, scale_form)
from .lattice import (CongruenceCount, EllipseWindow, RootSet, count_A,
                      count_congruence, local_density_g, local_density_report,
                      r_f, root_set, sqrt_average)
from .characters import (CharacterProfile, DiscriminantFamily, ErrorFunctionals,
                         L_values, average_exceptional_report, char_prefix_sums,
                         error_functionals, family, sum_local_densities,
                         weighted_dirichlet_sums)
from .sieve import (SieveParams, SieveReport, count_almost_primes, pi_f,
                    selberg_upper_bound, sifted_interval_count, theorem_rhs)
from .sweeps import SweepConfig, SweepRecord, run_sweep
