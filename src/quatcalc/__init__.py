"""Quaternion calculus engine: HR and generalized HR derivatives, the
calculus rules built on them, mean value and Taylor checks, and the adaptive
filters derived from the conjugate gradient."""

from .derivatives import (HR_AXES, DegenerateAxisError, DerivativeSet,
                          EvaluationError, GhrPair, RealPartials, SecondOrderSet,
                          check_chain_rule, check_product_rule,
                          conjugation_relation, differential_consistency,
                          left_ghr, left_hr, real_partials, right_ghr, right_hr,
                          second_order, second_order_left, second_order_right)
from .filters import (ExperimentConfig, ExperimentResult, FilterState,
                      generate_signal, phi_tanh, qlms_state, qlms_step,
                      qngd_state, qngd_step, run_experiment, wl_qlms_state,
                      wl_qlms_step)
from .identities import IdentityRecord, SuiteResult, run_identity_suite
from .quaternion import (AXES, ONE, UNITS, ZERO, MuBasis, Quaternion,
                         format_quaternion, involute, involute_conj, mu_basis,
                         parse_quaternion, rotate)
from .sampling import make_rng, random_quaternion
from .tables import (CrossCheck, EntryDerivatives, FamilySpec, TableEntry,
                     as_function, catalogue, conj_gradient, cross_validate,
                     derivative, eval_entry)
from .theorems import (DescentTrace, DivergenceError, SegmentCheck, TaylorFit,
                       mvt_left, steepest_descent, taylor_remainder_slope)

__version__ = "0.1.0"
