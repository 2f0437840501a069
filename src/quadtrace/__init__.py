"""quadtrace: exact and high-precision computation of Hurwitz class numbers,
binary-quadratic-form traces over Gamma_0(p), plus-space Kloosterman zeta
values, and the Fourier coefficients of the associated weight-1/2 series,
with machine verification of the identities tying them together.
"""

from .arith import eps_odd, factorize, kronecker, moebius, valuation
from .classnumbers import (
    generalized_hurwitz,
    hurwitz_class_number_forms,
    regulator_class_sum,
)
from .coefficients import (
    coeff_oracle_4,
    coeff_oracle_4p,
    constant_term_checks,
    sesqui4_square_coeff,
    sesqui4p_const_coeff,
    sesqui4p_neg_coeff,
    sesqui4p_square_coeff,
    square_trace_consistency,
    theta_multiple_const,
)
from .kloosterman import (
    kzeta_level_closed,
    kzeta_level_truncated,
    plus_zeta_special_value,
)
from .lvalues import (
    chi,
    fundamental_decomposition,
    l_value_at_0,
    l_value_at_1,
)
from .precision import set_working_dps, working_dps
from .quadforms import (
    QuadForm,
    automorph_unit,
    class_number,
    class_reps,
    geodesic_integral,
)
from .specialfns import alpha, alpha_companion, inc_gamma_half
from .traces import trace_real_nonsquare, verify_real_trace_identity

__version__ = "0.1.0"
