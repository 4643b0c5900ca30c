"""Exact-arithmetic engine for supercuspidal representations of the
metaplectic double cover of SL(2, Q_p): Whittaker functionals, Bessel
functions, local zeta functions, gamma factors, and the coefficient-exact
verification of their functional equation."""

from .exactnum import (
    CycValue,
    LaurentPoly,
    PadicContext,
    Q_NEG_S,
    Q_POS_S,
    q_half_power,
)
from .localchar import (
    AdditiveCharacter,
    MultChar,
    chi_psi,
    hilbert_symbol,
    hilbert_symbol_oracle,
    legendre,
    square_class_data,
    weil_alpha,
)
from .cover import (
    MetaElement,
    SL2Element,
    cocycle,
    coset_decompose,
    kubota_split,
    validate_kubota_splitting,
)
from .repn import (
    SIGMA_NAMES,
    InducedVector,
    Representation,
    SigmaRep,
    builtin_sigma_p3,
    elliptic_sigma,
    named_sigma,
    norm_sigma,
    weil_sigma,
)
from .zeta import (
    ADDITIVE_DX,
    MULTIPLICATIVE_DX,
    ShellIntegralPlan,
    bessel_closed,
    bessel_direct,
    bessel_table,
    check_fe,
    gamma_coefficient,
    gamma_factor,
    integrate_ball,
    integrate_shell,
    zeta_function,
)

__version__ = "0.1.0"
