"""deploylab: a laboratory for incremental-deployability game analysis.

Equilibrium computation with the Hedge multiplicative-weights dynamic,
GKT symmetrization of bimatrix games, deployment-graph maximality
analysis of finite strategic games, and stag-hunt coordination
mechanisms (insurance, election), with a batch-experiment CLI.
"""

from .games import (
    BimatrixGame,
    StrategicGame,
    payoff_vector,
    carrier,
    is_approx_equilibrium,
    support_enumeration_equilibria,
)
from .hedge import (
    LearningRateSchedule,
    HedgeTrace,
    hedge_step,
    relative_entropy,
    is_fixed_point,
    run_hedge,
    average_iterates,
    rescale_to_unit,
)

__version__ = "0.1.0"
