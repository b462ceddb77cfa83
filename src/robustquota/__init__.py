"""Robust regulation of risky development on a discretized level grid.

Agent optimal stopping under learning, adversarial worst-case learning
(bad-news LPs with dual certificates), learning-robust fixed-tax/hard-quota
mechanisms (static and adaptive), and payoff-gap experiments.
"""

from .adaptive import (AdaptivePolicy, BinaryExperiment, evaluate_adaptive,
                       refine_process, solve_adaptive_quota)
from .adversary import (BadNewsLPResult, OracleResult,
                        principal_prefers_earlier, solve_badnews_lp,
                        tree_oracle_worst_case)
from .badnews import BadNewsProcess, obedience_slacks
from .checks import (AssumptionReport, RatioReport, check_assumptions,
                     one_shot_levels, pseudo_inverse_beliefs,
                     risk_ratio_condition)
from .config import RunConfig, load_config, parse_config
from .errors import (AlignmentError, BudgetExceededError,
                     ConditionViolatedError, ConfigError,
                     DegenerateDerivativeError, DomainError,
                     EmptyMechanismError, InfeasibleLPError,
                     IterationLimitError, NotARefinementError,
                     RobustQuotaError, UnboundedLPError,
                     UnreachableLevelError)
from .grid import LevelGrid, belief_grid
from .mechanisms import (Exponential, FixedTaxHardQuota, Linear, Mechanism,
                         TabulatedMechanism, Zero, adjusted_profiles)
from .payoffs import (CARA, CRRA, PayoffSpec, Quadratic, Tabulated, cara_pair,
                      quadratic_pair)
from .processes import (DiscreteLearningProcess, binomial_tree,
                        no_learning, random_tree, single_split)
from .robust import (GuaranteeReport, RobustMechanismResult,
                     compute_joint_robust, compute_robust, payoff_gap,
                     verify_guarantee)
from .simplex import SimplexResult, solve_lp
from .stopping import (StoppingSolution, principal_value, simulate,
                       solve_stopping)

__version__ = "0.1.0"
