"""Diagnosability analysis of finite state machines with critical states."""

__version__ = "0.1.0"

from .checker import Analysis, DiagParams, DiagVerdict, PropertyKind, check
from .diagnoser import DiagnosisEvent, Estimator, observe
from .epsremoval import SilentRemovalResult, desilent, execution_image
from .errors import (BudgetExceededError, FsmDiagError,
                     InconsistentObservationError, ParseError,
                     PreconditionError, UsageError)
from .fixpoint import b_series, f_series, gamma_series, lambda_series, s_series
from .model import (EPSILON, Fsm, ValidationReport, Violation,
                    build_restricted, crossing_index, fsm_to_text,
                    is_execution, load_fsm, output_of, parse_fsm, validate)
from .oracle import (Counterexample, Horizon, OracleOutcome, check_definition,
                     enum_relation, enumerate_executions, minimal_params)
from .relations import FixpointSeries, PairRelation, Universe, product_relation

__all__ = [name for name in dir() if not name.startswith("_")]
