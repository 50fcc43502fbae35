"""Classical and constant-domain Kripke semantics for truth-table
connectives, with bounded countermodel search and separating-sequent
synthesis."""

from .truthfn import (
    Signature,
    TruthTable,
    classify_case,
    eval_table,
    invert,
    leq_vec,
    monotonicity_witness,
    parse_signature,
    relative_invert,
    standard_signature,
    standard_table,
)
from .syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Formula,
    Sequent,
    free_vars,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
)
from .classical import (
    ClassicalModel,
    Countermodel,
    Valid,
    bounded_fo_validity,
    decide_propositional,
)
from .kripke import (
    Failure,
    KripkeModel,
    bounded_cd_countermodel_search,
    check_heredity,
    model_validity,
    validate_kripke_model,
)
from .collapse import check_collapse, lift_classical, project_world
from .separator import AllMonotone, SeparationResult, separate, verify_separation

__all__ = [name for name in dir() if not name.startswith("_")]
