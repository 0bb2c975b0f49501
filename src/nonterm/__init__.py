"""Non-termination analysis for term rewrite systems and logic programs."""

from .analysis import (
    AnalysisConfig,
    Verdict,
    analyze,
    certificate_dict,
    emit_certificate,
    parse_certificate,
)
from .detection import (
    Budget,
    Embedding,
    EmbeddingKind,
    LoopWitness,
    RecurrentPair,
    find_embedding,
    find_loop,
    find_recurrent_pair,
    infinite_chain_prefix,
    match_recurrent_pattern,
    witness_chain,
)
from .errors import (
    HoleMismatchError,
    InvalidPositionError,
    NontermError,
    ParseError,
    ResourceLimitError,
    UnrollError,
)
from .parsing import parse_lp, parse_program, parse_trs, render_program
from .rewriting import (
    Chain,
    Mode,
    Program,
    Rule,
    Semantics,
    Step,
    run_word,
    successors,
    verify_chain,
)
from .substitution import Substitution, apply, compose, match, mgu
from .terms import (
    App,
    Goal,
    Position,
    Symbol,
    Term,
    Var,
    canonical,
    is_variant,
    plug,
    plug2,
    render,
)
from .unfolding import (
    UnfoldedRule,
    binary_unfold,
    dependency_pairs,
    overlap_closure,
    unfold_trs,
    unfolded_program,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
