"""Executable semantics for a compensating-CSP process language.

The package implements two independent semantics for the same language --
small-step operational (`ccsp.operational`) and compositional trace sets
(`ccsp.denotational`) -- plus machinery to check mechanically that they
agree on every term (`ccsp.equivalence`).
"""
from . import denotational, equivalence, operational, parser, terms, warehouse
from .denotational import (
    block_traces,
    check_healthiness,
    interleave_events,
    interrupt_traces,
    lift_block,
    lift_cpar,
    lift_cseq,
    lift_interrupt,
    lift_pair,
    lift_par,
    lift_seq,
    pair_traces,
    par_traces,
    seq_traces,
    sync_terminals,
    traces_compensable,
    traces_standard,
)
from .equivalence import (
    GenConfig,
    Verdict,
    check_compensable,
    check_lemma,
    check_standard,
    clear_caches,
    enumerate_terms,
    gen_term,
)
from .operational import (
    Lts,
    StateCapExceeded,
    build_lts,
    derived_forward,
    derived_traces_compensable,
    derived_traces_standard,
    run_lifted,
    step,
)
from .parser import ParseError, parse_compensable, parse_standard
from .terms import (
    Atom,
    Aux,
    Block,
    CChoice,
    CompensableTerm,
    CPar,
    CSeq,
    Choice,
    Interrupt,
    NULL,
    Pair,
    Par,
    SKIP,
    Seq,
    StandardTerm,
    Terminal,
    THROW,
    Trace,
    TracePair,
    YIELD,
    pretty_print,
    trace,
    validate_user_term,
)
