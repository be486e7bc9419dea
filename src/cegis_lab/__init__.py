"""An executable laboratory for counterexample-guided inductive synthesis
over indexed families of recursive languages: three counterexample
oracles, three engine variants, a simulation of minimal-counterexample
synthesis by arbitrary-counterexample synthesis, and separation demos."""

from .core import (
    BOT,
    Language,
    Program,
    Trace,
    pair_decode,
    pair_encode,
    point_decode,
    point_encode,
    semantically_equal,
    smpl,
    trace_generate,
    zigzag_decode,
    zigzag_encode,
)
from .families import ChainFamily, DiagonalFamily, GoldFamily, RectangleFamily
from .verifiers import CexStrategy, Verdict, check, hcheck, mincheck
from .engines import (
    EngineRun,
    Generalizer,
    LceMap,
    chain_generalizer,
    diag_generalizer,
    gold_generalizer,
    rectangle_generalizer,
    run_engine,
    simulate_min_via_arbitrary,
)
from .harness import demo_gold, demo_lemma1, demo_lemma2, demo_rectangle, demo_theorem1

__version__ = "0.1.0"
