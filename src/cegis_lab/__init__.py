"""An executable laboratory for counterexample-guided inductive synthesis
over indexed families of recursive languages: three counterexample
oracles, three engine variants, a simulation of minimal-counterexample
synthesis by arbitrary-counterexample synthesis, and separation demos."""

__version__ = "0.1.0"
