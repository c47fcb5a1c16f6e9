"""cpa2relu: exact compilation of continuous piecewise-affine functions
on the plane into depth-3 ReLU networks, with rational-arithmetic
verification of every intermediate step.
"""
from .decompose import (Decomposition, EdgePair, Fan, decompose,
                        eval_decomposition, eval_fan)
from .errors import *  # noqa: F401,F403
from .geometry import Direction, Line, Point, Ray, Segment, pt
from .maxform import MaxTerm, TermList, reduce
from .model import (AffineFunc, CPAInstance, eval_cpa, parse_instance,
                    serialize_instance, sparsify, validate)
from .network import (EXACT, FLOAT64, ReluNetwork, build_network,
                      eval_network, export_network, import_network, stats)
from .render import render_svg
from .verify import (VerifyReport, sample_general_position, seeded_mutations,
                     verify_equivalence, verify_lemma_suite)

__version__ = "0.1.0"
