"""Exact spirality computations on combinatorial JSJ data.

Given the decorated dual graph of the almost fiber part of an essentially
immersed subsurface (or, for surfaces transverse to the suspension flows of
a pseudo graph manifold, the flow data itself), this package computes the
spirality character with exact rational arithmetic, decides aspirality, and
reports the resulting virtual-embedding verdict. It also evaluates
fractional Dehn twist coefficients from degeneracy slope data and generates
the standard separable and non-separable example families.
"""

from .errors import SpiralityError, ParseError, Diagnostic
from .lattice import Slope, intersection_number, fdtc, NotParallel
from .graph import (DecoratedJSJGraph, Vertex, Edge, VertexKind, DirectedCycle,
                    SpiralityCharacter, character, InvalidGraph)
from .flow import (FlowManifest, Piece, PieceBoundary, PieceType, Torus, Side,
                   Crossing, LoopItinerary, SideConvention,
                   flow_spirality,
                   equiperiodic_rho_is_one,
                   decorate_from_flow, loop_character, normalize_itinerary,
                   validate_itinerary, InvalidFlow)
from .generators import (TwistFamilyParams, TwistFamilyInstance, gen_twist_family,
                         gen_matched_slopes, gen_random_flow, BadParams)
from .manifest import parse_manifest, dumps_manifest, ParsedManifest
from .rational import parse_rational, format_rational

__version__ = "0.1.0"
