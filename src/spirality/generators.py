"""Generators for the positive and negative example families.

Three seeded, deterministic generators:

* the nontrivial-twist family built around a single JSJ torus whose
  degeneracy slopes differ by a Dehn twist, the standard source of
  essentially immersed but not virtually embedded subsurfaces (its
  spirality has the closed form ((p r- + q) / (p r+ + q)) ** d);
* matched-slope manifolds, where every torus sees the same degeneracy
  slope from both sides and all twist coefficients vanish, so every loop
  has spirality 1 and the verdict is always positive;
* unconstrained random flow manifolds, used to check that the decorated
  graph keeps the spirality of the one factor pass it shares with rw.
"""

import random
from fractions import Fraction

from .errors import SpiralityError, Value
from .lattice import Slope, intersection_number
from .flow import (Crossing, FlowManifest, LoopItinerary, Piece, PieceBoundary,
                   PieceType, Side, Torus)


class BadParams(SpiralityError):
    """Parameters violate the construction's constraints."""


class TwistFamilyParams(Value):
    """Parameters of the nontrivial-twist family.

    ``k`` is the (integer) fractional Dehn twist coefficient across the
    torus; the crossing class is built from positive integers p, q and the
    twisting exponents r_minus, r_plus with r_plus - r_minus = -k; ``d`` is
    the degree of the elevation whose spirality is reported.
    """

    __slots__ = ("k", "p", "q", "r_minus", "r_plus", "d")

    def __init__(self, k, p, q, r_minus, r_plus, d=1):
        set_k, set_p, set_q, set_r_minus, set_r_plus, set_d = self._setters
        set_k(self, k)
        set_p(self, p)
        set_q(self, q)
        set_r_minus(self, r_minus)
        set_r_plus(self, r_plus)
        set_d(self, d)

    def check(self):
        if self.k == 0:
            raise BadParams("twist coefficient k must be nonzero")
        for name in ("p", "q", "r_minus", "r_plus", "d"):
            if getattr(self, name) < 1:
                raise BadParams("%s must be a positive integer" % name)
        if self.r_plus - self.r_minus != -self.k:
            raise BadParams("need r_plus - r_minus = -k, got %d - %d != -%d"
                            % (self.r_plus, self.r_minus, self.k))


class TwistFamilyInstance(Value):
    """Generated manifest plus the data needed to check it independently.

    The torus frame is (l_minus, e): the minus-side degeneracy slope is
    (1, 0), the reduction curve e is (0, 1), and the plus-side slope is
    (1, k), so fdtc(l_plus, l_minus, e, 1) recovers k. ``expected`` is the
    closed-form spirality of the emitted loop.
    """

    __slots__ = ("manifest", "loop", "expected", "l_plus", "l_minus", "reduction_curve")

    def __init__(self, manifest, loop, expected, l_plus, l_minus, reduction_curve):
        (set_manifest, set_loop, set_expected, set_l_plus, set_l_minus,
         set_reduction_curve) = self._setters
        set_manifest(self, manifest)
        set_loop(self, loop)
        set_expected(self, expected)
        set_l_plus(self, l_plus)
        set_l_minus(self, l_minus)
        set_reduction_curve(self, reduction_curve)


def gen_twist_family(params):
    """Emit the two-crossing loop around a twisted torus, wrapped d times.

    The loop crosses the torus through the curve c1 = (p, p*r_minus + q)
    from the minus side and returns through c0 = (0, 1) from the plus side;
    all leaf lengths are 1, so the spirality is the sigma product
    ((p r- + q) / (p r+ + q)) ** d, never +-1 for nonzero k.
    """
    params.check()
    k, p, q = params.k, params.p, params.q
    l_minus = Slope((1, 0))
    l_plus = Slope((1, k))
    one = Fraction(1)
    manifest = FlowManifest(
        pieces=[
            Piece("J_plus", PieceType.PSEUDO_ANOSOV,
                  [PieceBoundary("b_plus", "T", l_plus, one)]),
            Piece("J_minus", PieceType.PSEUDO_ANOSOV,
                  [PieceBoundary("b_minus", "T", l_minus, one)]),
        ],
        tori=[Torus("T", plus=("J_plus", "b_plus"), minus=("J_minus", "b_minus"),
                    frame="(l_minus, e)")],
    )
    c1 = Slope.of(p, p * params.r_minus + q)
    c0 = Slope((0, 1))
    period = (Crossing("T", c1, Side.MINUS), Crossing("T", c0, Side.PLUS))
    loop = LoopItinerary(period * params.d)
    expected = Fraction(p * params.r_minus + q, p * params.r_plus + q) ** params.d
    return TwistFamilyInstance(manifest, loop, expected, l_plus, l_minus, Slope((0, 1)))


def _random_primitive(rng, bound=5):
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) != (0, 0):
            return Slope(Slope.of(a, b).vector)


def _random_transverse_curve(rng, slopes, bound=5):
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) == (0, 0):
            continue
        c = Slope.of(a, b, rng.randint(1, 2))
        if all(intersection_number(c, s) != 0 for s in slopes):
            return c


def _random_length(rng, bound):
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def _assemble(rng, piece_seq, matched, leaf_bound):
    """Build a manifest and loop visiting ``piece_seq``; crossing i joins
    the piece of segment i to the piece of segment i+1. Already-built tori
    joining the right pair of pieces are sometimes crossed again (in either
    direction) instead of growing a new one."""
    n = len(piece_seq)
    piece_ids = sorted(set(piece_seq))
    types = {pid: rng.choice((PieceType.SEIFERT, PieceType.PSEUDO_ANOSOV))
             for pid in piece_ids}
    # Seifert boundaries all share the ordinary fiber's length; matched-slope
    # manifolds use one length per piece across the board.
    piece_length = {pid: _random_length(rng, leaf_bound) for pid in piece_ids}

    boundaries = {pid: [] for pid in piece_ids}
    tori = []
    torus_slopes = {}
    crossings = []
    for i in range(n):
        leave_piece = piece_seq[i]
        enter_piece = piece_seq[(i + 1) % n]

        reusable = [(t.id, Side.MINUS) for t in tori
                    if t.minus[0] == leave_piece and t.plus[0] == enter_piece]
        reusable += [(t.id, Side.PLUS) for t in tori
                     if t.plus[0] == leave_piece and t.minus[0] == enter_piece]
        if reusable and rng.random() < 0.4:
            torus_id, from_side = rng.choice(reusable)
            slopes = torus_slopes[torus_id]
        else:
            torus_id, from_side = "T%d" % i, Side.MINUS

            def new_boundary(pid, side_tag, slope):
                if matched or types[pid] is PieceType.SEIFERT:
                    length = piece_length[pid]
                else:
                    length = _random_length(rng, leaf_bound)
                bid = "b%d%s" % (i, side_tag)
                boundaries[pid].append(PieceBoundary(bid, torus_id, slope, length))
                return bid

            slope_minus = _random_primitive(rng)
            slope_plus = slope_minus if matched else _random_primitive(rng)
            b_minus = new_boundary(leave_piece, "m", slope_minus)
            b_plus = new_boundary(enter_piece, "p", slope_plus)
            tori.append(Torus(torus_id, plus=(enter_piece, b_plus),
                              minus=(leave_piece, b_minus)))
            slopes = torus_slopes[torus_id] = (slope_minus, slope_plus)
        crossings.append(Crossing(torus_id, _random_transverse_curve(rng, slopes),
                                  from_side))

    pieces = [Piece(pid, types[pid], boundaries[pid]) for pid in piece_ids]
    return FlowManifest(pieces, tori), LoopItinerary(crossings)


def gen_matched_slopes(n_pieces, seed):
    """A random manifold whose degeneracy slopes match across every torus.

    Every twist coefficient vanishes and leaf lengths are constant within
    each piece, so the emitted loop (and any other) has spirality exactly 1.
    """
    if n_pieces < 1:
        raise BadParams("n_pieces must be positive")
    rng = random.Random(seed)
    piece_seq = ["P%d" % i for i in range(n_pieces)]
    return _assemble(rng, piece_seq, matched=True, leaf_bound=9)


RANDOM_MAX_CROSSINGS = 8
RANDOM_LEAF_BOUND = 20


def gen_random_flow(seed):
    """An unconstrained random flow manifest with a valid transverse loop.

    Degeneracy slopes on the two sides of a torus are independent and leaf
    lengths are arbitrary positive rationals with numerator and denominator
    up to RANDOM_LEAF_BOUND, so spiralities are generic; used to check that
    the decorated graph keeps the spirality of the factors it starts from.
    """
    rng = random.Random(seed)
    n = rng.randint(1, RANDOM_MAX_CROSSINGS)
    n_pieces = rng.randint(1, min(4, n))
    piece_seq = ["P%d" % rng.randrange(n_pieces) for _ in range(n)]
    return _assemble(rng, piece_seq, matched=False, leaf_bound=RANDOM_LEAF_BOUND)
