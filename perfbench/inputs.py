"""Seeded manifests whose answers are known by construction.

Nothing here imports the package under test. Every manifest is built as a
plain JSON document, and every expected answer comes either from the
construction itself (planted graph twists, the twist family's closed form,
matched slopes) or from ``reference_spirality``, a direct evaluation of the
flow formula written for this benchmark.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def rng_for(seed, *labels):
    """A private generator per input, so inputs do not shift one another."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


# ---------------------------------------------------------------- flow route

def _intersection(c, s):
    """Geometric intersection number of two slopes given as JSON values."""
    (a, b), m = _slope(c)
    (x, y), n = _slope(s)
    return m * n * abs(a * y - b * x)


def _slope(value):
    if isinstance(value, dict):
        return tuple(value["vector"]), value.get("mult", 1)
    return tuple(value), 1


def reference_spirality(doc):
    """Direct evaluation of a flow manifest's loop, from-leaves convention.

    Each crossing contributes i(c, slope left) / i(c, slope entered); each
    segment, from the boundary entered at crossing i-1 to the boundary left
    at crossing i, contributes the entry leaf length over the exit one.
    """
    boundaries = {}
    for piece in doc["pieces"]:
        for b in piece["boundaries"]:
            boundaries[(piece["id"], b["id"])] = b
    tori = {t["id"]: t for t in doc["tori"]}
    other = {"plus": "minus", "minus": "plus"}
    left, entered = [], []
    for c in doc["loop"]:
        torus = tori[c["torus"]]
        for side, out in ((c["from_side"], left), (other[c["from_side"]], entered)):
            end = torus[side]
            out.append(boundaries[(end["piece"], end["boundary"])])
    value = Fraction(1)
    for c, leave, enter in zip(doc["loop"], left, entered):
        value *= Fraction(_intersection(c["curve"], leave["degeneracy_slope"]),
                          _intersection(c["curve"], enter["degeneracy_slope"]))
    for i, leave in enumerate(left):
        value *= (Fraction(entered[i - 1]["leaf_length"])
                  / Fraction(leave["leaf_length"]))
    return value


@dataclass(frozen=True)
class Twist:
    """One member of the nontrivial-twist family around a single torus.

    The exponents follow the ``gen twist-family`` defaults for a given k, so
    the same parameters can be handed to that command. The loop's
    spirality has the closed form ((p r- + q) / (p r+ + q)) ** d and the
    twist coefficient of the slope data is k / m.
    """

    k: int
    p: int
    q: int
    d: int
    m: int = 1

    @property
    def r_minus(self):
        return 1 + max(0, self.k)

    @property
    def r_plus(self):
        return self.r_minus - self.k

    def spirality(self):
        return Fraction(self.p * self.r_minus + self.q,
                        self.p * self.r_plus + self.q) ** self.d

    def fdtc(self):
        return Fraction(self.k, self.m)

    def gen_args(self):
        return ["--k", str(self.k), "--p", str(self.p), "--q", str(self.q),
                "--d", str(self.d)]

    def manifest(self):
        one = "1"
        c1 = [self.p, self.p * self.r_minus + self.q]
        period = [{"torus": "T", "curve": c1, "from_side": "minus"},
                  {"torus": "T", "curve": [0, 1], "from_side": "plus"}]
        return {
            "pieces": [
                {"id": "J_plus", "type": "pseudo_anosov", "boundaries": [
                    {"id": "b_plus", "torus": "T", "degeneracy_slope": [1, self.k],
                     "leaf_length": one}]},
                {"id": "J_minus", "type": "pseudo_anosov", "boundaries": [
                    {"id": "b_minus", "torus": "T", "degeneracy_slope": [1, 0],
                     "leaf_length": one}]},
            ],
            "tori": [{"id": "T", "plus": {"piece": "J_plus", "boundary": "b_plus"},
                      "minus": {"piece": "J_minus", "boundary": "b_minus"}}],
            "loop": period * self.d,
            "fdtc": {"l_plus": [1, self.k], "l_minus": [1, 0], "e": [0, 1],
                     "m": self.m},
        }


def random_twist(rng, d, m=1):
    """A family member whose base ratio has a 24 to 47 numerator or
    denominator, so the spirality's size depends on d, not on luck."""
    while True:
        k = rng.choice((-1, 1)) * rng.randint(1, 6)
        twist = Twist(k=k, p=rng.randint(1, 9), q=rng.randint(1, 9), d=d, m=m)
        base = Fraction(twist.p * twist.r_minus + twist.q,
                        twist.p * twist.r_plus + twist.q)
        if 24 <= max(base.numerator, base.denominator) < 48:
            return twist


def _primitive(rng, bound):
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) != (0, 0) and gcd(a, b) == 1:
            return [a, b]


def _curve(rng, slopes, bound):
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) == (0, 0):
            continue
        curve = [a, b] if rng.random() < 0.5 else {"vector": [a, b], "mult": 2}
        if all(_intersection(curve, s) for s in slopes):
            return curve


def _cyclic_walk(rng, n):
    """A sequence of n of three pieces with distinct neighbours, cyclically."""
    pieces = ["P0", "P1", "P2"]
    seq = [pieces[0]]
    for i in range(1, n):
        choices = [p for p in pieces if p != seq[-1]]
        if i == n - 1:
            choices = [p for p in choices if p != seq[0]]
        seq.append(rng.choice(choices))
    return seq


def matched_slopes(rng):
    """A loop through three pieces whose tori see one slope from both sides.

    Leaf lengths are constant per piece, so every sigma and every rho is 1
    and the spirality is exactly 1. The fdtc section puts the same slope on
    both sides.
    """
    seq = ["P0", "P1", "P2"]
    length = {p: "%d/%d" % (rng.randint(1, 9), rng.randint(1, 9)) for p in seq}
    boundaries = {p: [] for p in seq}
    tori, loop = [], []
    for i, leave in enumerate(seq):
        enter = seq[(i + 1) % 3]
        slope = _primitive(rng, 5)
        tid = "T%d" % i
        boundaries[leave].append({"id": "b%dm" % i, "torus": tid,
                                  "degeneracy_slope": slope,
                                  "leaf_length": length[leave]})
        boundaries[enter].append({"id": "b%dp" % i, "torus": tid,
                                  "degeneracy_slope": slope,
                                  "leaf_length": length[enter]})
        tori.append({"id": tid, "plus": {"piece": enter, "boundary": "b%dp" % i},
                     "minus": {"piece": leave, "boundary": "b%dm" % i}})
        loop.append({"torus": tid, "curve": _curve(rng, [slope], 5),
                     "from_side": "minus"})
    doc = {"pieces": [{"id": p, "type": rng.choice(("seifert", "pseudo_anosov")),
                       "boundaries": boundaries[p]} for p in seq],
           "tori": tori, "loop": loop}
    slope = boundaries[seq[0]][0]["degeneracy_slope"]
    doc["fdtc"] = {"l_plus": slope, "l_minus": slope, "e": _primitive(rng, 3), "m": 1}
    return doc


def random_long_loop(rng, n):
    """A loop of n crossings over three pieces, a fresh torus per crossing.

    Every piece ends up with about 2n / 3 boundaries. Slopes on the
    two sides of a torus are independent and leaf lengths are arbitrary
    positive rationals, so the spirality is generic; the reference is
    ``reference_spirality``.
    """
    seq = _cyclic_walk(rng, n)
    boundaries = {p: [] for p in sorted(set(seq))}
    tori, loop = [], []
    for i, leave in enumerate(seq):
        enter = seq[(i + 1) % n]
        tid = "T%04d" % i
        ends = {}
        for piece, tag in ((leave, "l"), (enter, "e")):
            bid = "b%04d%s" % (i, tag)
            slope = _primitive(rng, 4)
            boundaries[piece].append({
                "id": bid, "torus": tid, "degeneracy_slope": slope,
                "leaf_length": "%d/%d" % (rng.randint(1, 6), rng.randint(1, 6))})
            ends[tag] = ({"piece": piece, "boundary": bid}, slope)
        from_side = rng.choice(("plus", "minus"))
        to_side = "minus" if from_side == "plus" else "plus"
        tori.append({"id": tid, from_side: ends["l"][0], to_side: ends["e"][0]})
        loop.append({"torus": tid, "from_side": from_side,
                     "curve": _curve(rng, [ends["l"][1], ends["e"][1]], 4)})
    pieces = [{"id": p, "type": "pseudo_anosov", "boundaries": b}
              for p, b in boundaries.items()]
    return {"pieces": pieces, "tori": tori, "loop": loop}


# ---------------------------------------------------------------- graph route

@dataclass(frozen=True)
class PlantedGraph:
    """A decorated graph with every basis value fixed in advance.

    ``doc`` is the manifest; ``twists`` maps each non-tree edge id to the
    value of its fundamental cycle; ``aspiral`` is the expected verdict.
    """

    doc: dict
    twists: dict
    aspiral: bool


def planted_graph(rng, n_vertices, n_edges, aspiral):
    """A connected graph whose lowest-id spanning forest is a path.

    Tree edges a00000.. join v_i to v_(i+1); every other edge has a larger
    id b00000.. and random ends. Each vertex carries a potential +-a(v), and
    an edge u -> v gets h_ini = a(u) t_num, h_ter = a(v) t_den and
    omega = s(u) s(v) t_sign, so the potentials cancel around every cycle
    and a fundamental cycle's value is the twist t planted on its non-tree
    edge. Tree edges carry t = 1; non-tree edges carry +-1, except for one
    to three non-trivial twists when ``aspiral`` is false.
    """
    names = ["v%05d" % i for i in range(n_vertices)]
    size = {v: rng.randint(1, 9) for v in names}
    sign = {v: rng.choice((1, -1)) for v in names}

    def edge(eid, u, v, twist):
        # the basis cycle runs its edge forward, whichever way the edge points
        if rng.random() < 0.5:
            u, v = v, u
        return {"id": eid, "from": u, "to": v,
                "h_ini": size[u] * abs(twist.numerator),
                "h_ter": size[v] * twist.denominator,
                "omega": sign[u] * sign[v] * (1 if twist > 0 else -1)}

    edges = [edge("a%05d" % i, names[i], names[i + 1], Fraction(1))
             for i in range(n_vertices - 1)]
    n_cycles = n_edges - len(edges)
    twists = {"b%05d" % j: Fraction(rng.choice((1, -1))) for j in range(n_cycles)}
    if not aspiral:
        for eid in rng.sample(sorted(twists), rng.randint(1, min(3, n_cycles))):
            num, den = rng.sample(range(1, 8), 2)
            twists[eid] = Fraction(num, den) * rng.choice((1, -1))
    for eid, twist in twists.items():
        u, v = rng.sample(names, 2)
        edges.append(edge(eid, u, v, twist))
    vertices = [{"id": v} for v in names]
    doc = {"graph": {"vertices": vertices, "edges": edges}}
    return PlantedGraph(doc, twists, aspiral)
