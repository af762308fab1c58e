"""A seeded corpus of plane-curve germs for pinning the resolution engine,
and the one dump line per germ that the pin hashes.

The corpus draws germs the way the benchmark's lct workloads draw them (its
rational and conjugate rounds, with the three conjugate families those rounds
leave out), adds germgen's random germs with squares, cubes and unimodular
substitutions, and a few structured germs: a rational tangent, a root too
tall for rational reconstruction modulo P, several rational multiple points
along one line (whose order numbers the nodes), two that are equal only
modulo P, a fractional germ, a germ that is not reduced, the nested
towers over QQ(sqrt2) up to three levels, and nonzero roots over the
engine's own quadratic and cubic fields.  The same seed always gives the
same germs.

Run as a script to print the digest the pin in data/resolution_reports.json
holds: `PYTHONPATH=src python tests/resolution_corpus.py`.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from delpezzo.germs import CurveGerm, parse_germ
from delpezzo.lct import check_mult_bounds, newton_lct, resolution_lct
from delpezzo.resolution import Resolution, resolve_germ
from germgen import random_germ, random_unimodular

SEED = 20261019

# -- germs as the benchmark's lct rounds draw them ------------------------------

# (p, q) of y^p - x^q plus terms above the weighted line, as in its rational
# rounds
CONSTRUCTED_SHAPES = ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5))

# (p, k, substituted) of (y^p - d*x^p)^k - x^(p*k + 1): the seven families of
# its conjugate rounds, then the three it leaves out
CONJUGATE_FAMILIES = ((2, 1, False), (2, 1, True), (3, 1, False), (3, 1, True),
                      (2, 2, False), (3, 2, False), (2, 2, True),
                      (3, 2, True), (2, 3, False), (2, 3, True))
NON_SQUARES = (2, 3, 5, 6, 7)
NON_CUBES = (2, 3, 4, 5)

RATIONAL_ROUNDS = 30
CONJUGATE_ROUNDS = 8


def _mixing_unimodular(rng: random.Random) -> tuple:
    """An SL2(Z) matrix from two shears whose off-diagonal entries are both
    nonzero, so each new coordinate mixes x and y."""
    while True:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(2):
            t = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.5:
                a, b = a + t * c, b + t * d
            else:
                c, d = c + t * a, d + t * b
        if b and c:
            return a, b, c, d


def _constructed(rng: random.Random, p: int, q: int) -> CurveGerm:
    """y^p - x^q plus one to three terms strictly above the weighted line."""
    terms = {(0, p): 1, (q, 0): -1}
    for _ in range(rng.randint(1, 3)):
        while True:
            i, j = rng.randint(0, q), rng.randint(0, p)
            if i * p + j * q > p * q:
                break
        terms[(i, j)] = terms.get((i, j), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return CurveGerm.from_dict(terms)


def _rational_round(rng: random.Random) -> list[CurveGerm]:
    germs = [random_germ(rng) for _ in range(4)]
    for p, q in CONSTRUCTED_SHAPES:
        for substituted in (False, True):
            f = _constructed(rng, p, q)
            germs.append(f.compose_linear(*_mixing_unimodular(rng))
                         if substituted else f)
    return germs


def _conjugate_round(rng: random.Random) -> list[CurveGerm]:
    germs = []
    for p, k, substituted in CONJUGATE_FAMILIES:
        d = rng.choice(NON_SQUARES if p == 2 else NON_CUBES)
        f = parse_germ(f"(y^{p} - {d}*x^{p})^{k} - x^{p * k + 1}")
        germs.append(f.compose_linear(*_mixing_unimodular(rng))
                     if substituted else f)
    return germs


# -- structured germs ------------------------------------------------------------

STRUCTURED = [
    # a rational tangent, blown up at y = 3/2
    "(2*y - 3*x)^2 - x^3",
    # a double root 2147483659/2147483649, too tall to reconstruct mod P
    "(2147483649*y - 2147483659*x)^2 - x^3",
    # two and three rational double points along the first line: modp
    # proves the first pair, sympy decides the triple
    "((y - x)*(2*y - 3*x))^2 - x^5",
    "((y - x)*(y - 2*x)*(y - 3*x))^2 - x^7",
    # double roots 1 and 1 + P, equal modulo P: once 1 is proven, the
    # cofactor (v - 1 - P)^2 is no square-free certificate and sympy decides
    "((y - x)*(y - 2305843009213693952*x))^2 - x^5",
    # a triple root 1 and a double root -2, listed by multiplicity
    "(y - x)^3*(y + 2*x)^2 - x^6",
    # fractional coefficients, with a site at y = 5/7
    "(7*y - 5*x)^3 - x^4/11",
    # not reduced: sympy's sqf_list splits it
    "(y^2 - x^3)^2*(x + y)",
    # the nested towers over QQ(sqrt2), up to three levels
    "(y^2 - 2*x^2)^2 - x^5",
    "((y^2 - 2*x^2)^2 - 3*x^6)^2 - x^13",
    "((y^2 - 2*x^2)^2 - 3*x^6)^2 + x^15",
    "(((y^2 - 2*x^2)^2 - 3*x^6)^2 - 5*x^13)^2 - x^27",
    # a tangent at y = theta along the second line, over the own fields
    # QQ(theta) for theta^2 = 2 and theta^3 = 2: a nonzero root there
    "(y^2 - 2*x^2 - 4*x^3)^2 - x^7",
    "(y^3 - 2*x^3 - 6*x^4)^2 - x^9",
    # the first after (x, y) -> (x + y, x + 2*y): the root 5*theta + 7/2
    # over QQ(theta), 2*theta^2 = 1
    "((x + 2*y)^2 - 2*(x + y)^2 - 4*(x + y)^3)^2 - (x + y)^7",
    # the two-level tower, likewise substituted: its second centre is
    # irrational over the own field, sympy factors that line, and the tower
    # is flattened into one own field
    "(((x + 2*y)^2 - 2*(x + y)^2)^2 - 3*(x + y)^6)^2 - (x + y)^13",
]


def corpus() -> list[CurveGerm]:
    rng = random.Random(SEED)
    germs = []
    for _ in range(RATIONAL_ROUNDS):
        germs += _rational_round(rng)
    for _ in range(CONJUGATE_ROUNDS):
        germs += _conjugate_round(rng)
    drawn = [random_germ(rng) for _ in range(120)]
    germs += drawn
    germs += [f.compose_linear(*random_unimodular(rng)) for f in drawn[:60]]
    germs += [f ** 2 for f in drawn[:40]]
    germs += [f ** 3 for f in drawn[:12]]
    germs += [f.compose_linear(*random_unimodular(rng)) ** 2 for f in drawn[40:60]]
    germs += [parse_germ(text) for text in STRUCTURED]
    return germs


# -- the dump --------------------------------------------------------------------

def dump(f: CurveGerm, res: Resolution) -> str:
    """One line: the germ, every node (index, a, b, parent indices, site),
    every component (coefficients written with str, multiplicity, order at the
    origin, label), the blow-up count and the three threshold strings."""
    nodes = [(n.index, n.a, n.b, tuple(p.index for p in n.parents), n.site)
             for n in res.nodes]
    comps = [(tuple((e, str(c)) for e, c in comp.coeffs), comp.multiplicity,
              comp.mult_at_origin, comp.label) for comp in res.components]
    return repr((str(f), nodes, comps, res.blowups, str(resolution_lct(res)),
                 str(check_mult_bounds(f)), str(newton_lct(f))))


def check_tree(res: Resolution) -> None:
    """The invariants every resolution keeps: nodes numbered in creation
    order, parents before children and at most two of them,
    a = 1 + the parents' a, b >= 1 + the parents' b, one node per blow-up,
    and the threshold min(1, 1/i for components through the origin,
    (a + 1)/b)."""
    assert res.blowups == len(res.nodes)
    for k, node in enumerate(res.nodes, start=1):
        assert node.index == k
        assert len(node.parents) <= 2
        assert all(p.index < k and res.nodes[p.index - 1] is p
                   for p in node.parents)
        assert node.a == 1 + sum(p.a for p in node.parents)
        assert node.b >= 1 + sum(p.b for p in node.parents)
    value = min([Fraction(1)]
                + [Fraction(1, c.multiplicity) for c in res.components
                   if c.through_origin]
                + [Fraction(n.a + 1, n.b) for n in res.nodes])
    assert resolution_lct(res).value == value


def digest(lines: list[str]) -> dict:
    return {"count": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def dump_corpus() -> list[str]:
    lines = []
    for f in corpus():
        res = resolve_germ(f)
        check_tree(res)
        lines.append(dump(f, res))
    return lines


if __name__ == "__main__":
    import json
    print(json.dumps(digest(dump_corpus()), indent=2))
