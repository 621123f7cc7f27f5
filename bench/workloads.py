"""The benchmark's four workloads.

Each workload builds its families from heightforge's public API, warms up
with one fixed op per family, yields rounds of ops drawn from the seed, and
checks every output against the reference facts in `oracle` (or against
published values).  A round always holds the same kinds of op in the same
proportions, so any whole number of rounds has the same mix.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

import oracle

# name: (F's coefficients a_D, ..., a_0; weight e)
FAMILIES = {
    "z^2+t": ((1, 1), 2),
    "z^3+t": ((1, 1), 3),
    "z^6-3tz^3+t^2": ((1, -3, 1), 3),
    "z^4+t^2": ((1, 0, 1), 2),
}

# Preperiodic rational points of z^2 + t at the classical parameters
# (Walde and Russo 1994; Poonen 1998).
INVENTORIES = {
    Fraction(0): (Fraction(0), Fraction(1), Fraction(-1)),
    Fraction(-1): (Fraction(0), Fraction(1), Fraction(-1)),
    Fraction(-2): tuple(Fraction(k) for k in (0, 1, -1, 2, -2)),
    Fraction(1, 4): (Fraction(1, 2), Fraction(-1, 2)),
    Fraction(-3, 4): tuple(Fraction(k, 2) for k in (1, -1, 3, -3)),
}

# 3317044064679887385961981 = 1287836182261 * 2575672364521 is a strong
# pseudoprime to every base heightforge's primality test uses.
PSEUDOPRIME = 3317044064679887385961981
PSEUDOPRIME_FACTORS = (1287836182261, 2575672364521)


@dataclass
class Op:
    """One public heightforge call and what its check needs."""

    fn: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    known_fault: Optional[str] = None

    def call(self, hf):
        return getattr(hf, self.fn)(*self.args, **self.kwargs)


def rand_fraction(rng: random.Random, num_max: int, den_max: int) -> Fraction:
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def is_prime(n: int) -> bool:
    import sympy

    return bool(sympy.isprime(n))


class Workload:
    name = ""

    def __init__(self, hf):
        self.hf = hf
        self.fams = {name: hf.build_family(list(form), e)
                     for name, (form, e) in FAMILIES.items()}

    def reference_map(self, family: str, t: Fraction, primes=None) -> oracle.Map:
        form, e = FAMILIES[family]
        return oracle.Map(form, e, t, primes)

    def warm_up(self) -> None:
        raise NotImplementedError

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        raise NotImplementedError

    def check(self, ops: list[Op], outs: list) -> list[Optional[str]]:
        """One problem description per op, None when its output is right."""
        problems = []
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                problems.append(f"raised {type(out).__name__}: {out}")
            else:
                problems.append(self.check_op(op, out, ops, outs))
        return problems

    def check_op(self, op: Op, out, ops, outs) -> Optional[str]:
        raise NotImplementedError

    # -- checks shared by several workloads ---------------------------------

    def check_height(self, op: Op, enc) -> Optional[str]:
        """The enclosure overlaps the telescoping estimate of hhat."""
        z = op.args[2]
        est, tail = op.facts["map"].telescope(z)
        if not oracle.enclosures_overlap((enc.lo, enc.hi), (est - tail, est + tail)):
            return f"hhat({z}) = [{enc.lo}, {enc.hi}] misses {est} +- {tail}"
        return None

    def check_certificate(self, op: Op, cert) -> Optional[str]:
        fmap, z = op.facts["map"], op.args[2]
        if cert.is_preperiodic:
            if not fmap.replays(z, cert.preperiod, cert.period):
                return f"cycle ({cert.preperiod}, {cert.period}) of {z} does not replay"
            return None
        bound = cert.hhat_lower_bound
        est, tail = fmap.telescope(z)
        if not (bound > 0 and bound <= est + tail):
            return f"wandering bound {bound} outside (0, {est} + {tail}]"
        witness = cert.witness
        if not isinstance(witness, str) and witness.prime is not None:
            if not is_prime(witness.prime):
                return f"witness place {witness.prime} is not prime"
        return None


# ---------------------------------------------------------------------------
# heights: canonical heights and pairings
# ---------------------------------------------------------------------------


class Heights(Workload):
    """Per round: a functional-equation pair (z, f_t(z)) per family, a
    symmetric pairing pair at inf and at one of 2, 3, 5, 7, two 2-adic pairs
    whose finite Green computation reaches its p-adic phase, and a
    local/global pair on each of z^2 + t and z^3 + t.  The proportions put
    the median op among the local heights and the 90th percentile among the
    2-adic heights rather than on a gap between op kinds."""

    name = "heights"
    TOL = 1e-9
    PAIR_TOL = 1e-7
    GLOBAL_TOL = 0.2
    FINITE_PLACES = (2, 3, 5, 7)
    TRACE_ROUNDS_PER_S = 8.0

    def __init__(self, hf):
        super().__init__(hf)
        self._floors = {}

    def warm_up(self):
        for fam in self.fams.values():
            self.hf.canonical_height(fam, Fraction(1, 2), Fraction(1, 3), self.TOL)

    def _height_op(self, family, t, z, fmap, **facts):
        return Op("canonical_height", (self.fams[family], t, z), {"tol": self.TOL},
                  {"map": fmap, "kind": "height", **facts})

    def rounds(self, seed):
        rng = random.Random(f"heights:{seed}")
        seen = set()

        def fresh(draw):
            while True:
                key = draw()
                if key not in seen:
                    seen.add(key)
                    return key

        while True:
            ops: list[Op] = []
            for family in FAMILIES:
                _, t, z = fresh(lambda: (family, rand_fraction(rng, 100, 100),
                                         rand_fraction(rng, 100, 100)))
                fmap = self.reference_map(family, t)
                ops.append(self._height_op(family, t, z, fmap))
                ops.append(self._height_op(family, t, fmap(z), fmap, times_d_of=len(ops) - 1))
            for p in (None, rng.choice(self.FINITE_PLACES)):
                family = rng.choice(list(FAMILIES))
                if p is None:
                    place = self.hf.INF
                    t = Fraction(rng.randint(-9, 9), rng.randint(9, 12))
                else:
                    place = self.hf.Place.finite(p)
                    t = Fraction(rng.randint(-9, 9),
                                 rng.choice([n for n in range(1, 10) if n % p]))
                x, y = fresh(lambda: (rand_fraction(rng, 12, 8), rand_fraction(rng, 12, 8)))
                while x == y:
                    x, y = fresh(lambda: (rand_fraction(rng, 12, 8), rand_fraction(rng, 12, 8)))
                fam = self.fams[family]
                facts = {"kind": "pairing", "family": family, "place": p}
                ops.append(Op("arakelov_green", (fam, t, place, x, y),
                              {"tol": self.PAIR_TOL}, dict(facts)))
                ops.append(Op("arakelov_green", (fam, t, place, y, x),
                              {"tol": self.PAIR_TOL}, dict(facts, swap_of=len(ops) - 1)))
            # t = w / (4 u^2), w = 1 mod 4, u odd, v_2(z) = -1: the 2-adic orbit
            # keeps valuation -1 forever, so G_2 needs many steps
            for _ in range(2):
                _, t, z = fresh(lambda: (
                    "2-adic",
                    Fraction(4 * rng.randint(-25, 25) + 1, 4 * rng.choice([1, 3, 5, 7, 9, 11]) ** 2),
                    Fraction(2 * rng.randint(-10, 9) + 1, 2 * rng.choice([1, 3, 5, 7])),
                ))
                fmap = self.reference_map("z^2+t", t)
                ops.append(self._height_op("z^2+t", t, z, fmap))
                ops.append(self._height_op("z^2+t", t, fmap(z), fmap, times_d_of=len(ops) - 1))
            for family in ("z^2+t", "z^3+t"):
                _, t, z = fresh(lambda: ("global", family, rand_fraction(rng, 8, 6),
                                         rand_fraction(rng, 8, 6)))[1:]
                fmap = self.reference_map(family, t)
                ops.append(self._height_op(family, t, z, fmap))
                ops.append(Op("canonical_height", (self.fams[family], t, z),
                              {"tol": self.GLOBAL_TOL, "method": "global"},
                              {"map": fmap, "kind": "height", "overlaps": len(ops) - 1}))
            yield ops

    def check_op(self, op, out, ops, outs):
        facts = op.facts
        if facts["kind"] == "height":
            problem = self.check_height(op, out)
            if problem:
                return problem
            if "times_d_of" in facts:
                base = outs[facts["times_d_of"]]
                if isinstance(base, Exception):
                    return "partner op raised"
                d = facts["map"].d
                if not oracle.enclosures_overlap((d * base.lo, d * base.hi), (out.lo, out.hi)):
                    return f"hhat(f(z)) = [{out.lo}, {out.hi}] != {d} * [{base.lo}, {base.hi}]"
            if "overlaps" in facts:
                local = outs[facts["overlaps"]]
                if isinstance(local, Exception):
                    return "partner op raised"
                if not oracle.enclosures_overlap((local.lo, local.hi), (out.lo, out.hi)):
                    return f"global [{out.lo}, {out.hi}] misses local [{local.lo}, {local.hi}]"
            return None
        floor = self._pairing_floor(facts["family"], facts["place"])
        if out.hi < -floor - 1e-9:
            return f"pairing {out} below the good-reduction floor -{floor}"
        if "swap_of" in facts:
            other = outs[facts["swap_of"]]
            if isinstance(other, Exception):
                return "partner op raised"
            if not oracle.enclosures_overlap((other.lo, other.hi), (out.lo, out.hi)):
                return f"g(y, x) = {out} misses g(x, y) = {other}"
        return None

    def _pairing_floor(self, family, p):
        """max(a_v, b_v) + log+|2|_v, the good-reduction floor of criterion 5."""
        cache = self._floors
        if (family, p) not in cache:
            hf, fam = self.hf, self.fams[family]
            place = hf.INF if p is None else hf.Place.finite(p)
            bound = hf.mk_a(fam).at(place)
            b = hf.mk_b(fam).at(place)
            if b.compare(bound) > 0:
                bound = b
            cache[(family, p)] = (bound + hf.constants.log2_at(place)).enclosure().hi
        return cache[(family, p)]


# ---------------------------------------------------------------------------
# certify: certify_point on fresh parameters
# ---------------------------------------------------------------------------


class Certify(Workload):
    """Per round: for each family one parameter a/p^k with e not dividing k
    (obstructed) and one with k = e (forced valuation), p among 7..23; and for
    each classical z^2 + t parameter one point of its inventory and one
    point outside it."""

    name = "certify"
    BAD_PRIMES = (7, 11, 13, 17, 19, 23)
    TRACE_ROUNDS_PER_S = 50.0

    def warm_up(self):
        for fam in self.fams.values():
            self.hf.certify_point(fam, Fraction(1, 7), Fraction(1, 2))

    def _op(self, family, t, z, **facts):
        fmap = self.reference_map(family, t)
        return Op("certify_point", (self.fams[family], t, z), {}, {"map": fmap, **facts})

    def rounds(self, seed):
        rng = random.Random(f"certify:{seed}")
        while True:
            ops = []
            for family, (_, e) in FAMILIES.items():
                for k in (rng.choice([k for k in range(1, 2 * e) if k % e]), e):
                    p = rng.choice(self.BAD_PRIMES)
                    a = rng.choice([n for n in range(-9, 10) if n % p])
                    ops.append(self._op(family, Fraction(a, p**k), rand_fraction(rng, 10, 6)))
            for t, inventory in INVENTORIES.items():
                ops.append(self._op("z^2+t", t, rng.choice(inventory), inventory=inventory))
                z = rand_fraction(rng, 50, 50)
                while z in inventory:
                    z = rand_fraction(rng, 50, 50)
                ops.append(self._op("z^2+t", t, z, inventory=inventory))
            yield ops

    def check_op(self, op, cert, ops, outs):
        inventory = op.facts.get("inventory")
        if inventory is not None and cert.is_preperiodic != (op.args[2] in inventory):
            return f"verdict {cert.verdict} for z = {op.args[2]} disagrees with the inventory"
        return self.check_certificate(op, cert)


# ---------------------------------------------------------------------------
# scan: one parameter of a fixed box per op
# ---------------------------------------------------------------------------


class Scan(Workload):
    """Per round: every parameter of five fixed boxes, in seeded order.
    Per-parameter costs are bimodal (obstructed or filtered parameters take
    microseconds, the rest tens of milliseconds), so a round covers whole
    boxes and every run does the same work; the seed sets the order."""

    name = "scan"
    # (family, cover denominator or None, t box size, z box size)
    BOXES = (
        ("z^2+t", None, 12, 40),
        ("z^3+t", None, 12, 40),
        ("z^6-3tz^3+t^2", None, 12, 30),
        ("z^4+t^2", None, 12, 30),
        ("z^2+t", (1, 0, 0, 0, 1), 12, 40),  # z^2 + 1/(1 + t^4)
    )
    TRACE_ROUNDS_PER_S = 0.0  # one round whatever the run length

    def __init__(self, hf):
        super().__init__(hf)
        self.covers = {den: hf.analyze_cover([1], list(den))
                       for _, den, _, _ in self.BOXES if den is not None}
        self._truth = {}  # (family, cover, z box, t) -> preperiodic points

    def warm_up(self):
        for family, den, t_size, z_size in self.BOXES:
            self._op(family, den, t_size, z_size, Fraction(1)).call(self.hf)

    def _op(self, family, den, t_size, z_size, t):
        cover = None if den is None else self.covers[den]
        return Op("scan", (self.fams[family], math.log(t_size), math.log(z_size)),
                  {"cover": cover, "t_values": [t]},
                  {"family": family, "cover": den, "z_size": z_size, "t": t})

    def rounds(self, seed):
        rng = random.Random(f"scan:{seed}")
        while True:
            ops = []
            for family, den, t_size, z_size in self.BOXES:
                ops.extend(self._op(family, den, t_size, z_size, t)
                           for t in oracle.rationals_in_box(t_size))
            rng.shuffle(ops)
            yield ops

    def check_op(self, op, report, ops, outs):
        facts = op.facts
        t = facts["t"]
        if report.t_examined != 1 or not report.complete:
            return f"t = {t}: examined {report.t_examined}, complete {report.complete}"
        param = t
        if facts["cover"] is not None:
            if report.findings:
                return f"composed cover has findings at t = {t}"
            if report.t_filtered_criterion != (t != 0):
                return f"power criterion filtered {report.t_filtered_criterion} at t = {t}"
            param = 1 / sum(c * t**i for i, c in enumerate(facts["cover"]))
        fmap = self.reference_map(facts["family"], param)
        for f in report.findings:
            if not fmap.replays(f.z, f.preperiod, f.period):
                return f"finding {f} does not replay"
        # brute force over the whole z-box, no pruning; every round scans the
        # same parameters, so each is classified once per run
        key = (facts["family"], facts["cover"], facts["z_size"], t)
        if key not in self._truth:
            self._truth[key] = fmap.preperiodic_in_box(facts["z_size"])
        found = {f.z for f in report.findings}
        if found != self._truth[key]:
            return f"t = {t}: scan found {sorted(found)}, brute force {sorted(self._truth[key])}"
        return None


# ---------------------------------------------------------------------------
# bigparam: denominators with two ten-digit prime factors
# ---------------------------------------------------------------------------


class BigParam(Workload):
    """Per round, each op on its own p q with p, q nine-digit primes: on
    z^2 + t and z^3 + t, certify_point at t = a/(p q) and at t = a p q,
    canonical_height and resultant_bound_check at t = a/(p q); certify_point
    on the two D = 2 families at t = a/(p q); plus certify_point on z^2 + t
    and z^3 + t at t = 1/N for the pseudoprime N, which fails every time."""

    name = "bigparam"
    TRACE_ROUNDS_PER_S = 4.0

    def warm_up(self):
        for fam in self.fams.values():
            self.hf.certify_point(fam, Fraction(1, 77), Fraction(1, 3))

    def rounds(self, seed):
        import sympy

        rng = random.Random(f"bigparam:{seed}")

        def draw():
            """(a, p q, (p, q)) with p, q nine-digit primes and 0 < |a| <= 9."""
            p, q = (int(sympy.nextprime(rng.randrange(10**8, 10**9 - 10**3)))
                    for _ in range(2))
            return rng.choice([n for n in range(-9, 10) if n]), p * q, (p, q)

        def op(fn, family, t, primes, *rest, known_fault=None):
            kwargs = {"tol": 1e-9} if fn == "canonical_height" else {}
            return Op(fn, (self.fams[family], t, *rest), kwargs,
                      {"map": self.reference_map(family, t, primes), "family": family},
                      known_fault)

        def point():
            return rand_fraction(rng, 10, 6)

        while True:
            ops = []
            for family in ("z^2+t", "z^3+t"):
                a, n, primes = draw()
                ops.append(op("certify_point", family, Fraction(a, n), primes, point()))
                # p q in the numerator: no bad place, so the orbit runs until
                # _escape_place factors the coefficients
                a, n, _ = draw()
                ops.append(op("certify_point", family, Fraction(a * n), (), point()))
                a, n, primes = draw()
                ops.append(op("canonical_height", family, Fraction(a, n), primes, point()))
                a, n, primes = draw()
                ops.append(op("resultant_bound_check", family, Fraction(a, n), primes))
            for family in ("z^6-3tz^3+t^2", "z^4+t^2"):
                a, n, primes = draw()
                ops.append(op("certify_point", family, Fraction(a, n), primes, point()))
            for family in ("z^2+t", "z^3+t"):
                ops.append(op("certify_point", family, Fraction(1, PSEUDOPRIME),
                              PSEUDOPRIME_FACTORS, Fraction(1, 3),
                              known_fault="arith.is_prime accepts a strong pseudoprime"))
            yield ops

    def check_op(self, op, out, ops, outs):
        if op.fn == "certify_point":
            return self.check_certificate(op, out)
        if op.fn == "canonical_height":
            return self.check_height(op, out)
        return self._check_resultant(op, out)

    def _check_resultant(self, op, rb):
        t = op.args[1]
        for side in (rb.lhs, rb.rhs):
            for p in side.terms:
                if not is_prime(p):
                    return f"log term at {p}, which is not prime"
        cs = op.facts["map"].cs
        m = 1
        for c in cs:
            m = m * c.denominator // math.gcd(m, c.denominator)
        d = len(cs) - 1
        res = abs(rb.resultant)
        if res != m ** (2 * d):
            return f"|Res| = {res}, expected M^(2d) = {m}^{2 * d}"
        prod = 1
        for p, k in rb.lhs.terms.items():
            if k.denominator != 1 or k < 0:
                return f"log|Res| has coefficient {k} at {p}"
            prod *= p ** int(k)
        if prod != res:
            return "log|Res| does not factor |Res|"
        # rhs = (2 d^2 / e) h(t) + 2 d h(a_D), with a_D = 1: e * rhs = log H(t)^(2 d^2)
        _, e = FAMILIES[op.facts["family"]]
        naive = max(abs(t.numerator), t.denominator)
        prod = 1
        for p, k in rb.rhs.terms.items():
            if (k * e).denominator != 1 or k < 0:
                return f"rhs has coefficient {k} at {p}"
            prod *= p ** int(k * e)
        if prod != naive ** (2 * d * d):
            return "rhs is not (2 d^2 / e) h(t)"
        if rb.ok != (res**e <= naive ** (2 * d * d)):
            return f"ok = {rb.ok} disagrees with |Res|^e <= H(t)^(2d^2)"
        return None


WORKLOADS = {w.name: w for w in (Heights, Certify, Scan, BigParam)}
