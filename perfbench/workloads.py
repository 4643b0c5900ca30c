"""The benchmark's workloads: seeded input generation, ops and exact checks.

Every input is drawn here, from the benchmark's own RNG and word generator,
so a change to the library's random helpers (``cover.random_sl2_word`` and
friends) cannot change a workload.  The library only receives the generated
inputs, always through attribute lookups on the imported modules, so the
traced run sees every call.

A task is one timed unit of work.  It yields `size` ops: one functional-
equation case, one gamma coefficient, or one group identity.  `run` is timed
and includes the canonical serialization a CLI user would pay for; `check`
is not timed and returns the failure messages of its exact checks.  Each
record is also hashed (see `digest`) and compared with `digests.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0


@dataclass
class Task:
    key: str                       # canonical description of the inputs
    size: int                      # ops this task yields
    run: Callable[[], object]      # timed; returns the output record
    check: Callable[[object], list]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:24]


def _exact_poly(cli, poly) -> dict:
    """The CLI's ``poly_to_json`` shape without its advisory float fields, so
    a digest pins exact values only."""
    data = cli.poly_to_json(poly)
    for term in data["terms"]:
        del term["value_float_re"], term["value_float_im"]
    return data


def _mu_key(mu) -> str:
    return json.dumps(mu.spec_record(), sort_keys=True)


def _rng(name: str, seed: int) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


# -- fe_matrix ---------------------------------------------------------------------

# Why: mirrors the acceptance FE matrix and the CLI's ``check-fe``, the main
# thing users run.  Characters of conductor <= 1 keep Bessel/gamma work a
# small share, so the time goes to ``repn.act`` -> ``cover`` and the
# unmemoized wide ``zeta_function`` window scans.
class FEMatrix:
    name = "fe_matrix"
    block = 8             # both data, every vector shape twice
    rss_after_tasks = 8

    def __init__(self, lib, seed: int):
        self.M, self.cli = lib["metaplectic"], lib["cli"]
        M = self.M
        self.ctx = M.PadicContext(3)
        self.reps = {w: M.Representation(M.builtin_sigma_p3(self.ctx, w)) for w in (1, 2)}
        self.rng = _rng(self.name, seed)
        self.fixed_chars = [
            M.MultChar.trivial(self.ctx),
            M.MultChar(self.ctx, 1, Fraction(0), 1),   # quadratic: parity makes it vacuous
            M.MultChar(self.ctx, 0, Fraction(1, 4), 0),  # unramified, mu(3) = e(1/4)
        ]
        self.fixed_vectors = [
            ((Fraction(0), 0, Fraction(1)),),
            ((Fraction(1, 3), 0, Fraction(1)),),
            ((Fraction(0), 1, Fraction(1)),),
        ]

    def char_family(self):
        """Conductor <= 1 characters the seed draws from: unramified twists and
        the quadratic conductor-1 character, with mu(3) = e(a/4), minus the
        fixed ones, so that every run computes the same number of gammas."""
        M, ctx = self.M, self.ctx
        fixed = {_mu_key(mu) for mu in self.fixed_chars}
        family = [M.MultChar(ctx, m, Fraction(a, 4), m) for m in (0, 1) for a in range(4)]
        return [mu for mu in family if _mu_key(mu) not in fixed]

    def draw_vector(self):
        """Three terms phi(t, n) with t in (1/9)Z/Z: one t of denominator
        dividing 3 and two of exact denominator 9, n a permutation of
        (-1, 0, 1), small rational coefficients.  The fixed shape keeps the
        cost of a drawn case steady from seed to seed."""
        rng = self.rng
        ninths = [Fraction(k, 9) for k in range(9) if k % 3]
        ts = [Fraction(rng.randrange(3), 3), rng.choice(ninths), rng.choice(ninths)]
        ns = [-1, 0, 1]
        rng.shuffle(ns)
        return tuple((t, n, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
                     for t, n in zip(ts, ns))

    def tasks(self):
        family = self.char_family()
        while True:
            chars = self.fixed_chars + [self.rng.choice(family)]
            # Vectors cycle fastest and characters shift by one each block of
            # eight, so every prefix of a run holds an even mix of cases.
            for i in range(32):
                vec, which, char = i % 4, (1, 2)[(i // 4) % 2], (i % 4 + i // 8) % 4
                spec = self.draw_vector() if vec == 3 else self.fixed_vectors[vec]
                yield self.case(which, chars[char], spec)

    def case(self, which: int, mu, spec, corrupt: bool = False) -> Task:
        M, cli = self.M, self.cli
        rep = self.reps[which]
        xi = rep.spectrum().dedup[0].xi
        name = " + ".join(f"{c}*phi(t={t}, n={n}, b=0)" for t, n, c in spec)
        key = f"fe|builtin{which}|mu={_mu_key(mu)}|v={name}|xi={xi}"

        def run():
            v = M.InducedVector.zero(self.ctx.q)
            for t, n, c in spec:
                v = v + rep.phi(t=t, n=n, coeff=c)
            corrupt_gamma = M.CycValue.one(self.ctx.q) if corrupt else None
            fe = M.check_fe(rep, mu, v, xi, corrupt_gamma=corrupt_gamma)
            return {"xi": str(fe.xi), "mu": fe.mu_record, "vector": name,
                    "lhs": _exact_poly(cli, fe.lhs), "rhs": _exact_poly(cli, fe.rhs),
                    "residual": _exact_poly(cli, fe.residual), "pass": fe.passed,
                    "vacuous_parity": fe.vacuous_parity}

        def check(record):
            errors = []
            if record["residual"]["terms"] or not record["pass"]:
                errors.append(f"{key}: nonzero functional-equation residual")
            if record["vacuous_parity"] and (record["lhs"]["terms"] or record["rhs"]["terms"]):
                errors.append(f"{key}: parity predicts vanishing but a side is nonzero")
            return errors

        return Task(key, 1, run, check)

    def probes(self):
        return []

    def negative_control(self) -> Task:
        """A case with a deliberately corrupted gamma factor; its check must fail."""
        return self.case(1, self.fixed_chars[0], self.fixed_vectors[0], corrupt=True)

    def record_tasks(self):
        """Every case the digest table pins: the fixed vectors against every
        character the seed can draw, for both data."""
        for which in (1, 2):
            for mu in self.fixed_chars + self.char_family():
                for spec in self.fixed_vectors:
                    yield self.case(which, mu, spec)
        tasks = self.tasks()
        for _ in range(48):
            yield next(tasks)


# -- gamma_deep ----------------------------------------------------------------------

# Why: stresses the memoized deep-shell path in ``zeta`` -- the BesselTable
# fill, ``bessel_closed`` and the two-method cross-check -- and ``CycValue``
# arithmetic over Q(zeta_27).  ``repn.act`` is only ~15 % and there are almost
# no zeta-window scans.  This is where a Gauss-sum gamma or a Fraction-free
# CycValue should show.
class GammaDeep:
    name = "gamma_deep"
    block = 1
    rss_after_tasks = 2

    def __init__(self, lib, seed: int):
        self.M, self.cli = lib["metaplectic"], lib["cli"]
        M = self.M
        self.ctx = M.PadicContext(3)
        self.sigmas = {w: M.builtin_sigma_p3(self.ctx, w) for w in (1, 2)}
        # the first two rounds' representations are built here, as set-up
        self.ready = [M.Representation(self.sigmas[w]) for w in (1, 2)]
        self.rng = _rng(self.name, seed)
        self.first_mu = None

    def char_family(self):
        """Characters of exact conductor 2 at p = 3: the generator of (Z/9)^x
        maps to e(k/6) with 3 not dividing k, and mu(3) = e(a/4)."""
        M, ctx = self.M, self.ctx
        return [M.MultChar(ctx, 2, Fraction(a, 4), k) for k in (1, 2, 4, 5) for a in range(4)]

    def tasks(self):
        family = self.char_family()
        round_no = 0
        while True:
            which = (1, 2)[round_no % 2]
            # a fresh Representation has cold Bessel and gamma caches, as in a
            # new CLI process; building it is not part of the timed op
            rep = self.ready.pop(0) if self.ready else self.M.Representation(self.sigmas[which])
            mu = self.rng.choice(family)
            if self.first_mu is None:
                self.first_mu = mu
            yield self.gamma(which, rep, mu)
            round_no += 1

    def gamma(self, which: int, rep, mu) -> Task:
        M, cli = self.M, self.cli
        xi = rep.spectrum().dedup[0].xi
        bound = 2 * max(rep.level, mu.m) - rep.level
        key = f"gamma|builtin{which}|mu={_mu_key(mu)}|xi={xi}"

        def run():
            gf = M.gamma_factor(rep, xi, xi, mu)
            return {"xi": str(gf.xi), "eta": str(gf.eta), "mu": mu.spec_record(),
                    "support_bound": gf.support_bound, "poly": _exact_poly(cli, gf.poly),
                    "coefficients": {str(n): cli.cyc_to_json(c)
                                     for n, c in sorted(gf.coefficients.items())}}

        def check(record):
            errors = []
            if record["support_bound"] != bound or len(record["coefficients"]) != bound + 1:
                errors.append(f"{key}: expected coefficients 0..{bound}")
            return errors

        return Task(key, bound + 1, run, check)

    def probes(self, mu=None):
        """The 4/3 anchor (builtin 1, trivial mu, cold) and gamma(-1) = 0 for
        the run's first drawn character on the same representation."""
        M, cli, ctx = self.M, self.cli, self.ctx
        rep = M.Representation(self.sigmas[1])
        xi = rep.spectrum().dedup[0].xi
        anchor_key = f"gamma-anchor|builtin1|xi={xi}"

        def anchor():
            gf = M.gamma_factor(rep, xi, xi, M.MultChar.trivial(ctx))
            return {"poly": _exact_poly(cli, gf.poly)}

        def anchor_check(record):
            want = _exact_poly(cli, M.LaurentPoly.constant(ctx.q, M.Q_POS_S, Fraction(4, 3)))
            return [] if record["poly"] == want else [f"{anchor_key}: gamma is not 4/3"]

        mu = mu or self.first_mu or self.char_family()[0]
        below_key = f"gamma-below-support|builtin1|mu={_mu_key(mu)}|n=-1"

        def below():
            return {"value": cli.cyc_to_json(M.gamma_coefficient(rep, xi, xi, mu, -1))}

        def below_check(record):
            return [] if not record["value"]["terms"] else [f"{below_key}: gamma(-1) != 0"]

        return [Task(anchor_key, 1, anchor, anchor_check),
                Task(below_key, 1, below, below_check)]

    def negative_control(self):
        return None

    def record_tasks(self):
        for which in (1, 2):
            rep = self.M.Representation(self.sigmas[which])
            for mu in self.char_family():
                yield self.gamma(which, rep, mu)
        for mu in self.char_family():
            yield from self.probes(mu)


# -- group_suites --------------------------------------------------------------------

# Why: the identities ``check-invariants`` and the mandatory Kubota gate run,
# at p = 3 and 5.  Almost all of the time is ``cover`` and ``localchar`` over
# Fraction with ~0 % CycValue, so a change to ``exactnum`` should predict no
# change here and a change to ``cover`` shows most clearly here.
class GroupSuites:
    name = "group_suites"
    block = 8             # every identity at both primes
    rss_after_tasks = 4000
    KINDS = ("cocycle", "splitting", "coset", "hilbert")

    def __init__(self, lib, seed: int):
        self.M, self.cover = lib["metaplectic"], lib["cover"]
        M = self.M
        self.ctxs = {p: M.PadicContext(p) for p in (3, 5)}
        for p, ctx in self.ctxs.items():
            M.validate_kubota_splitting(ctx, _rng(f"{self.name}:gate{p}", seed), trials=128)
        self.rng = _rng(self.name, seed)

    # the benchmark's own word generator; specs are plain tuples so that the
    # task key is a canonical description of the input
    def _unit(self, p: int) -> int:
        u = self.rng.randrange(1, p * p)
        while u % p == 0:
            u = self.rng.randrange(1, p * p)
        return u

    def draw_word(self, p: int, length: int):
        rng, out = self.rng, []
        for _ in range(length):
            kind = rng.randrange(3)
            if kind == 0:
                out.append(("n", Fraction(rng.randrange(-2 * p * p, 2 * p * p + 1),
                                          p ** rng.randrange(0, 3))))
            elif kind == 1:
                out.append(("a", Fraction(self._unit(p)) * Fraction(p) ** rng.randrange(-2, 3)))
            else:
                out.append(("w",))
        return tuple(out), rng.choice((1, -1))

    def draw_integral(self, p: int, length: int = 4):
        rng, out = self.rng, []
        for _ in range(length):
            kind = rng.randrange(3)
            if kind == 0:
                out.append(("n", Fraction(rng.randrange(-3 * p, 3 * p + 1))))
            elif kind == 1:
                out.append(("nl", Fraction(rng.randrange(-3 * p, 3 * p + 1))))
            else:
                out.append(("a", Fraction(self._unit(p))))
        return tuple(out)

    def draw_nonzero(self, p: int) -> Fraction:
        return (Fraction(self._unit(p)) * Fraction(p) ** self.rng.randrange(-2, 3)
                * self.rng.choice((1, -1)))

    def build_meta(self, ctx, word):
        Meta = self.M.MetaElement
        specs, eps = word
        x = Meta.central(ctx, eps)
        for spec in specs:
            if spec[0] == "n":
                x = x * Meta.n(ctx, spec[1])
            elif spec[0] == "a":
                x = x * Meta.torus(ctx, spec[1])
            else:
                x = x * Meta.w(ctx)
        return x

    def build_integral(self, ctx, specs):
        SL2 = self.M.SL2Element
        g = SL2.identity(ctx)
        for kind, value in specs:
            make = {"n": SL2.n, "nl": SL2.n_lower, "a": SL2.torus}[kind]
            g = g * make(ctx, value)
        return g

    def tasks(self):
        while True:
            for p in (3, 5):
                for kind in self.KINDS:
                    yield self.identity(kind, p)

    def identity(self, kind: str, p: int) -> Task:
        M, ctx = self.M, self.ctxs[p]
        if kind == "cocycle":
            words = [self.draw_word(p, 4) for _ in range(3)]

            def run():
                g, h, k = (self.build_meta(ctx, w).g for w in words)
                values = [M.cocycle(g, h), M.cocycle(g * h, k), M.cocycle(h, k), M.cocycle(g, h * k)]
                return {"values": values}

            def check(record):
                a, b, c, d = record["values"]
                return [] if a * b == c * d else [f"2-cocycle identity fails at {words}"]

            inputs = words
        elif kind == "splitting":
            pair = [self.draw_integral(p) for _ in range(2)]

            def run():
                g, h = (self.build_integral(ctx, s) for s in pair)
                return {"values": [M.kubota_split(g), M.kubota_split(h), M.cocycle(g, h),
                                   M.kubota_split(g * h)]}

            def check(record):
                sg, sh, c, sgh = record["values"]
                return [] if sg * sh * c == sgh else [f"splitting property fails at {pair}"]

            inputs = pair
        elif kind == "coset":
            word = self.draw_word(p, 5)

            def run():
                m = self.build_meta(ctx, word)
                h_meta, dec = self.cover.decompose_meta(m)
                back = h_meta * dec.rep_meta()
                return {"h": [str(e) for e in dec.h.entries()], "t": str(dec.t), "n": dec.n,
                        "eps": h_meta.eps, "integral": dec.h.is_integral(),
                        "round_trip": back.g.entries() == m.g.entries() and back.eps == m.eps}

            def check(record):
                ok = record["integral"] and record["round_trip"]
                return [] if ok else [f"coset round trip fails at {word}"]

            inputs = word
        else:
            a, b = self.draw_nonzero(p), self.draw_nonzero(p)

            def run():
                ka, kb = ctx.elem(a), ctx.elem(b)
                return {"values": [M.hilbert_symbol(ka, kb), M.hilbert_symbol_oracle(ka, kb)]}

            def check(record):
                closed, oracle = record["values"]
                return [] if closed == oracle else [f"Hilbert formula disagrees with oracle at {a}, {b}"]

            inputs = (a, b)
        return Task(f"{kind}|p={p}|{inputs}", 1, run, check)

    def probes(self):
        return []

    def negative_control(self):
        return None

    def record_tasks(self):
        tasks = self.tasks()
        for _ in range(1000):
            yield next(tasks)


WORKLOADS = {w.name: w for w in (FEMatrix, GammaDeep, GroupSuites)}
