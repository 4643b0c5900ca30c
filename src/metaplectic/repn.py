"""Strongly cuspidal data on SL(2, Z/p^l) and the compact-induction model.

A ``SigmaRep`` is a full finite representation table on SL(2, Z/p^l).  Its
genuine extension to the preimage of SL(2, Z_p) in the cover is
eps * s(h) * table(h mod p^l) with s the validated Kubota splitting.  The
induced model keeps vectors as finitely supported coefficient maps over the
representative system {n(t) diag(p^n, p^-n)} in the eigencoordinates of the
upper-unipotent action, which makes the Whittaker functionals diagonal.
"""

from __future__ import annotations

import itertools
import random
import types
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    CycValue,
    PadicContext,
    ShellPoint,
    exact_int,
    frac_mod,
    p_fractional_part,
    p_split,
    ratio_torus_coordinates,
    torus_coordinates,
    valuation_unit,
)
from .localchar import (AdditiveCharacter, _smallest_nonresidue, hilbert_int, legendre_int,
                         square_class_int)
from .cover import (
    MetaElement,
    SL2Element,
    _coset_rep,
    decompose_meta,
    kubota_split,
    validate_kubota_splitting,
)

Matrix = tuple  # tuple of row tuples of CycValue

# -- small exact matrix helpers ---------------------------------------------

def mat_identity(q: int, d: int) -> Matrix:
    return tuple(tuple(CycValue.one(q) if i == j else CycValue.zero(q) for j in range(d))
                 for i in range(d))

def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    d = len(A)
    return tuple(tuple(CycValue.sum([A[i][k] * B[k][j] for k in range(d)])
                       for j in range(d)) for i in range(d))

def mat_sum(mats, q: int) -> Matrix:
    """The entrywise sum of a nonempty list of square matrices."""
    d = len(mats[0])
    return tuple(tuple(CycValue.sum([m[i][j] for m in mats], q) for j in range(d))
                 for i in range(d))

def mat_scale(A: Matrix, c) -> Matrix:
    return tuple(tuple(a * c for a in row) for row in A)

def mat_is_zero(A: Matrix) -> bool:
    return all(a.is_zero() for row in A for a in row)


# -- sigma tables ------------------------------------------------------------

def _key_mul(k1, k2, modulus: int):
    a1, b1, c1, d1 = k1
    a2, b2, c2, d2 = k2
    return ((a1 * a2 + b1 * c2) % modulus, (a1 * b2 + b1 * d2) % modulus,
            (c1 * a2 + d1 * c2) % modulus, (c1 * b2 + d1 * d2) % modulus)


def sl2_group_order(p: int, level: int) -> int:
    # |SL2(Z/p^l)| = p^(3l) * (1 - p^-2)
    return p ** (3 * level) * (p * p - 1) // (p * p)


class SigmaValidationError(ValueError):
    pass


class SigmaRep:
    """A strongly cuspidal representation table on SL(2, Z/p^l) of conductor
    exactly l with multiplicity one, valid by construction.  Only the images
    of the generators n(1) and w are read from `table`; ``__init__`` closes
    them over SL(2, Z/p^l) and checks every other entry given against the
    closure, then ``_diagonalize`` decides strong cuspidality, conductor and
    multiplicity one from the upper-unipotent action.  Valid does not mean
    irreducible: a reducible table with distinct unipotent characters
    passes.  ``eigen_table`` is the table in the basis of the columns of
    ``change``, where n(a) acts on line b by psi(betas[b] a), with the
    inverse of ``change`` read off the rank-one projections; it and
    ``table`` are read-only, so no reader needs to check them again."""

    def __init__(self, ctx: PadicContext, level: int, dim: int, table: dict):
        """Breadth-first closure from the identity: each edge k -> k g, g in
        {n(1), w}, costs one product, which either sets the new key k g or
        must equal the value already there.  If every edge agrees, the
        closure is a homomorphism on the group n(1) and w generate, which is
        SL(2, Z/p^l): by induction on word length, closed[k h] =
        closed[k] closed[h] for every pair (k, h)."""
        self.ctx = ctx
        self.level = level
        self.dim = dim
        self.modulus = m = ctx.p**level
        generators = []
        for gkey in (self.n_key(1), (0, m - 1, 1, 0)):
            if gkey not in table:
                raise SigmaValidationError(f"table has no entry at the generator {gkey}")
            generators.append((gkey, table[gkey]))
        ident = (1, 0, 0, 1)
        closed = {ident: mat_identity(ctx.q, dim)}
        frontier = [ident]
        while frontier:
            new = []
            for key in frontier:
                for gkey, gval in generators:
                    nk = _key_mul(key, gkey, m)
                    prod = mat_mul(closed[key], gval)
                    prev = closed.get(nk)
                    if prev is None:
                        closed[nk] = prod
                        new.append(nk)
                    elif prev != prod:
                        raise SigmaValidationError(
                            f"table is not multiplicative at {key} * {gkey}")
            frontier = new
        for key, mat in table.items():
            if closed.get(key) != mat:
                raise SigmaValidationError(
                    f"table is not multiplicative: the entry at {key} differs from "
                    "the closure of the generator images")
        self.table = types.MappingProxyType(closed)
        self._diagonalize()

    def n_key(self, x: int):
        return (1, x % self.modulus, 0, 1)

    def _diagonalize(self) -> None:
        """Set ``betas``, ``change`` and ``eigen_table``.  The projections
        P_beta = p^-l sum_x psi(-beta x) sigma(n(x)) of a homomorphism are
        orthogonal idempotents that sum to I, so their ranks sum to `dim`: if
        `dim` of them are nonzero, each has rank one, and fewer means a
        character repeats.  n(p^(l-1)) acts on the line of beta by
        psi(beta p^(l-1)), so the sum over c of sigma(n(c p^(l-1))) is zero,
        which is strong cuspidality, exactly when every beta has the
        denominator p^l.  Then n(p^(l-1)), which is 1 mod p^(l-1), acts
        nontrivially, so the conductor is exactly l.

        A rank-one P_beta is v_beta w_beta^T, and P_beta P_gamma =
        [beta = gamma] P_beta gives w_beta^T v_gamma = [beta = gamma]: the
        rows w_beta are the inverse of ``change``, whose columns are the
        v_beta = P_beta[:, col].  Row r0 of P_beta is v_beta[r0] w_beta^T, so
        w_beta = P_beta[r0, :] / v_beta[r0] wherever v_beta[r0] != 0."""
        q, d, pl = self.ctx.q, self.dim, self.modulus
        psi = AdditiveCharacter(self.ctx)
        betas, vectors, duals = [], [], []
        for j in range(pl):
            beta = Fraction(j, pl)
            proj = mat_sum([mat_scale(self.table[self.n_key(x)], psi.value(-beta * x))
                            for x in range(pl)], q)
            if mat_is_zero(proj):
                continue
            if beta.denominator != pl:
                raise SigmaValidationError(
                    f"strong cuspidality fails: the unipotent character {beta} has "
                    f"denominator {beta.denominator}, not p^{self.level}, so n(p^(l-1)) "
                    f"fixes a line: sigma is not strongly cuspidal of conductor {self.level}")
            col, r0 = next((c, r) for c in range(d) for r in range(d) if not proj[r][c].is_zero())
            betas.append(beta)
            vectors.append(tuple(proj[r][col] * Fraction(1, pl) for r in range(d)))
            # proj is p^l P_beta, and the p^l cancels in the dual row
            pivot = proj[r0][col].inverse()
            duals.append(tuple(x * pivot for x in proj[r0]))
        if len(betas) != d:
            raise SigmaValidationError(
                f"{len(betas)} unipotent characters for dimension {d}: one repeats")
        self.betas = tuple(betas)
        self.change = tuple(tuple(vectors[j][i] for j in range(d)) for i in range(d))
        self.eigen_table = types.MappingProxyType(
            {key: mat_mul(duals, mat_mul(mat, self.change)) for key, mat in self.table.items()})


def weil_sigma(ctx: PadicContext, a: int) -> SigmaRep:
    """The odd Weil representation of SL(2, Z/p) attached to the unit a
    (Gerardin, J. Algebra 46, 1977): level 1 and dimension (p - 1)/2, on
    the odd functions delta_t - delta_-t for t = 1..(p - 1)/2, with

        n(1) -> diag(e(a t^2/p)),
        w -> c (e(2 a s t/p) - e(-2 a s t/p)) at (s, t),

    c = -((-a)/p) g_p/p and g_p = sum over x of (x/p) e(x/p), which is
    sqrt(p) (``CycValue.sqrtq``) times e(1/4) when p = 3 mod 4.  The table
    is the closure of these two generators, validated by ``SigmaRep``; its
    betas are the [a t^2/p]."""
    p, q = ctx.p, ctx.q
    if a % p == 0:
        raise ValueError(f"a = {a} is not a unit mod {p}")
    dim = (p - 1) // 2
    half = range(1, dim + 1)
    gauss = CycValue.sqrtq(q) * (CycValue.root_of_unity_int(q, 1, 4) if p % 4 == 3 else 1)
    c = gauss * Fraction(-legendre_int(p, -a), p)
    generators = {
        (1, 1, 0, 1): tuple(tuple(CycValue.root_of_unity_int(q, a * t * t, p) if s == t
                                  else CycValue.zero(q) for t in half) for s in half),
        (0, p - 1, 1, 0): tuple(tuple(c * (CycValue.root_of_unity_int(q, 2 * a * s * t, p)
                                           - CycValue.root_of_unity_int(q, -2 * a * s * t, p))
                                      for t in half) for s in half),
    }
    return SigmaRep(ctx, 1, dim, generators)


def norm_sigma(ctx, k: int) -> SigmaRep:
    """The cuspidal representation of SL(2, Z/p) from the norm form of
    E = F_p(sqrt(eps)), eps the smallest nonresidue (Piatetski-Shapiro,
    Complex Representations of GL(2, K) for Finite Fields K, 1983): level 1
    and dimension p - 1.

    U = {N = 1} is cyclic of order p + 1; g is its first element of order
    p + 1 in the scan x0, then x1, and theta(g^j) = e(k j/(p + 1)).  The
    basis is a = 1..p - 1, x_a the first element of norm a in the same scan,
    and with tr(x ybar) = 2(x0 y0 - eps x1 y1):

        n(1) -> diag(e(a/p)),
        w -> M[a'][a] = -(1/p) sum over N(y) = a of e(-tr(x_a' ybar)/p) theta(y/x_a).

    So the betas are the a/p, which fall in both square classes.  theta^2 = 1
    (2k = 0 mod p + 1) gives a reducible table with distinct betas, which
    ``SigmaRep`` would accept, so it raises ``ValueError`` here."""
    p, q = ctx.p, ctx.q
    if 2 * k % (p + 1) == 0:
        raise ValueError(f"theta^2 = 1 for k = {k} at p = {p}: the table is reducible")
    eps = _smallest_nonresidue(p)
    scan = [(x0, x1) for x0 in range(p) for x1 in range(p) if (x0, x1) != (0, 0)]

    def norm(x):
        return (x[0] * x[0] - eps * x[1] * x[1]) % p

    def mul(x, y):
        return ((x[0] * y[0] + eps * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def powers(x):
        out = [(1, 0)]
        while mul(out[-1], x) != (1, 0):
            out.append(mul(out[-1], x))
        return out

    g = next(x for x in scan if norm(x) == 1 and len(powers(x)) == p + 1)
    log = {z: j for j, z in enumerate(powers(g))}
    first = {}
    for x in scan:
        first.setdefault(norm(x), x)

    def theta_of_quotient(y, x):
        n_inv = pow(norm(x), -1, p)
        z = mul(y, (x[0] * n_inv % p, -x[1] * n_inv % p))
        return CycValue.root_of_unity_int(q, k * log[z], p + 1)

    basis = range(1, p)
    w = tuple(tuple(
        CycValue.sum([CycValue.root_of_unity_int(
            q, -2 * (first[a2][0] * y[0] - eps * first[a2][1] * y[1]), p)
            * theta_of_quotient(y, first[a]) for y in scan if norm(y) == a], q)
        * Fraction(-1, p) for a in basis) for a2 in basis)
    generators = {
        (1, 1, 0, 1): tuple(tuple(CycValue.root_of_unity_int(q, a, p) if a == a2
                                  else CycValue.zero(q) for a in basis) for a2 in basis),
        (0, p - 1, 1, 0): w,
    }
    return SigmaRep(ctx, 1, p - 1, generators)


def elliptic_sigma(ctx, k: int) -> SigmaRep:
    """The regular elliptic representation of SL(2, Z/9) of the unramified
    torus (Shalika, Representations of the two by two unimodular group over
    local fields, thesis, 1966): level 2 and dimension 6, the datum on which
    the level-dependent formulas see l = 2.

    The keys are the 648 tuples (a, b, c, d) with ad - bc = 1 mod 9, scanned
    in lexicographic order, and eps = 2.  K1 = {g = I + 3X} is abelian with
    the character psi_beta(g) = e((X21 + eps X12)/3), and its centralizer
    T = {(x, y, eps y, x) : x^2 - eps y^2 = 1 mod 9} is cyclic of order 12.
    g0 is the first element of T of order 12 in the scan, and
    theta(g0^j) = e(k j/12).  theta and psi_beta agree on T n K1 = <g0^4>
    iff k = r mod 3 for psi_beta(g0^4) = e(r/3) (k = 1, 4, 7, 10 mod 12);
    any other k raises ``ValueError``.  Then

        chi(h) = theta(t) psi_beta(t^-1 h),  t in T with t = h mod 3,

    is a character of H = T K1, of order 108, and h lies in H iff h mod 3
    lies in T mod 3.  With r_1..r_6 the first fits of the scan as
    representatives of G/H,

        sigma(g)[i][j] = chi(r_i^-1 g r_j) if that lies in H, and 0 otherwise.

    Only the images of n(1) and w go to ``SigmaRep``, which closes them.  The
    betas are the j/9 with 3 not dividing j, in the square classes of 1/9
    and 2/9; omega_pi(-1) is -1 for k = 1, 7 and +1 for k = 4, 10."""
    if ctx.p != 3:
        raise ValueError("the elliptic datum of level 2 requires p = 3")
    q, eps, mod, ident = ctx.q, 2, 9, (1, 0, 0, 1)
    keys = [g for g in itertools.product(range(mod), repeat=4)
            if (g[0] * g[3] - g[1] * g[2]) % mod == 1]

    def inverse(g):
        a, b, c, d = g
        return (d, -b % mod, -c % mod, a)

    def psi_exponent(g):
        # psi_beta(g) = e(psi_exponent(g)/3) for g = I + 3X in K1
        return (g[2] // 3 + eps * (g[1] // 3)) % 3

    def powers(x):
        out = [ident]
        while _key_mul(out[-1], x, mod) != ident:
            out.append(_key_mul(out[-1], x, mod))
        return out

    torus = [g for g in keys if g[3] == g[0] and g[2] == eps * g[1] % mod]
    cycle = powers(next(t for t in torus if len(powers(t)) == 12))
    if (k - psi_exponent(cycle[4])) % 3:
        raise ValueError(f"theta and psi_beta disagree on T n K1 for k = {k}")
    log = {t: j for j, t in enumerate(cycle)}
    lift = {tuple(x % 3 for x in t): t for t in torus}

    def chi(h):
        """chi(h) = e(chi(h)/36), or None outside H."""
        t = lift.get(tuple(x % 3 for x in h))
        if t is None:
            return None
        return 3 * k * log[t] + 12 * psi_exponent(_key_mul(inverse(t), h, mod))

    reps = []
    for g in keys:
        if all(chi(_key_mul(inverse(r), g, mod)) is None for r in reps):
            reps.append(g)

    def image(g):
        cells = [[chi(_key_mul(_key_mul(inverse(ri), g, mod), rj, mod)) for rj in reps]
                 for ri in reps]
        return tuple(tuple(CycValue.zero(q) if e is None else CycValue.root_of_unity_int(q, e, 36)
                           for e in row) for row in cells)

    return SigmaRep(ctx, 2, len(reps), {g: image(g) for g in ((1, 1, 0, 1), (0, 8, 1, 0))})


# name -> (p, builder, argument): the data the command line, CI and the test
# fixtures read by name, each built by ``named_sigma``
SIGMA_NAMES = types.MappingProxyType({
    "builtin1": (3, weil_sigma, 1),
    "builtin2": (3, weil_sigma, 2),
    "weil5": (5, weil_sigma, 1),
    "weil7": (7, weil_sigma, 1),
    "norm3": (3, norm_sigma, 1),
    "norm5": (5, norm_sigma, 1),
    "elliptic9": (3, elliptic_sigma, 1),
})


def named_sigma(name: str) -> SigmaRep:
    """The datum `name` of ``SIGMA_NAMES``, over the context of its own p."""
    p, build, argument = SIGMA_NAMES[name]
    return build(PadicContext(p), argument)


def builtin_sigma_p3(ctx: PadicContext, which: int) -> SigmaRep:
    """The two one-dimensional strongly cuspidal representations of
    SL(2, Z/3), the odd Weil data ``weil_sigma(ctx, which)`` named
    builtin1 and builtin2: n(a) -> e(which * a / 3) and w -> 1.  Only
    exists for p = 3 (SL(2, F_p) is perfect for p > 3)."""
    if ctx.p != 3:
        raise ValueError("the builtin one-dimensional data requires p = 3")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return weil_sigma(ctx, which)


def sigma_from_dict(data: dict) -> SigmaRep:
    """Load a sigma table from its file format:

        {"p": int, "l": int, "dim": int,
         "entries": [{"matrix": [[a, b], [c, d]],
                      "rep": d x d matrix, each entry a list of terms
                             [[exp_num, exp_den], [coeff_num, coeff_den]]
                      meaning sum coeff * e(2 pi i exp)}]}

    The loader checks each entry's determinant and shape, and that the file
    has one entry per element of SL(2, Z/p^l); ``SigmaRep``, which reads
    only the generator entries, then checks every entry against the closure
    of the generators, and strong cuspidality of conductor l and
    multiplicity one through the unipotent characters.  The table's p must
    be an odd prime (``PadicContext``); the table is built over it.  p, l
    and dim go through ``exact_int``, so 1.9 or "1" raises ValueError
    instead of being truncated or parsed."""
    ctx = PadicContext(data["p"])
    level = exact_int(data["l"], "l")
    dim = exact_int(data["dim"], "dim")
    modulus = ctx.p**level
    table = {}
    for entry in data["entries"]:
        (a, b), (c, d) = entry["matrix"]
        key = (a % modulus, b % modulus, c % modulus, d % modulus)
        if (a * d - b * c) % modulus != 1:
            raise SigmaValidationError(f"entry {key} does not have determinant 1 mod p^l")
        rep = entry["rep"]
        if len(rep) != dim or any(len(row) != dim for row in rep):
            raise SigmaValidationError(f"entry {key} has a rep block of wrong shape")
        table[key] = tuple(tuple(
            CycValue.sum([CycValue.root_of_unity(ctx.q, Fraction(en, ed)) * Fraction(cn, cd)
                          for (en, ed), (cn, cd) in cell], ctx.q)
            for cell in row) for row in rep)
    order = sl2_group_order(ctx.p, level)
    if len(table) != order:
        raise SigmaValidationError(f"table has {len(table)} entries, expected {order}")
    return SigmaRep(ctx, level, dim, table)


def sigma_to_dict(sigma: SigmaRep) -> dict:
    """Serialize a sigma table to the file format accepted by
    ``sigma_from_dict``."""
    entries = []
    for (a, b, c, d), mat in sorted(sigma.table.items()):
        rep = [[[[[expo.numerator, expo.denominator], [coeff.numerator, coeff.denominator]]
                 for coeff, expo in cell.terms()]
                for cell in row]
               for row in mat]
        entries.append({"matrix": [[a, b], [c, d]], "rep": rep})
    return {"p": sigma.ctx.p, "l": sigma.level, "dim": sigma.dim, "entries": entries}


# -- induced vectors ----------------------------------------------------------

def _accumulate(out: dict, r: int, j: int, n: int, b: int, coeff: CycValue,
                mat: Matrix) -> None:
    """Add coeff * sum over b2 of mat[b2][b] phi^{n(r/p^j)<p^n>}_{b2} to the
    terms in out; a coefficient that cancels to zero stays, for
    ``InducedVector`` to drop."""
    for b2, row in enumerate(mat):
        c = row[b]
        if c.is_zero():
            continue
        key = (r, j, n, b2)
        prev = out.get(key)
        out[key] = coeff * c if prev is None else prev + coeff * c


def _lowest_terms(r: int, j: int, p: int):
    """(r, j) with r/p^j unchanged and in lowest terms: r prime to p, or
    (0, 0) for zero."""
    while j and not r % p:
        r //= p
        j -= 1
    return r, j


class InducedVector:
    """A finite coefficient expansion sum c[(r, j, n, b)] *
    phi^{n(r/p^j)<p^n>}_b in the compact-induction model, coefficients in
    eigencoordinates.

    A key is four ints (r, j, n, b) with t = r/p^j.  Every vector the model
    builds (``phi``, ``act``, ``w_translate``) keys its terms at the
    canonical representative [t] in lowest terms, 0 <= r < p^j and t = 0 as
    (0, 0), so equal vectors have equal keys; ``Representation.phi`` brings
    any rational t there.  A ``Fraction`` t is built only for ``repr``.

    Vectors form a Q(zeta)-vector space: ``+``, ``-``, scalar ``*`` (by a
    ``CycValue``, an int or a ``Fraction``) and ``sum``, so the shell and
    ball integrals of ``zeta`` accept vector-valued integrands (the Bessel
    kernel of ``zeta.bessel_direct``)."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms=None):
        self.q = q
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    @classmethod
    def _nonzero(cls, q: int, terms: dict) -> "InducedVector":
        """The vector on `terms`, whose coefficients are known to be nonzero:
        no filter pass, and `terms` becomes the vector's own map."""
        self = object.__new__(cls)
        self.q = q
        self.terms = terms
        return self

    @classmethod
    def zero(cls, q: int) -> "InducedVector":
        return cls._nonzero(q, {})

    @classmethod
    def sum(cls, vectors, q: int) -> "InducedVector":
        """The sum of `vectors`: one ``CycValue.sum`` per term key, keys whose
        coefficients cancel to zero dropped."""
        groups: dict = {}
        for v in vectors:
            for key, c in v.terms.items():
                groups.setdefault(key, []).append(c)
        return cls(q, {key: CycValue.sum(cs, q) for key, cs in groups.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def shells(self) -> list:
        """The n of the terms, ascending: the only shells v(x) = n where
        W^xi_v(<x>) can be nonzero.

        <x> moves a term at n to n - v(x) and l^xi reads only n = 0, so
        W^xi_v(<x>) = W^xi_{v_k}(<x>) with v_k the part of v on the terms
        at n = k, for k = v(x), and W^xi_v(<x>) = 0 when k is not in
        shells()."""
        return sorted({key[2] for key in self.terms})

    def __add__(self, other):
        if not isinstance(other, InducedVector):
            return NotImplemented
        return InducedVector.sum((self, other), self.q)

    def __neg__(self) -> "InducedVector":
        return InducedVector._nonzero(self.q, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, InducedVector):
            return NotImplemented
        return self + (-other)

    def scaled(self, c):
        """c * v for a ``CycValue``, int or ``Fraction`` c; NotImplemented for
        anything else, so that ``v * w`` of two vectors raises TypeError."""
        if not isinstance(c, (CycValue, int, Fraction)):
            return NotImplemented
        if c.is_zero() if isinstance(c, CycValue) else c == 0:
            return InducedVector.zero(self.q)
        return InducedVector._nonzero(self.q, {k: v * c for k, v in self.terms.items()})

    __mul__ = __rmul__ = scaled

    def __eq__(self, other):
        return isinstance(other, InducedVector) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        q = self.q
        rows = sorted((((n, Fraction(r, q**j), b), v) for (r, j, n, b), v in self.terms.items()),
                      key=lambda row: row[0])
        return " + ".join(f"({v!r})*phi(t={t}, n={n}, b={b})" for (n, t, b), v in rows)


# -- spectrum ------------------------------------------------------------------

@dataclass(frozen=True)
class XiRepresentative:
    xi: Fraction
    square_class: tuple
    abs_value: Fraction


@dataclass(frozen=True)
class SpectrumXPi:
    reps: tuple            # one per eigenbasis entry
    dedup: tuple           # one per square class, smallest fractional rep


# -- the compactly induced representation --------------------------------------

# the Kubota splitting gate runs on the same samples for every construction
# and depends only on p, so a pass is remembered per p; a failure is not
_SPLITTING_GATE_SEED = 2026
_SPLITTING_GATE_PASSED: set = set()


class Representation:
    """The compactly induced representation attached to a strongly cuspidal
    sigma, with its Whittaker machinery."""

    def __init__(self, sigma: SigmaRep):
        self.sigma = sigma
        self.ctx = sigma.ctx
        self.level = sigma.level
        self.dim = sigma.dim
        self.psi = AdditiveCharacter(self.ctx)
        if self.ctx.p not in _SPLITTING_GATE_PASSED:
            validate_kubota_splitting(self.ctx, random.Random(_SPLITTING_GATE_SEED), trials=128)
            _SPLITTING_GATE_PASSED.add(self.ctx.p)
        self.betas = sigma.betas
        self._beta_index = {beta: b for b, beta in enumerate(self.betas)}
        # sigma in eigencoordinates; a genuine sign is applied where an entry is read
        self._eigen_table = sigma.eigen_table
        self._twists: dict = {}
        reps = []
        p = self.ctx.p
        for beta in self.betas:
            v, u = valuation_unit(beta.numerator, beta.denominator, p, p)
            reps.append(XiRepresentative(beta, square_class_int(p, v, u),
                                         Fraction(self.ctx.q) ** self.level))
        dedup: dict = {}
        for r in sorted(reps, key=lambda r: r.xi):
            dedup.setdefault(r.square_class, r)
        self._spectrum = SpectrumXPi(tuple(reps), tuple(dedup.values()))
        self._gamma_cache: dict = {}
        self._parities: dict = {}  # mu key -> zeta_parity_holds
        self._zeta_terms: dict = {}  # (xi, mu key, term) -> accepted shell integral
        self._bessel_tables: dict = {}
        self._bessel_kernels: dict = {}
        self._w_checked: set = set()
        self._central_sign = None

    # -- basic model ----------------------------------------------------------

    def phi(self, t=Fraction(0), n: int = 0, b: int = 0, coeff=None) -> InducedVector:
        """coeff * phi^{n(t)<p^n>}_b, keyed at the canonical representative:
        n(t)<p^n> = n(s) n([t])<p^n> with s = t - [t] integral, so the vector
        is sum over b2 of sigma(n(-s))[b2][b] phi^{n([t])<p^n>}_{b2}, the
        torus action at x = 1.

        A t = c/(p^j d) whose denominator has a part d prime to p is first
        moved by an element of p^l Z_p to c d^-1/p^j, d^-1 taken modulo
        p^(j + l), which changes neither [t] nor s mod p^l; the torus action
        then reads the int pair (c d^-1, j)."""
        n, b = exact_int(n, "shell exponent n"), exact_int(b, "basis index b")
        if not 0 <= b < self.dim:
            raise ValueError(f"basis index {b} out of range")
        q, p = self.ctx.q, self.ctx.p
        c = CycValue.one(q) if coeff is None else coeff
        if not isinstance(c, CycValue):
            c = CycValue.rational(q, c)
        t = Fraction(t)
        v, _, rest = p_split(1, t.denominator, p)
        j = -v
        r = t.numerator if rest == 1 else t.numerator * pow(rest, -1, p**j * self.sigma.modulus)
        return self._closed_act(self._torus_terms([((r, j, n, b), c)], 0, 1, 1))

    def spectrum(self) -> SpectrumXPi:
        return self._spectrum

    def basis_index_for(self, xi) -> int:
        """The eigenbasis index b with psi^xi agreeing with the b-th character
        on Z_p, i.e. [xi] = beta_b: the one membership check for X(pi), so an
        xi outside it raises ValueError here, before any reader uses it."""
        b = self._beta_index.get(p_fractional_part(xi, self.ctx.p))
        if b is None:
            raise ValueError(f"xi={xi} is not in X(pi)")
        return b

    def genuine_eval(self, x: MetaElement) -> Matrix:
        """The genuine extension of sigma at an integral cover element, in
        eigencoordinates: eps * s(g) * table(g mod p^l)."""
        mat = self._eigen_table[x.g.reduce_mod(self.sigma.modulus)]
        if x.eps * kubota_split(x.g) == 1:
            return mat
        return tuple(tuple(-a for a in row) for row in mat)

    # -- the action -----------------------------------------------------------

    def act(self, g: MetaElement, v: InducedVector) -> InducedVector:
        """pi(g) v; right translation in the induced model.

        Each term phi^{n(t)<p^n>}_b moves to the representative of the coset
        of [n(t)<p^n>, 1] g^-1 = [h, eps] [rep', 1], with coefficient matrix
        the genuine value at [h, eps]^-1.  A diagonal g = [diag(x, 1/x), e]
        and g = [w, e] give that data in closed form (``_torus_terms`` and
        ``_w_terms``); any other g goes through ``decompose_meta``, term by
        term.  Nothing is remembered per g."""
        if g.g.is_diagonal():
            return self._closed_act(self._torus_terms(
                v.terms.items(), *ratio_torus_coordinates(g.g.na, g.g.den, self.ctx.p), g.eps))
        if g.g._key() == (0, -1, 1, 0, 1):  # g = [w, e]
            return self._closed_act(self._w_terms(v.terms.items(), g.eps))
        ctx, p = self.ctx, self.ctx.p
        ginv = g.inverse()
        out: dict = {}
        for (r, j, n, b), coeff in v.terms.items():
            h_meta, dec = decompose_meta(MetaElement(_coset_rep(ctx, r, p**j, n), 1) * ginv)
            _accumulate(out, dec.r, dec.j, dec.n, b, coeff, self.genuine_eval(h_meta.inverse()))
        return InducedVector(ctx.q, out)

    def w_translate(self, b: int, y) -> InducedVector:
        """pi(w n(y)) phi_b = pi(w) phi^{n(-y)}_b in closed form.  The Bessel
        integrand at <x> w n(y) is pi(<x>) applied to this vector, for every x.

        phi^{n(-y)}_b is the single term n(-y)<1>, at t = -y read as an int
        pair: -y modulo p^l when v(y) >= 0 (or y = 0), and -u/p^|k| with u
        modulo p^(|k| + l) when y = p^k u, k < 0 (a ``Fraction`` unit is
        reduced first, as in ``_torus_terms``).  ``_w_terms`` moves it to
        (t = 0, n = 0) in the first case and to (t = u'/p^|k|, n = k), u' =
        u^-1 mod p^|k|, in the second.  So the vector lies on the single
        shell min(v(y), 0) (``InducedVector.shells``), and W^xi(<x> w n(y))
        vanishes unless min(v(y), 0) = v(x): the support ``bessel_direct``
        integrates.

        The closed form is gated against ``act`` at w n(y) once per basis
        index and shell: before its first value there is returned, both
        agree at y and at the smallest non-square unit on the shell (a probe
        at u = 1 sees neither a dropped sign nor a wrong unit).  At y != 0,
        and so always at the probe, w n(y) is neither diagonal nor w, and
        ``act`` takes the ``decompose_meta`` route.  A disagreement raises
        ``ArithmeticError`` and leaves the shell unchecked, so the next call
        there raises again."""
        shell, closed = self._w_closed(b, y)
        if (b, shell) not in self._w_checked:
            probe = ShellPoint(_smallest_nonresidue(self.ctx.p), shell, self.ctx.p)
            for z, value in ((y, closed), (probe, self._w_closed(b, probe)[1])):
                oracle = self.act(MetaElement.w(self.ctx) * MetaElement.n(self.ctx, z),
                                  self.phi(b=b))
                if value != oracle:
                    raise ArithmeticError(
                        f"closed pi(w n(y)) phi_{b} disagrees with act at y={z}")
            self._w_checked.add((b, shell))
        return closed

    def _w_closed(self, b: int, y: Fraction):
        """(shell, pi(w) phi^{n(-y)}_b) from ``_w_terms``, unchecked."""
        p, m = self.ctx.p, self.sigma.modulus
        k, u = torus_coordinates(y, p) if y else (0, 0)
        if k >= 0:
            r, j = -frac_mod(y, m), 0
        else:
            j = -k
            r = -(u % (p**j * m) if type(u) is int else frac_mod(u, p**j * m))
        r, j, n, _, _, key, eps = next(self._w_terms([((r, j, 0, b), None)], 1))
        terms = {}
        for b2, row in enumerate(self._eigen_table[key]):
            c = row[b]
            if not c.is_zero():
                terms[(r, j, n, b2)] = c if eps == 1 else -c
        return n, InducedVector._nonzero(self.ctx.q, terms)

    def _w_terms(self, items, e: int):
        """pi([w, e]) on the terms `items` ((r, j, n, b), coeff) of a vector,
        t = r/p^j for any int r, prime to p when j > 0: yields
        (r', j, -j - n, b, coeff, key, eps) per term as ``_torus_terms``
        does, the term moving to coeff * sum over b2 of
        eps * sigma(key)[b2][b] phi^{n(r'/p^j)<p^(-j-n)>}_{b2}, with
        r' = -r^-1 mod p^j (r' = 0 for j = 0), c = (r r' + 1)/p^j and

            key = (r', -c, p^j, -r) mod p^l,
            eps = e (-1/p)^(j (n + 1)) (r/p)^j,

        that is e for even j and e ((-1)^(n+1) r / p) for odd j.

        With R = n(t)<p^n> = [[p^n, t p^-n], [0, p^-n]] and [w, e]^-1 =
        [w^-1, e] ({w, w^-1} = (1, -1) = +1):

            [R, 1] [w^-1, 1] = [R w^-1, (-1, p^-n)],
            R w^-1 = [[-r p^(-j-n), p^n], [-p^-n, 0]] = h n(r'/p^j)<p^(-j-n)>,
            h = [[-r, c], [-p^j, r']],  h^-1 = [[r', -c], [p^j, -r]].

        For j = 0 the row of -p^-n carries the minimal valuation and
        h = [[-r, 1], [-1, 0]], the same formula at r' = 0, c = 1.  The coset
        cocycle {h, rep'} is (p^(-n-j), -p^(-2n-j)), from chi(R w^-1) = -p^-n,
        chi(h) = -p^j and chi(rep') = p^(j+n); the inverse cocycle
        {h, h^-1} = (-p^-j, p^-j) is +1; and the genuine value at h^-1 carries
        the Kubota sign (p^j, -r) (+1 for j = 0, the lower-left entry being
        1).  The product of the three signs is
        (-1/p)^(n + (n+j)(j+1) + j) (r/p)^j, and n + (n+j)(j+1) + j =
        j (n + j) = j (n + 1) mod 2.  So each term maps to one representative,
        with no cover product and no coset decomposition; it needs r only
        modulo p^(j + l)."""
        p, m = self.ctx.p, self.sigma.modulus
        for (r, j, n, b), coeff in items:
            pj = p**j
            rw = pow(-r, -1, pj)
            key = (rw % m, -((r * rw + 1) // pj) % m, pj % m, -r % m)
            eps = e * legendre_int(p, r if n % 2 else -r) if j % 2 else e
            yield rw, j, -j - n, b, coeff, key, eps

    def _torus_terms(self, items, k: int, u, e: int):
        """pi([diag(x, 1/x), e]) on the terms `items` ((c, j, n, b), coeff) of
        a vector, t = c/p^j for any int c, x = p^k u: yields
        (r, j, n - k, b, coeff, key, eps) per term, the term moving to
        coeff * sum over b2 of eps * sigma(key)[b2][b]
        phi^{n(r/p^j)<p^(n-k)>}_{b2}, sigma in eigencoordinates, with
        0 <= r < p^j (in lowest terms when c is).

        With t' = [t u^2] and h^-1 = [[u, (t' - t u^2)/u], [0, 1/u]] (integral):

            [n(t)<p^n>, 1] g^-1 = [h, eps] [n(t')<p^(n-k)>, 1],
            eps = e (x, -p^-n) (p^(k-n), u),

        and [h, eps]^-1 = [h^-1, eps] has genuine value eps * sigma(h^-1),
        the Kubota sign of h^-1 being +1 (its lower-left entry is 0).  So each
        term maps to one representative: no cover product, no cocycle and no
        coset decomposition.  On ints, for t = c/p^j: c u^2 = carry p^j + r
        gives t' = r/p^j and (t' - t u^2)/u = -carry/u.  That needs u only
        modulo p^(j + l), so u is an int (the unit itself, or any int
        congruent to it modulo p^(j + l) for every term) or a ``Fraction``
        unit, first reduced modulo p^(j_max + l), j_max the largest j of a
        key among the terms (0 for none); eps reads u only through its square
        class, modulo p."""
        p, m = self.ctx.p, self.sigma.modulus
        if type(u) is not int:
            items = list(items)
            u = frac_mod(u, p ** (self.level + max((j for (_, j, _, _), _ in items), default=0)))
        u_mod, u_inv = u % m, pow(u, -1, m)
        for (c, j, n, b), coeff in items:
            pj = p**j
            carry, r = divmod(c * u * u, pj)
            eps = e * hilbert_int(p, k, u, -n, -1) * hilbert_int(p, k - n, 1, 0, u)
            yield r, j, n - k, b, coeff, (u_mod, -carry * u_inv % m, 0, u_inv), eps

    def _closed_act(self, images) -> InducedVector:
        """The vector of the closed-form images (r, j, n, b, coeff, key, eps)
        of ``_torus_terms`` or ``_w_terms``, keyed in lowest terms even where
        an image's key is not."""
        p = self.ctx.p
        out: dict = {}
        for r, j, n, b, coeff, key, eps in images:
            if j and not r % p:
                r, j = _lowest_terms(r, j, p)
            _accumulate(out, r, j, n, b, coeff if eps == 1 else -coeff, self._eigen_table[key])
        return InducedVector(self.ctx.q, out)

    def unit_torus_value(self, u) -> Matrix:
        """The genuine value of <u> = [diag(u, 1/u), 1] at a unit u (an int or
        a ``Fraction``), in eigencoordinates: the matrix the torus action
        attaches to a term at t = 0, n = 0.  There ``_torus_terms`` has no
        carry and eps = (u, -1)(1, u) = +1, a product of Hilbert symbols of
        units, so it is sigma(diag(u, u^-1) mod p^l)."""
        m = self.sigma.modulus
        u = u % m if type(u) is int else frac_mod(u, m)
        return self._eigen_table[(u, 0, 0, pow(u, -1, m))]

    # -- Whittaker functionals --------------------------------------------------

    def _twist(self, xi: Fraction):
        """(b, psi^xi, row) for xi in X(pi), memoized per xi: b is the basis
        index of xi, and row memoizes eps * sigma(key)[b][b_in] * psi^xi(-r/p^j),
        the torus form's summand without its coefficient, per
        (key, eps, b_in, r, j)."""
        hit = self._twists.get(xi)
        if hit is None:
            hit = self._twists[xi] = (self.basis_index_for(xi), self.psi.twist(xi), {})
        return hit

    def whittaker_functional(self, xi, v: InducedVector, torus=(0, 1, 1)) -> CycValue:
        """l^xi(pi([diag(x, 1/x), e]) v) for torus = (k, u, e), x = p^k u (u as
        in ``_torus_terms``); l^xi(v) by default.  On basis vectors l^xi is
        psi^xi(-t) when n = 0 and the basis index matches the character of
        xi, else 0.

        Only the terms of v on the shell n = k reach n = 0
        (``InducedVector.shells``), and each adds its entry of the b_xi row of
        the torus action; no acted vector is built.  At x = 1 the torus action
        fixes every term: key I, eps = +1 and r/p^j = [t], so the sum is that
        of l^xi(v)."""
        b, psi_xi, row = self._twist(xi)
        vals = []
        k, u, e = torus
        shell = (item for item in v.terms.items() if item[0][2] == k)
        for r, j, _, b_in, coeff, key, eps in self._torus_terms(shell, k, u, e):
            memo_key = (key, eps, b_in, r, j)
            z = row.get(memo_key)
            if z is None:
                z = self._eigen_table[key][b][b_in] * psi_xi.value_int(-r, self.ctx.p**j)
                z = row[memo_key] = z if eps == 1 else -z
            if not z.is_zero():
                vals.append(coeff * z)
        return CycValue.sum(vals, self.ctx.q)

    def whittaker_function(self, xi, v: InducedVector, g: MetaElement) -> CycValue:
        """W^xi_v(g) = l^xi(pi(g) v); a diagonal g acts through the torus
        form of ``whittaker_functional``."""
        if g.g.is_diagonal():
            return self.whittaker_functional(
                xi, v, (*ratio_torus_coordinates(g.g.na, g.g.den, self.ctx.p), g.eps))
        return self.whittaker_functional(xi, self.act(g, v))

    def central_sign_minus_one(self) -> CycValue:
        """omega_pi(-1): the scalar by which [-I, +1] acts, computed on first
        use; only a scalar action is remembered."""
        if self._central_sign is None:
            v = self.phi(b=0)
            acted = self.act(MetaElement(SL2Element.of(self.ctx, -1, 0, 0, -1), 1), v)
            key = (0, 0, 0, 0)
            if set(acted.terms) != {key}:
                raise ArithmeticError("central element did not act by a scalar")
            self._central_sign = acted.terms[key]
        return self._central_sign
