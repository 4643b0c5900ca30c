import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest

from metaplectic import (
    SIGMA_NAMES,
    CycValue,
    MetaElement,
    PadicContext,
    Representation,
    SigmaRep,
    builtin_sigma_p3,
    elliptic_sigma,
    weil_sigma,
)
from metaplectic.cover import (
    SL2Element,
    decompose_meta,
    random_integral_sl2,
    random_sl2_word,
)
from metaplectic.exactnum import ShellPoint, _unit_residues_mod
from metaplectic.localchar import AdditiveCharacter, legendre_int
from metaplectic.repn import (
    InducedVector,
    SigmaValidationError,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sum,
    sigma_from_dict,
    sigma_to_dict,
    sl2_group_order,
    _key_mul,
)

from helpers import c_factor, coset_rep, evaluate_vector, named_sigma_once


class TestBuiltinSigma:
    def test_table_values(self, ctx):
        s1 = builtin_sigma_p3(ctx, 1)
        assert s1.table[(1, 1, 0, 1)][0][0] == CycValue.root_of_unity(ctx.q, Fraction(1, 3))
        assert s1.table[(0, 2, 1, 0)][0][0] == 1  # w mod 3

    def test_group_order(self, ctx):
        assert len(builtin_sigma_p3(ctx, 1).table) == 24

    def test_which_two(self, ctx):
        s2 = builtin_sigma_p3(ctx, 2)
        assert s2.table[(1, 1, 0, 1)][0][0] == CycValue.root_of_unity(ctx.q, Fraction(2, 3))

    def test_rejects_wrong_p(self, ctx5):
        with pytest.raises(ValueError):
            builtin_sigma_p3(ctx5, 1)

    def test_rejects_wrong_which(self, ctx):
        with pytest.raises(ValueError):
            builtin_sigma_p3(ctx, 3)

    def test_homomorphism_random(self, ctx, rng):
        s1 = builtin_sigma_p3(ctx, 1)
        keys = list(s1.table)
        for _ in range(200):
            k1, k2 = rng.choice(keys), rng.choice(keys)
            prod = _key_mul(k1, k2, 3)
            assert s1.table[k1][0][0] * s1.table[k2][0][0] == s1.table[prod][0][0]


class TestHomomorphismCheck:
    def test_builtins_pass(self, ctx):
        # the closure is multiplicative on every pair of keys, not only on
        # the generator edges it checks
        for which in (1, 2):
            table = builtin_sigma_p3(ctx, which).table
            for k1, m1 in table.items():
                for k2, m2 in table.items():
                    assert table[_key_mul(k1, k2, 3)] == mat_mul(m1, m2)

    def test_every_single_corruption_rejected(self, ctx):
        s1 = builtin_sigma_p3(ctx, 1)
        for key, mat in s1.table.items():
            table = dict(s1.table)
            table[key] = ((-mat[0][0],),)
            with pytest.raises(SigmaValidationError):
                SigmaRep(ctx, 1, 1, table)

    @pytest.mark.parametrize("key", [(1, 2, 0, 1), (1, 1, 0, 1), (0, 4, 1, 0)],
                             ids=["non-generator", "n(1)", "w"])
    def test_single_corruption_rejected_on_weil5(self, ctx5, weil5, key):
        # dim 2: one entry scaled by e(1/5), every other entry left valid
        table = dict(weil5.sigma.table)
        table[key] = mat_scale(table[key], CycValue.root_of_unity(ctx5.q, Fraction(1, 5)))
        with pytest.raises(SigmaValidationError, match="not multiplicative"):
            SigmaRep(ctx5, 1, 2, table)


class TestStrongCuspidality:
    def test_builtins(self, ctx):
        # the unipotent sum itself, which ``SigmaRep`` decides through the
        # denominators of the betas
        for which in (1, 2):
            sigma = builtin_sigma_p3(ctx, which)
            assert mat_is_zero(mat_sum([sigma.table[sigma.n_key(c)] for c in range(3)], 3))

    def test_trivial_representation_fails(self, ctx):
        one = ((CycValue.one(3),),)
        table = {k: one for k in builtin_sigma_p3(ctx, 1).table}
        with pytest.raises(SigmaValidationError):
            SigmaRep(ctx, 1, 1, table)


class TestValidationAtConstruction:
    """``SigmaRep`` validates once, when it is built, and is read-only after."""

    def test_builtin_plus_trivial_rejected_as_not_cuspidal(self, ctx):
        # conductor 1 holds (the builtin summand is nontrivial), so the
        # unipotent average is what rejects it
        one, zero = CycValue.one(3), CycValue.zero(3)
        table = {k: ((m[0][0], zero), (zero, one))
                 for k, m in builtin_sigma_p3(ctx, 1).table.items()}
        with pytest.raises(SigmaValidationError, match="strong cuspidality"):
            SigmaRep(ctx, 1, 2, table)

    def test_builtin_generators_with_w_negated_not_multiplicative(self, ctx):
        # w lies in the commutator subgroup of SL(2, Z/3), so w -> -1 extends
        # to no homomorphism: an edge of the closure disagrees
        generators = {(1, 1, 0, 1): ((CycValue.root_of_unity(ctx.q, Fraction(1, 3)),),),
                      (0, 2, 1, 0): ((-CycValue.one(3),),)}
        with pytest.raises(SigmaValidationError, match="not multiplicative"):
            SigmaRep(ctx, 1, 1, generators)

    @pytest.mark.parametrize("missing", [(1, 1, 0, 1), (0, 2, 1, 0)], ids=["n(1)", "w"])
    def test_missing_generator_named(self, ctx, missing):
        table = dict(builtin_sigma_p3(ctx, 1).table)
        del table[missing]
        with pytest.raises(SigmaValidationError, match=re.escape(str(missing))):
            SigmaRep(ctx, 1, 1, table)

    def test_table_is_read_only(self, ctx):
        sigma = builtin_sigma_p3(ctx, 1)
        with pytest.raises(TypeError):
            sigma.table[(1, 0, 0, 1)] = ((CycValue.zero(3),),)

    def test_table_is_a_copy(self, ctx):
        table = dict(builtin_sigma_p3(ctx, 1).table)
        sigma = SigmaRep(ctx, 1, 1, table)
        table[(1, 0, 0, 1)] = ((CycValue.zero(3),),)
        assert sigma.table[(1, 0, 0, 1)] == ((CycValue.one(3),),)


class TestEigenBasis:
    def test_betas(self, ctx):
        assert builtin_sigma_p3(ctx, 1).betas == (Fraction(1, 3),)
        assert builtin_sigma_p3(ctx, 2).betas == (Fraction(2, 3),)

    def test_beta_denominators(self, ctx):
        for which in (1, 2):
            for beta in builtin_sigma_p3(ctx, which).betas:
                assert beta.denominator == 3

    def test_repeated_character_rejected(self, ctx):
        # sigma + sigma has a rank-2 unipotent eigenprojection; the
        # constructor itself rejects it
        s1 = builtin_sigma_p3(ctx, 1)
        zero = CycValue.zero(3)
        table = {k: ((m[0][0], zero), (zero, m[0][0])) for k, m in s1.table.items()}
        with pytest.raises(SigmaValidationError, match="one repeats"):
            SigmaRep(ctx, 1, 2, table)

    # on every named datum, not only the one-dimensional builtins: the
    # dual rows of ``change`` are read off the projections, and a wrong
    # scale there shows only where the first nonzero entry of an
    # eigenvector is not 1 (elliptic9, where it is 1/3)
    @pytest.mark.parametrize("name", sorted(SIGMA_NAMES))
    def test_unipotent_acts_diagonally(self, name):
        sigma = named_sigma_once(name)
        psi = AdditiveCharacter(sigma.ctx)
        zero = CycValue.zero(sigma.ctx.q)
        for a in range(sigma.modulus):
            diag = [psi.value(beta * a) for beta in sigma.betas]
            assert sigma.eigen_table[sigma.n_key(a)] == tuple(
                tuple(diag[i] if i == j else zero for j in range(sigma.dim))
                for i in range(sigma.dim))

    @pytest.mark.parametrize("name", sorted(SIGMA_NAMES))
    def test_change_intertwines_table_and_eigen_table(self, name):
        sigma = named_sigma_once(name)
        # the generators n(1) and w determine both homomorphisms
        keys = ((sigma.n_key(1), (0, sigma.modulus - 1, 1, 0)) if name == "elliptic9"
                else sigma.table)
        for key in keys:
            assert (mat_mul(sigma.change, sigma.eigen_table[key])
                    == mat_mul(sigma.table[key], sigma.change)), key


class TestSigmaFileFormat:
    def test_rejects_non_cuspidal(self, ctx):
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        constant_one_cell = [[[0, 1], [1, 1]]]  # single term: 1 * e(0)
        for entry in data["entries"]:
            entry["rep"] = [[constant_one_cell]]
        with pytest.raises(SigmaValidationError) as err:
            sigma_from_dict(data)
        assert "cuspidal" in str(err.value) or "conductor" in str(err.value)

    def test_rejects_bad_determinant(self, ctx):
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        data["entries"][0]["matrix"] = [[1, 1], [1, 1]]
        with pytest.raises(SigmaValidationError):
            sigma_from_dict(data)

    def test_rejects_missing_entry(self, ctx):
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        data["entries"].pop()
        with pytest.raises(SigmaValidationError, match="table has 23 entries, expected 24"):
            sigma_from_dict(data)

    def test_rejects_rep_block_of_wrong_shape(self, ctx):
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        data["entries"][0]["rep"][0].append([])
        with pytest.raises(SigmaValidationError, match="rep block of wrong shape"):
            sigma_from_dict(data)

    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_rejects_p_that_is_not_an_odd_prime(self, ctx, p):
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        data["p"] = p
        with pytest.raises(ValueError, match=f"p = {p} is not an odd prime"):
            sigma_from_dict(data)

    @pytest.mark.parametrize("field, value", [("l", 1.9), ("dim", "1")])
    def test_rejects_integer_field_that_is_not_an_int(self, ctx, field, value):
        # int() would truncate 1.9 to 1 and parse "1"; both load a valid table
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        data[field] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            sigma_from_dict(data)


# the first 16 hex digits of sha256(json.dumps(sigma_to_dict(s))) of each
# named datum, as recorded when the names were introduced
NAMED_DIGESTS = {
    "builtin1": "169c05c5460c9f1f",
    "builtin2": "b2b69c4e1da5253e",
    "weil5": "221f8818472705fe",
    "weil7": "6baef338d3c95715",
    "norm3": "f7a4b37a11b798aa",
    "norm5": "d07d2936e862aef4",
    "elliptic9": "3ee997e808b5b650",
}


def _digest(sigma) -> str:
    return hashlib.sha256(json.dumps(sigma_to_dict(sigma)).encode()).hexdigest()[:16]


class TestNamedSigma:
    """Every datum of ``SIGMA_NAMES``: its table bytes, pinned, and the
    file door's round trip, which no longer sees p = 5 or 7 otherwise."""

    @pytest.mark.parametrize("name", sorted(SIGMA_NAMES))
    def test_table_bytes_and_file_roundtrip(self, name):
        sigma = named_sigma_once(name)
        assert _digest(sigma) == NAMED_DIGESTS[name]
        assert sigma_from_dict(sigma_to_dict(sigma)).table == sigma.table

    @pytest.mark.parametrize("name", sorted(SIGMA_NAMES))
    def test_closes_from_its_two_generator_images(self, name):
        sigma = named_sigma_once(name)
        ctx = sigma.ctx
        generators = {k: sigma.table[k] for k in (sigma.n_key(1), (0, sigma.modulus - 1, 1, 0))}
        closed = SigmaRep(ctx, sigma.level, sigma.dim, generators).table
        assert len(closed) == sl2_group_order(ctx.p, sigma.level)
        assert closed == sigma.table

    def test_elliptic_theta_at_k_four_and_refusals(self, ctx, ctx5, elliptic9k4):
        # k = 4 is the other sign of omega_pi(-1); a theta that disagrees
        # with psi_beta on T n K1, or another p, is refused before any
        # table is built
        assert _digest(elliptic9k4.sigma) == "af30920841780f05"
        for k in (0, 2, 3):
            with pytest.raises(ValueError, match="disagree on T n K1"):
                elliptic_sigma(ctx, k)
        with pytest.raises(ValueError, match="requires p = 3"):
            elliptic_sigma(ctx5, 1)


class TestGenuineEvaluation:
    def test_genuineness(self, ctx, rep1):
        minus = MetaElement.central(ctx, -1)
        assert rep1.genuine_eval(minus)[0][0] == -1

    def test_unipotent_value(self, ctx, rep1):
        value = rep1.genuine_eval(MetaElement.n(ctx, 1))[0][0]
        assert value == CycValue.root_of_unity(ctx.q, Fraction(1, 3))

    def test_multiplicative(self, ctx, rep1, rng):
        for _ in range(300):
            g = MetaElement(random_integral_sl2(ctx, rng), rng.choice([1, -1]))
            h = MetaElement(random_integral_sl2(ctx, rng), rng.choice([1, -1]))
            lhs = rep1.genuine_eval(g * h)[0][0]
            rhs = rep1.genuine_eval(g)[0][0] * rep1.genuine_eval(h)[0][0]
            assert lhs == rhs

    def test_rejects_non_integral(self, ctx, rep1):
        with pytest.raises(ValueError):
            rep1.genuine_eval(MetaElement.torus(ctx, Fraction(1, 3)))


class TestAction:
    def test_central_kernel(self, ctx, rep1):
        v = rep1.phi()
        assert rep1.act(MetaElement.central(ctx, -1), v) == v.scaled(CycValue.rational(ctx.q, -1))

    def test_translation_eigenvalue(self, ctx, rep1):
        # pi(n(p^{-2n} a)) phi^{n(t)<p^n>}_b = psi_b(a) phi^{n(t)<p^n>}_b
        psi = rep1.psi
        for n in (-1, 0, 1):
            for t in (Fraction(0), Fraction(1, 3), Fraction(2, 9)):
                v = rep1.phi(t=t, n=n)
                for a in (1, 2, 3):
                    arg = Fraction(a) * Fraction(3) ** (-2 * n)
                    lhs = rep1.act(MetaElement.n(ctx, arg), v)
                    assert lhs == v.scaled(psi.value(Fraction(a, 3)))

    def test_composition(self, ctx, rep1, rng):
        for _ in range(60):
            g = random_sl2_word(ctx, rng, 3)
            h = random_sl2_word(ctx, rng, 3)
            v = rep1.phi(t=Fraction(rng.randrange(0, 9), 9), n=rng.choice([-1, 0, 1]))
            assert rep1.act(g, rep1.act(h, v)) == rep1.act(g * h, v)

    def test_linear(self, ctx, rep1, rng):
        g = random_sl2_word(ctx, rng)
        v1 = rep1.phi(t=Fraction(1, 3))
        v2 = rep1.phi(n=1)
        lhs = rep1.act(g, v1 + v2.scaled(CycValue.rational(ctx.q, 5)))
        assert lhs == rep1.act(g, v1) + rep1.act(g, v2).scaled(CycValue.rational(ctx.q, 5))

    def test_images_that_cancel_leave_no_term(self, weil5):
        # pi(w) phi_0 and pi(w) phi_1 share the key k; with c chosen to cancel
        # it, pi(w)(phi_0 + c phi_1) lacks k and keeps no zero coefficient
        w = MetaElement.w(weil5.ctx)
        a0, a1 = weil5.act(w, weil5.phi(b=0)), weil5.act(w, weil5.phi(b=1))
        k = next(key for key in a0.terms if key in a1.terms)
        c = -a0.terms[k] / a1.terms[k]
        acted = weil5.act(w, weil5.phi(b=0) + weil5.phi(b=1, coeff=c))
        assert k not in acted.terms and acted.terms
        assert all(not coeff.is_zero() for coeff in acted.terms.values())
        assert acted == a0 + a1 * c

    def test_vector_evaluation_matches_action(self, ctx, rep1, rng):
        # phi(g) = [pi(g) phi](e): evaluation agrees with acting then reading e
        for _ in range(40):
            g = random_sl2_word(ctx, rng, 3)
            v = rep1.phi(t=Fraction(rng.randrange(0, 3), 3), n=rng.choice([-1, 0, 1]))
            coords = evaluate_vector(rep1, v, g)
            acted = rep1.act(g, v)
            at_e = acted.terms.get((0, 0, 0, 0), CycValue.zero(3))
            assert coords[0] == at_e


class TestActImageMemo:
    """Acting remembers nothing per element: on one shared representation
    every action equals the one a fresh representation computes, and no
    attribute of the representation grows under acts at non-diagonal
    elements, so random words (``check-invariants``) cannot fill it."""

    @staticmethod
    def _sizes(rep):
        return {name: len(value) for name, value in vars(rep).items()
                if hasattr(value, "__len__")}

    @pytest.mark.parametrize("data", ["weil5", "norm5", "elliptic9"])
    def test_shared_representation_matches_fresh(self, request, rng, data):
        rep = request.getfixturevalue(data)
        ctx, p, last = rep.ctx, rep.ctx.p, rep.dim - 1
        w = MetaElement.w(ctx)
        word = random_sl2_word(ctx, rng)
        while word.g.is_diagonal():
            word = random_sl2_word(ctx, rng)
        elements = [w, MetaElement(w.g, -1), w * MetaElement.n(ctx, Fraction(1, p)),
                    w * MetaElement.n(ctx, Fraction(2, p**2)), word]
        # the vectors share terms, so a term met again comes after another g
        vectors = [rep.phi(), rep.phi(t=Fraction(1, p), n=1, b=last, coeff=2) + rep.phi(),
                   rep.phi(n=-1, coeff=3) - rep.phi(t=Fraction(1, p), n=1, b=last)
                   + rep.phi(t=Fraction(2, p**2), b=last)]
        shared = Representation(rep.sigma)
        sizes = self._sizes(shared)
        for v in vectors:
            images = []
            for g in elements:
                fresh = Representation(rep.sigma).act(g, v)
                assert shared.act(g, v) == fresh, (g, v)
                images.append(fresh)
            # so the comparison would see remembered state that drops g or its sign
            assert all(a != b for a, b in itertools.combinations(images, 2)), v
        for _ in range(20):
            g = random_sl2_word(ctx, rng)
            if not g.g.is_diagonal():
                shared.act(g, rng.choice(vectors))
        assert self._sizes(shared) == sizes


class TestWClosedForm:
    """The closed form of pi([w, e]) (``Representation._w_terms``) against
    the decomposition route, on every term phi^{n(r/p^j)<p^n>}_b with
    j <= 3 and |n| <= 3, every b and both cover signs."""

    @pytest.mark.parametrize("data", sorted(SIGMA_NAMES))
    def test_matches_decomposition(self, data):
        rep = Representation(named_sigma_once(data))
        ctx, p = rep.ctx, rep.ctx.p
        for e in (1, -1):
            w = MetaElement(SL2Element.w(ctx), e)
            for j in range(4):
                for r in (r for r in range(p**j) if r % p or not j):
                    for n in range(-3, 4):
                        for b in range(rep.dim):
                            v = InducedVector(ctx.q, {(r, j, n, b): CycValue.one(ctx.q)})
                            assert rep.act(w, v) == decomposition_act(rep, w, v), (r, j, n, b, e)


def t_key(t: Fraction, p: int):
    """(r, j) with t = r/p^j, for a t with a p-power denominator."""
    j, d = 0, t.denominator
    while d % p == 0:
        d //= p
        j += 1
    assert d == 1, t
    return t.numerator, j


def decomposition_terms(rep, terms, g):
    """pi(g) on the terms ((t, n, b), coeff), t a ``Fraction``, through the
    general route: decompose [n(t)<p^n>, 1] g^-1 = [h, eps] [rep', 1] and
    apply the genuine value at [h, eps]^-1, for every term."""
    q, p = rep.ctx.q, rep.ctx.p
    ginv = g.inverse()
    out = {}
    for (t, n, b), coeff in terms:
        h_meta, dec = decompose_meta(MetaElement(coset_rep(rep.ctx, t, n), 1) * ginv)
        mat = rep.genuine_eval(h_meta.inverse())
        for b2 in range(rep.dim):
            key = (*t_key(dec.t, p), dec.n, b2)
            out[key] = out.get(key, CycValue.zero(q)) + coeff * mat[b2][b]
    return InducedVector(q, out)


def decomposition_act(rep, g, v):
    """``decomposition_terms`` on the terms of v, each key (c, j, n, b)
    read as t = c/p^j."""
    p = rep.ctx.p
    return decomposition_terms(
        rep, [((Fraction(c, p**j), n, b), coeff) for (c, j, n, b), coeff in v.terms.items()], g)


class TestTorusClosedForm:
    """The closed-form torus action against the decomposition route."""

    UNITS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-5, 7), Fraction(4, 5),
             Fraction(-22, 17))
    # non-canonical keys t = c/3^j: integral parts, negative values, and
    # c not prime to p (3/9, 0/9 and 9/27)
    TS = ((0, 0), (1, 1), (4, 1), (-2, 2), (7, 1), (3, 2), (-5, 3), (0, 2), (9, 3), (2, 0))

    def _vector(self, ctx, rng, k):
        terms = {}
        if -3 <= k <= 3:
            key = (*rng.choice(self.TS), k, 0)
            terms[key] = CycValue.root_of_unity(ctx.q, Fraction(rng.randrange(9), 9))
        for _ in range(rng.randrange(1, 4)):
            key = (*rng.choice(self.TS), rng.randrange(-3, 4), 0)
            terms[key] = (CycValue.root_of_unity(ctx.q, Fraction(rng.randrange(9), 9))
                          * rng.randrange(1, 4))
        return InducedVector(ctx.q, terms)

    def test_matches_decomposition(self, ctx, rep1, rep2, rng):
        nonzero = 0
        for rep in (rep1, rep2):
            xi = rep.betas[0]
            for k in range(-4, 5):
                for u in self.UNITS:
                    for e in (1, -1):
                        g = MetaElement(SL2Element.torus(ctx, u * Fraction(3) ** k), e)
                        for _ in range(2):
                            v = self._vector(ctx, rng, k)
                            expected = decomposition_act(rep, g, v)
                            assert rep.act(g, v) == expected
                            w = rep.whittaker_function(xi, v, g)
                            assert w == rep.whittaker_functional(xi, expected)
                            nonzero += not w.is_zero()
        assert nonzero > 100


    # units with denominators prime to p, and t deeper than the sigma modulus
    DEEP_UNITS = (Fraction(2, 5), Fraction(7, 11), Fraction(-2, 5), Fraction(11, 7))
    DEEP_TS = ((1, 3), (5, 4), (-13, 4), (40, 3), (21, 4), (26, 3), (80, 4))

    def test_fractional_units_and_deep_denominators(self, ctx, rep1, rep2, rng):
        nonzero = 0
        for rep in (rep1, rep2):
            xi = rep.betas[0]
            for k in range(-3, 4):
                for u in self.DEEP_UNITS:
                    x = u * Fraction(3) ** k
                    for e in (1, -1):
                        g = MetaElement(SL2Element.torus(ctx, x), e)
                        terms = {(*t, rng.choice((k, k, k - 1, k + 2)), 0):
                                 CycValue.root_of_unity(ctx.q, Fraction(rng.randrange(9), 9))
                                 * rng.randrange(1, 4)
                                 for t in rng.sample(self.DEEP_TS, 3)}
                        v = InducedVector(ctx.q, terms)
                        expected = decomposition_act(rep, g, v)
                        assert rep.act(g, v) == expected
                        w = rep.whittaker_function(xi, v, g)
                        assert w == rep.whittaker_functional(xi, expected)
                        nonzero += not w.is_zero()
        assert nonzero > 50

    def test_int_coordinates_match_fraction_ones(self, ctx, rep1, rep2):
        # the torus form of the functional on ShellPoint, int and Fraction
        # coordinates, against the decomposition route
        for rep in (rep1, rep2):
            xi = rep.betas[0]
            for k in (-2, 0, 1):
                v = (rep.phi(t=Fraction(1, 27), n=k) + rep.phi(t=Fraction(4, 9), n=k, coeff=2)
                     + rep.phi(t=Fraction(5, 81), n=k + 1))
                for u in _unit_residues_mod(81):
                    x = ShellPoint(u, k, 3)
                    g = MetaElement.torus(ctx, Fraction(x))
                    expected = rep.whittaker_functional(xi, decomposition_act(rep, g, v))
                    assert rep.whittaker_functional(xi, v, (k, u, 1)) == expected
                    assert rep.whittaker_functional(xi, v, (k, u + 81 * 7, 1)) == expected
                    assert rep.whittaker_function(xi, v, MetaElement.torus(ctx, x)) == expected

    @pytest.mark.parametrize("data, units", [
        ("weil5", (Fraction(1), Fraction(2), Fraction(-3, 7), Fraction(13, 2))),
        ("weil7", (Fraction(1), Fraction(3), Fraction(-1), Fraction(5, 2), Fraction(-4, 9),
                   Fraction(22, 13)))])
    def test_matches_decomposition_on_weil_data(self, request, rng, data, units):
        # sigma of dimension 2 and 3, where sigma(<u>) is not the identity:
        # 80 cases at p = 5 and 120 at p = 7, on every basis index
        rep = request.getfixturevalue(data)
        ctx, p = rep.ctx, rep.ctx.p
        ts = ((0, 0), (1, 1), (p + 2, 1), (-2, 2), (p, 2), (3, 3))
        nonzero = 0
        for k in range(-2, 3):
            for u in units:
                for e in (1, -1):
                    g = MetaElement(SL2Element.torus(ctx, u * Fraction(p) ** k), e)
                    for _ in range(2):
                        terms = {(*rng.choice(ts), rng.choice((k, k, k - 1, k + 1)),
                                  rng.randrange(rep.dim)):
                                 CycValue.root_of_unity(ctx.q, Fraction(rng.randrange(p), p))
                                 * rng.randrange(1, 4)
                                 for _ in range(3)}
                        v = InducedVector(ctx.q, terms)
                        expected = decomposition_act(rep, g, v)
                        assert rep.act(g, v) == expected
                        for xi in rep.betas:
                            w = rep.whittaker_function(xi, v, g)
                            assert w == rep.whittaker_functional(xi, expected)
                            nonzero += not w.is_zero()
        assert nonzero > 60

    def test_unit_torus_value(self, ctx, rep1, rep2):
        for rep in (rep1, rep2):
            for u in (1, 2, 4, 5, 7, 8, -1, 22, Fraction(2, 5), Fraction(-7, 11)):
                assert rep.unit_torus_value(u) == rep.genuine_eval(MetaElement.torus(ctx, u))


class TestInducedVectorSum:
    def test_equals_repeated_addition(self, ctx, rep1, rng):
        # random vectors on a few shared keys, plus a pair that cancels to
        # zero on one key; the sum drops that key as + does, and both equal
        # the coefficient-wise fold with CycValue +
        q = ctx.q
        keys = [(r, j, n, 0) for r, j in ((0, 0), (1, 2), (2, 2)) for n in (-1, 0)]
        vectors = []
        for _ in range(6):
            terms = {key: CycValue.root_of_unity(q, Fraction(rng.randrange(9), 9))
                     * rng.randrange(-2, 3) for key in rng.sample(keys, 3)}
            vectors.append(InducedVector(q, terms))
        cancel = rep1.phi(t=Fraction(1, 3), n=1, coeff=CycValue.root_of_unity(q, Fraction(1, 3)))
        vectors += [cancel, -cancel]
        total = InducedVector.zero(q)
        for v in vectors:
            total = total + v
        fold: dict = {}
        for v in vectors:
            for key, c in v.terms.items():
                fold[key] = fold.get(key, CycValue.zero(ctx.q)) + c
        summed = InducedVector.sum(vectors, q)
        assert summed == total and summed.terms == total.terms
        assert summed.terms == {key: c for key, c in fold.items() if not c.is_zero()}
        assert not any(key[2] == 1 for key in summed.terms)
        assert all(not c.is_zero() for c in summed.terms.values())
        assert InducedVector.sum([cancel, -cancel], q).is_zero()
        assert InducedVector.sum([cancel], q) == cancel

    def test_scalar_product_both_sides(self, ctx, rep1):
        v = rep1.phi(t=Fraction(1, 9), n=-1) + rep1.phi(n=2)
        c = CycValue.root_of_unity(ctx.q, Fraction(2, 9))
        assert v * c == v.scaled(c) == 3 * v.scaled(c * Fraction(1, 3))
        assert (v * 0).is_zero()

    def test_product_of_two_vectors_raises(self, ctx, rep1):
        # v * w once returned a vector whose coefficients were vectors
        v = rep1.phi(t=Fraction(1, 9), n=-1) + rep1.phi(n=2)
        w = rep1.phi(n=1)
        assert v.scaled(w) is NotImplemented
        for bad in (w, 1.5):
            with pytest.raises(TypeError, match="unsupported operand"):
                v * bad
            with pytest.raises(TypeError, match="unsupported operand"):
                bad * v

    def test_difference(self, ctx, rep1):
        third = CycValue.root_of_unity(ctx.q, Fraction(1, 3))
        v = rep1.phi(t=Fraction(1, 9), n=-1) + rep1.phi(n=2, coeff=third)
        w = rep1.phi(n=2) + rep1.phi(t=Fraction(2, 3))
        assert v - w == v + (-w) == v + w * -1
        assert (v - w) + w == v
        assert (v - v).is_zero() and (v - v).terms == {}

    def test_adding_a_number_raises_type_error(self, rep1):
        v = rep1.phi()
        for bad in (lambda: v + 3, lambda: 3 + v, lambda: v - 3, lambda: 3 - v):
            with pytest.raises(TypeError, match="unsupported operand"):
                bad()

    def test_cyc_value_on_the_left(self, ctx, rep1):
        # CycValue leaves an InducedVector operand to InducedVector.__rmul__
        v = rep1.phi(t=Fraction(1, 9), n=-1) + rep1.phi(n=2)
        c = CycValue.root_of_unity(ctx.q, Fraction(2, 9))
        assert c * v == v * c
        with pytest.raises(TypeError, match="unsupported operand"):
            c + v


def _weil_generators(ctx, a):
    """The generators of ``weil_sigma(ctx, a)`` with g_p written as the
    direct sum of (x/p) e(x/p) over x mod p; the library takes g_p from the
    canonical sqrt(p), times e(1/4) for p = 3 mod 4."""
    p = ctx.p
    half = range(1, (p - 1) // 2 + 1)
    gauss = CycValue.sum([CycValue.root_of_unity(p, Fraction(x, p)) * legendre_int(p, x)
                          for x in range(1, p)], p)
    c = gauss * Fraction(-legendre_int(p, -a), p)
    return {
        (1, 1, 0, 1): tuple(tuple(CycValue.root_of_unity(p, Fraction(a * t * t, p)) if s == t
                                  else CycValue.zero(p) for t in half) for s in half),
        (0, p - 1, 1, 0): tuple(tuple(c * (CycValue.root_of_unity(p, Fraction(2 * a * s * t, p))
                                           - CycValue.root_of_unity(p, Fraction(-2 * a * s * t, p)))
                                      for t in half) for s in half),
    }


class TestWeilData:
    @pytest.mark.parametrize("p, a", [(3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4),
                                      (7, 1), (7, 3)])
    def test_builds_with_betas_a_t_squared(self, p, a):
        # at p = 7, a = 1 is a residue and a = 3 a nonresidue
        ctx = PadicContext(p)
        sigma = weil_sigma(ctx, a)  # ``SigmaRep`` validates it
        assert (sigma.level, sigma.dim) == (1, (p - 1) // 2)
        assert sigma.betas == tuple(sorted(
            Fraction(a * t * t % p, p) for t in range(1, (p - 1) // 2 + 1)))

    def test_rejects_a_non_unit(self, ctx5):
        with pytest.raises(ValueError, match="not a unit"):
            weil_sigma(ctx5, 10)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sqrtq_form_of_c_closes_to_the_same_table(self, p, request):
        # the sqrt(p) form of c in ``weil_sigma`` against the direct Gauss
        # sum, for every unit a at p = 3 and 5 and a residue and a nonresidue
        # at p = 7; a = 1 at p = 5 and 7 is the weil5/weil7 data
        ctx = PadicContext(p)
        for a in ((1, 3) if p == 7 else range(1, p)):
            sigma = (request.getfixturevalue({5: "weil5", 7: "weil7"}[p]).sigma
                     if a == 1 and p > 3 else weil_sigma(ctx, a))
            by_sum = SigmaRep(ctx, 1, (p - 1) // 2, _weil_generators(ctx, a)).table
            assert by_sum.keys() == sigma.table.keys()
            for key, mat in sigma.table.items():
                assert by_sum[key] == mat, (a, key)

    @pytest.mark.parametrize("which", [1, 2])
    def test_builtin_is_the_hand_written_closure(self, ctx, which):
        # the one-dimensional data written out: n(1) -> e(which/3), w -> 1
        generators = {(1, 1, 0, 1): ((CycValue.root_of_unity(ctx.q, Fraction(which, 3)),),),
                      (0, 2, 1, 0): ((CycValue.one(ctx.q),),)}
        assert builtin_sigma_p3(ctx, which).table == SigmaRep(ctx, 1, 1, generators).table


def assert_int_keys_in_lowest_terms(v, p):
    for key in v.terms:
        assert len(key) == 4 and all(type(x) is int for x in key), key
        r, j = key[:2]
        assert 0 <= r < p**j and (r % p if j else r == 0), key


class TestIntKeys:
    """A term key is the ints (r, j, n, b) with t = r/p^j in lowest terms and
    0 <= r < p^j, t = 0 being (0, 0): one key per coset and basis index."""

    def test_every_builder_keys_in_lowest_terms(self, request, rng):
        for name in ("rep1", "weil5", "elliptic9"):
            rep = request.getfixturevalue(name)
            ctx, p = rep.ctx, rep.ctx.p
            vectors = [rep.phi(t=t, n=n, b=b)
                       for t in (Fraction(0), Fraction(1, p), Fraction(p + 1, p * p),
                                 Fraction(-2, p**3), Fraction(1, 2), Fraction(5, 6 * p), 7)
                       for n in (-1, 0, 2) for b in range(0, rep.dim, 2)]
            for v in vectors:
                assert_int_keys_in_lowest_terms(v, p)
            for _ in range(12):
                v = rng.choice(vectors) + rng.choice(vectors)
                g = random_sl2_word(ctx, rng, 3)
                assert_int_keys_in_lowest_terms(rep.act(g, v), p)
                x = Fraction(rng.choice((1, 2, -1, 4)), rng.choice((1, 7))) * \
                    Fraction(p) ** rng.randrange(-2, 3)
                assert_int_keys_in_lowest_terms(rep.act(MetaElement.torus(ctx, x), v), p)
                k, u = rng.randrange(-2, 3), rng.choice((1, 2, p + 1))
                assert_int_keys_in_lowest_terms(
                    rep._closed_act(rep._torus_terms(v.terms.items(), k, u, 1)), p)
                w = MetaElement(SL2Element.w(ctx), rng.choice((1, -1)))
                assert_int_keys_in_lowest_terms(rep.act(w, v), p)
            for y in (Fraction(0), Fraction(2), ShellPoint(1, -1, p), ShellPoint(2, -2, p),
                      Fraction(4, 7 * p**3)):
                for b in range(rep.dim):
                    assert_int_keys_in_lowest_terms(rep.w_translate(b, y), p)

    def test_equal_rationals_give_equal_vectors(self, rep1, elliptic9):
        for rep in (rep1, elliptic9):
            third = rep.phi(t=Fraction(1, 3), n=1)
            assert rep.phi(t=Fraction(3, 9), n=1) == third
            assert rep.phi(t=Fraction(3, 9), n=1).terms == third.terms
            assert {key[:3] for key in third.terms} == {(1, 1, 1)}

    def test_t_with_a_denominator_prime_to_p_lands_on_its_canonical_key(
            self, ctx, rep1, elliptic9):
        identity = MetaElement.identity(ctx)
        # at level 1, 1/2 = 2 mod 3: [1/2] = 0, the same coset data as t = 2
        v = rep1.phi(t=Fraction(1, 2))
        assert set(v.terms) == {(0, 0, 0, 0)}
        assert v == rep1.phi(t=2) == decomposition_terms(
            rep1, [((Fraction(1, 2), 0, 0), CycValue.one(ctx.q))], identity)
        # at level 2, 1/6 = (1/2)/3 with 1/2 = 5 mod 9: [1/6] = 2/3
        for b in (0, 3):
            v = elliptic9.phi(t=Fraction(1, 6), n=-1, b=b)
            assert {key[:3] for key in v.terms} == {(2, 1, -1)}
            assert v == elliptic9.phi(t=Fraction(14, 3), n=-1, b=b) == decomposition_terms(
                elliptic9, [((Fraction(1, 6), -1, b), CycValue.one(ctx.q))], identity)

    def test_torus_act_reduces_keys_to_lowest_terms(self, ctx, rep1, elliptic9):
        # the int form of t = 3/9, 0/9 and 9/27 is not in lowest terms; the
        # torus action keys its image at 1/3, 0 and 1/3
        for rep in (rep1, elliptic9):
            for k, u, e in ((0, 1, 1), (1, 2, -1), (-2, 4, 1)):
                for n in (-1, 0, 2):
                    for raw, lowest in (((3, 2), (1, 1)), ((0, 2), (0, 0)), ((9, 3), (1, 1)),
                                        ((-6, 2), (-2, 1))):
                        acted = rep._closed_act(
                            rep._torus_terms([((*raw, n, 0), CycValue.one(ctx.q))], k, u, e))
                        want = rep._closed_act(
                            rep._torus_terms([((*lowest, n, 0), CycValue.one(ctx.q))], k, u, e))
                        assert acted.terms == want.terms
                        assert_int_keys_in_lowest_terms(acted, 3)


class TestCanonicalPhi:
    TS = (Fraction(4, 3), Fraction(1, 2), Fraction(-2, 9), Fraction(7, 3))

    def test_keys_canonical_and_fixed_by_identity(self, ctx, rep1, rep2):
        identity = MetaElement.identity(ctx)
        for rep in (rep1, rep2):
            xi = rep.betas[0]
            for t in self.TS:
                for n in (-1, 0, 1):
                    v = rep.phi(t=t, n=n)
                    assert rep.act(identity, v) == v
                    for (r, j, _, _) in v.terms:
                        assert 0 <= r < 3**j and j in (0, 1, 2)
                    one = CycValue.one(ctx.q)
                    assert v == decomposition_terms(rep, [((t, n, 0), one)], identity)
                    if t.denominator % 2:
                        # a key may hold the non-canonical t itself
                        raw = InducedVector(ctx.q, {(*t_key(t, 3), n, 0): CycValue.one(ctx.q)})
                        assert rep.whittaker_functional(xi, v) == \
                            rep.whittaker_functional(xi, raw)


    def test_integer_fields_checked_not_truncated(self, rep1):
        # phi(n=1.5) was phi(n=1), phi(b=0.7) was phi(b=0)
        for kwargs in ({"n": 1.5}, {"b": 0.7}, {"n": "1"}):
            with pytest.raises(ValueError, match="must be an integer"):
                rep1.phi(**kwargs)
        assert rep1.phi(n=1.0, b=Fraction(0)) == rep1.phi(n=1)


class TestDirectPhi:
    """``Representation.phi`` writes its one term directly; the torus action
    at x = 1 (``_torus_terms`` at k = 0, u = 1, e = 1, then ``_closed_act``)
    on the int pair (c d^-1, j) of t = c/(p^j d) is its oracle.  The t have
    negative numerators, integral shifts and parts d prime to p in the
    denominator, with j <= l + 2."""

    @pytest.mark.parametrize("data", sorted(SIGMA_NAMES))
    def test_matches_torus_oracle(self, data):
        rep = Representation(named_sigma_once(data))
        ctx, p, m = rep.ctx, rep.ctx.p, rep.sigma.modulus
        one = CycValue.one(ctx.q)
        for j in range(rep.level + 3):
            for c, d, shift in itertools.product((-1, -2, -p - 1), (1, 2, 13), (0, 1, -p - 2)):
                t = Fraction(c, p**j * d) + shift
                rest, tj = t.denominator, 0
                while rest % p == 0:
                    rest, tj = rest // p, tj + 1
                r = t.numerator * pow(rest, -1, p**tj * m)
                for n in range(-2, 3):
                    for b in range(rep.dim):
                        oracle = rep._closed_act(rep._torus_terms([((r, tj, n, b), one)], 0, 1, 1))
                        assert rep.phi(t=t, n=n, b=b) == oracle, (t, n, b)


class TestSpectrum:
    def test_representatives(self, ctx, rep1, rep2):
        spec1 = rep1.spectrum()
        assert [r.xi for r in spec1.reps] == [Fraction(1, 3)]
        assert spec1.reps[0].abs_value == 3
        assert spec1.reps[0].square_class == (1, 1)
        assert len(spec1.dedup) == 1
        assert [r.xi for r in rep2.spectrum().reps] == [Fraction(2, 3)]
        assert rep2.spectrum().reps[0].square_class == (1, -1)

    def test_at_most_four_classes(self, rep1):
        assert len(rep1.spectrum().dedup) <= 4

    def test_membership(self, rep1):
        assert rep1.basis_index_for(Fraction(1, 3)) == 0
        assert rep1.basis_index_for(Fraction(4, 3)) == 0     # 1/3 + 1
        for xi in (Fraction(2, 3), Fraction(1, 9)):
            with pytest.raises(ValueError, match=rf"^xi={xi} is not in X\(pi\)$"):
                rep1.basis_index_for(xi)


class TestSplittingGate:
    def test_pass_remembered_per_p_failure_never(self, ctx, monkeypatch):
        from metaplectic import cover, repn
        monkeypatch.setattr(repn, "_SPLITTING_GATE_PASSED", set())
        kubota_split = cover.kubota_split
        with monkeypatch.context() as faulty:
            faulty.setattr(cover, "kubota_split",
                           lambda h: kubota_split(h) * (-1 if h.c == 0 else 1))
            for _ in range(2):
                with pytest.raises(cover.SplittingError):
                    Representation(builtin_sigma_p3(ctx, 1))
        assert repn._SPLITTING_GATE_PASSED == set()
        calls = []
        gate = repn.validate_kubota_splitting
        monkeypatch.setattr(repn, "validate_kubota_splitting",
                            lambda *args, **kw: calls.append(args) or gate(*args, **kw))
        Representation(builtin_sigma_p3(ctx, 1))
        Representation(builtin_sigma_p3(ctx, 2))
        assert len(calls) == 1


class TestWhittaker:
    def test_basis_values(self, rep1):
        xi = Fraction(1, 3)
        assert rep1.whittaker_functional(xi, rep1.phi()) == 1
        assert rep1.whittaker_functional(xi, rep1.phi(n=1)) == 0
        assert rep1.whittaker_functional(xi, rep1.phi(t=Fraction(1, 3))) == \
            rep1.psi.twist(xi).value(Fraction(-1, 3))

    def test_rejects_foreign_xi(self, rep1):
        with pytest.raises(ValueError):
            rep1.whittaker_functional(Fraction(2, 3), rep1.phi())

    def test_equivariance(self, ctx, rep1, rng):
        xi = Fraction(1, 3)
        psi_xi = rep1.psi.twist(xi)
        for _ in range(100):
            a = Fraction(rng.randrange(-27, 28), 3 ** rng.randrange(0, 3))
            v = rep1.phi(t=Fraction(rng.randrange(0, 9), 9), n=rng.choice([-1, 0, 1]))
            lhs = rep1.whittaker_functional(xi, rep1.act(MetaElement.n(ctx, a), v))
            assert lhs == psi_xi.value(a) * rep1.whittaker_functional(xi, v)

    def test_function_at_identity(self, ctx, rep1):
        xi = Fraction(1, 3)
        assert rep1.whittaker_function(xi, rep1.phi(), MetaElement.identity(ctx)) == 1

    def test_genuineness(self, ctx, rep1):
        xi = Fraction(1, 3)
        v = rep1.phi()
        for g in (MetaElement.identity(ctx), MetaElement.w(ctx)):
            plus = rep1.whittaker_function(xi, v, g)
            minus = rep1.whittaker_function(xi, v, MetaElement.central(ctx, -1) * g)
            assert minus == -plus

    def test_torus_support_window(self, ctx, rep1):
        # W(<a>) vanishes for |a| large and small; nonzero window is contiguous
        xi = Fraction(1, 3)
        v = rep1.phi()
        hits = []
        for j in range(-7, 8):
            val = rep1.whittaker_function(xi, v, MetaElement.torus(ctx, Fraction(3) ** j))
            if not val.is_zero():
                hits.append(j)
        assert hits == [0]


class TestCFactor:
    def test_identity(self, rep1):
        assert c_factor(rep1, Fraction(1, 3), 1) == 1

    def test_units(self, rep1):
        for a in (2, 4, 5, 7):
            value = c_factor(rep1, Fraction(1, 3), a)
            assert not value.is_zero()

    def test_defining_relation_on_random_vectors(self, ctx, rep1, rng):
        xi = Fraction(1, 3)
        for _ in range(30):
            a = rng.choice([1, 2, 4, 5, 7, 8])
            v = rep1.phi(t=Fraction(rng.randrange(0, 9), 9), n=rng.choice([-1, 0, 1]))
            lhs = rep1.whittaker_functional(xi, rep1.act(MetaElement.torus(ctx, a), v))
            rhs = c_factor(rep1, xi, a) * rep1.whittaker_functional(a * a * xi, v)
            assert lhs == rhs

    def test_rejects_outside_spectrum(self, rep1):
        with pytest.raises(ValueError, match=r"^xi=2/3 is not in X\(pi\)$"):
            c_factor(rep1, Fraction(2, 3), 1)


class TestCentralCharacter:
    def test_minus_one(self, rep1, rep2):
        assert rep1.central_sign_minus_one() == 1
        assert rep2.central_sign_minus_one() == 1

    def test_computed_once(self, ctx, monkeypatch):
        rep = Representation(builtin_sigma_p3(ctx, 1))
        calls = []
        act = rep.act
        monkeypatch.setattr(rep, "act", lambda g, v: calls.append(g) or act(g, v))
        assert rep.central_sign_minus_one() == 1
        assert rep.central_sign_minus_one() == 1
        assert len(calls) == 1

    def test_non_scalar_action_raises_every_time(self, ctx, monkeypatch):
        rep = Representation(builtin_sigma_p3(ctx, 1))
        act = rep.act
        monkeypatch.setattr(rep, "act", lambda g, v: act(g, v) + rep.phi(n=1))
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="scalar"):
                rep.central_sign_minus_one()
        monkeypatch.setattr(rep, "act", act)
        assert rep.central_sign_minus_one() == 1
