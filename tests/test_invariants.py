"""Negative controls for the property suites: each suite must catch a fault
planted in what it checks, so a suite that silently checks nothing fails."""

import json
import random
from fractions import Fraction

import pytest

from metaplectic import CycValue, MetaElement, Representation, builtin_sigma_p3, named_sigma
from metaplectic import cover, invariants, zeta
from metaplectic.cli import main


def _sign_by_lower_entry(monkeypatch, ctx):
    # {g,h} s(g) with s(g) = -1 exactly when c = 0: no longer a 2-cocycle
    cocycle = invariants.cocycle
    monkeypatch.setattr(invariants, "cocycle",
                        lambda g, h, gh=None: cocycle(g, h, gh) * (-1 if g.c == 0 else 1))


def _split_sign_by_lower_entry(monkeypatch, ctx):
    kubota_split = cover.kubota_split
    monkeypatch.setattr(cover, "kubota_split",
                        lambda h: kubota_split(h) * (-1 if h.c == 0 else 1))


def _flip_odd_coset_lift(monkeypatch, ctx):
    decompose_meta = invariants.decompose_meta

    def faulty(m):
        h_meta, dec = decompose_meta(m)
        return MetaElement(h_meta.g, -h_meta.eps if dec.n % 2 else h_meta.eps), dec

    monkeypatch.setattr(invariants, "decompose_meta", faulty)


def _alpha_off_square_class(monkeypatch, ctx):
    # still of modulus one, but not constant on square classes
    weil_alpha = invariants.weil_alpha
    monkeypatch.setattr(invariants, "weil_alpha",
                        lambda a: -weil_alpha(a) if a.valuation() >= 2 else weil_alpha(a))


def _hilbert_negated_on_one_class(monkeypatch, ctx):
    hilbert_symbol = invariants.hilbert_symbol

    def faulty(a, b):
        value = hilbert_symbol(a, b)
        return -value if (a.valuation(), b.valuation()) == (1, 1) else value

    monkeypatch.setattr(invariants, "hilbert_symbol", faulty)


def _unipotent_acts_twice(monkeypatch, rep):
    act = rep.act
    monkeypatch.setattr(rep, "act",
                        lambda x, v: act(x * x if x.g.c == 0 and x.g.a == 1 else x, v))


def _closed_bessel_off_by_one(monkeypatch, rep):
    bessel_closed = zeta.bessel_closed
    monkeypatch.setattr(zeta, "bessel_closed",
                        lambda *args: bessel_closed(*args) + CycValue.one(rep.ctx.q))


def _gamma_shifted(monkeypatch, rep):
    gamma_coefficient = invariants.gamma_coefficient
    monkeypatch.setattr(invariants, "gamma_coefficient",
                        lambda rep, xi, eta, mu, n: gamma_coefficient(rep, xi, eta, mu, n - 2))


def _gamma_corrupted_once(monkeypatch, rep):
    # one coefficient off by one: gamma(0) of the trivial character
    gamma_coefficient = invariants.gamma_coefficient

    def faulty(rep, xi, eta, mu, n):
        value = gamma_coefficient(rep, xi, eta, mu, n)
        return value + 1 if n == 0 and mu.is_trivial() else value

    monkeypatch.setattr(invariants, "gamma_coefficient", faulty)


# suite -> (planted fault, run of the suite, words of its counterexample)
GROUP_FAULTS = {
    "cocycle": (_sign_by_lower_entry,
                lambda ctx, rng: invariants.check_cocycle(ctx, rng, 200),
                "2-cocycle identity fails"),
    "kubota-splitting": (_split_sign_by_lower_entry,
                         lambda ctx, rng: invariants.check_kubota_splitting(ctx, rng, 200),
                         "splitting candidate failed"),
    "coset-roundtrip": (_flip_odd_coset_lift,
                        lambda ctx, rng: invariants.check_coset_roundtrip(ctx, rng, 200),
                        "round trip fails"),
    "characters": (_alpha_off_square_class,
                   lambda ctx, rng: invariants.check_characters(ctx, rng, 100),
                   r"alpha\(a t\^2\) != alpha\(a\)"),
    "hilbert-oracle": (_hilbert_negated_on_one_class,
                       lambda ctx, rng: invariants.check_hilbert_oracle(ctx),
                       "disagrees with oracle"),
}

REP_FAULTS = {
    "whittaker-equivariance": (
        _unipotent_acts_twice,
        lambda rep, rng: invariants.check_whittaker_equivariance(rep, rng, 50),
        "equivariance fails"),
    "bessel-agreement": (_closed_bessel_off_by_one,
                         lambda rep, rng: invariants.check_bessel_agreement(rep),
                         "Bessel methods disagree"),
    "shell-vanishing": (_gamma_shifted,
                        lambda rep, rng: invariants.check_shell_vanishing(rep),
                        r"gamma\(2\) != 0"),
    "gamma-involution": (_gamma_corrupted_once,
                         lambda rep, rng: invariants.check_gamma_involution(rep),
                         r"involution fails for MultChar\(trivial, p=3\) at \(1/3, 1/3\)"),
}


@pytest.mark.parametrize("suite", sorted(GROUP_FAULTS))
def test_group_suite_catches_fault(monkeypatch, ctx, suite):
    plant, run, counterexample = GROUP_FAULTS[suite]
    run(ctx, random.Random(1))  # passes on the sound code
    plant(monkeypatch, ctx)
    with pytest.raises(AssertionError, match=counterexample):
        run(ctx, random.Random(1))


@pytest.mark.parametrize("suite", sorted(REP_FAULTS))
def test_rep_suite_catches_fault(monkeypatch, ctx, suite):
    # fresh representations, so the fault meets no cached value and leaves
    # none behind
    plant, run, counterexample = REP_FAULTS[suite]
    run(Representation(builtin_sigma_p3(ctx, 1)), random.Random(1))  # sound
    rep = Representation(builtin_sigma_p3(ctx, 1))
    plant(monkeypatch, rep)
    with pytest.raises(AssertionError, match=counterexample):
        run(rep, random.Random(1))


@pytest.mark.parametrize("data", ["weil5", "weil7"])
@pytest.mark.parametrize("suite", sorted(REP_FAULTS))
def test_rep_suite_passes_on_weil_data(request, suite, data):
    # the representation suites beyond p = 3, dim 1, on the session
    # fixtures; CI runs the full check-invariants command on the named data
    # weil5, weil7 and norm5
    _, run, _ = REP_FAULTS[suite]
    run(request.getfixturevalue(data), random.Random(1))


SECOND_CLASS = Fraction(2, 3)  # the second square class of norm3, after 1/3


def _functional_off_on_second_class(monkeypatch, rep):
    functional = rep.whittaker_functional

    def faulty(xi, v, *torus):
        value = functional(xi, v, *torus)
        return value + 1 if xi == SECOND_CLASS else value

    monkeypatch.setattr(rep, "whittaker_functional", faulty)


def _closed_bessel_off_on_second_class(monkeypatch, rep):
    bessel_closed = zeta.bessel_closed

    def faulty(rep, xi, eta, x):
        value = bessel_closed(rep, xi, eta, x)
        return value + 1 if xi == SECOND_CLASS else value

    monkeypatch.setattr(zeta, "bessel_closed", faulty)


def _gamma_off_on_second_class(monkeypatch, rep):
    # not a shift: for the trivial character every gamma of norm3 is zero
    gamma_coefficient = invariants.gamma_coefficient

    def faulty(rep, xi, eta, mu, n):
        value = gamma_coefficient(rep, xi, eta, mu, n)
        return value + 1 if xi == SECOND_CLASS else value

    monkeypatch.setattr(invariants, "gamma_coefficient", faulty)


# suite -> (fault planted on the second square class only, its counterexample)
SECOND_CLASS_FAULTS = {
    "whittaker-equivariance": (_functional_off_on_second_class,
                               "equivariance fails at xi=2/3"),
    "bessel-agreement": (_closed_bessel_off_on_second_class,
                         r"\(2/3, 1/3\): Bessel methods disagree"),
    "shell-vanishing": (_gamma_off_on_second_class, r"gamma\(2\) != 0 at \(2/3, 1/3\)"),
}


@pytest.mark.parametrize("suite", sorted(SECOND_CLASS_FAULTS))
def test_rep_suite_reads_every_class(monkeypatch, norm3, suite):
    # a suite that read only the first class, 1/3, would pass with the fault
    plant, counterexample = SECOND_CLASS_FAULTS[suite]
    _, run, _ = REP_FAULTS[suite]
    run(norm3, random.Random(1))  # sound
    rep = Representation(named_sigma("norm3"))
    plant(monkeypatch, rep)
    with pytest.raises(AssertionError, match=counterexample):
        run(rep, random.Random(1))


def test_failed_suite_reported(monkeypatch, capsys, ctx):
    _sign_by_lower_entry(monkeypatch, ctx)
    rc = main(["--command", "check-invariants", "--trials", "50", "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert {suite["suite"]: suite["pass"] for suite in report["suites"]} == {
        "cocycle": False, "kubota-splitting": True, "coset-roundtrip": True,
        "characters": True, "hilbert-oracle": True, "whittaker-equivariance": True,
        "bessel-agreement": True, "shell-vanishing": True, "gamma-involution": True,
    }
    (failed,) = [suite for suite in report["suites"] if not suite["pass"]]
    assert "2-cocycle identity fails" in failed["detail"]
