"""Mutation gate: small faults in the library that named tests must catch.

    python tests/mutants.py

Each mutant is (name, file under src/, exact old text, new text, test ids).
The script first runs the union of the test ids on the unchanged src/,
where they must pass.  Then, for each mutant, it copies src/ to a temporary
directory, replaces the old text, which must occur exactly once in its file,
and runs each of the mutant's test ids on its own against the copy (pytest's
`pythonpath` option pointed at it).  A mutant is killed when each of those
tests fails; a named test that passes against the mutant is printed.

The exit status is 1 if a mutant survives, if its old text does not occur
exactly once (a refactor that moves the code must move the mutant along), or
if pytest stops for any reason other than failing tests; 0 when every mutant
is killed.  Standard library only; pytest runs in a subprocess.  The file
is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant("torus-drops-hilbert-factor", "metaplectic/repn.py",
           "eps = e * hilbert_int(p, k, u, -n, -1) * hilbert_int(p, k - n, 1, 0, u)",
           "eps = e * hilbert_int(p, k - n, 1, 0, u)",
           ("tests/test_repn.py::TestTorusClosedForm::test_matches_decomposition",)),
    Mutant("torus-t-u-for-t-u-squared", "metaplectic/repn.py",
           "carry, r = divmod(c * u * u, pj)",
           "carry, r = divmod(c * u, pj)",
           ("tests/test_repn.py::TestTorusClosedForm::test_matches_decomposition",)),
    Mutant("deep-gamma-transposed-eigen-index", "metaplectic/zeta.py",
           "c = rep.unit_torus_value(u.u)[b_xi][b_eta]",
           "c = rep.unit_torus_value(u.u)[b_eta][b_xi]",
           ("tests/test_zeta.py::TestGammaDeepShells::test_weil_data_matches_oracle",)),
    Mutant("cyc-no-level-normalization", "metaplectic/exactnum.py",
           "        if n != 1:\n            g = math.gcd(n, *coeffs)\n",
           "        if False:\n            g = math.gcd(n, *coeffs)\n",
           ("tests/test_exactnum.py::TestLevelIndependence::"
            "test_equal_values_are_interchangeable_keys",
            "tests/test_exactnum.py::TestLevelIndependence::test_value_through_a_higher_level")),
    Mutant("check-fe-first-class-only", "metaplectic/zeta.py",
           "for eta_rep in rep.spectrum().dedup:",
           "for eta_rep in rep.spectrum().dedup[:1]:",
           ("tests/test_zeta.py::TestNormFormData::test_functional_equation_on_both_classes",
            "tests/test_zeta.py::TestEllipticData::test_functional_equation_on_both_classes")),
    Mutant("bessel-direct-skips-xi-before-shortcut", "metaplectic/zeta.py",
           "    rep.basis_index_for(xi)  # outside X(pi) raises, also before the v(x) > 0 "
           "shortcut\n",
           "",
           ("tests/test_zeta.py::TestOneMembershipDoor::"
            "test_every_entry_point_raises_and_caches_nothing[xi]",)),
    Mutant("sigma-closure-skips-edge-check", "metaplectic/repn.py",
           "                    elif prev != prod:\n",
           "                    elif False:\n",
           ("tests/test_repn.py::TestValidationAtConstruction::"
            "test_builtin_generators_with_w_negated_not_multiplicative",)),
    Mutant("sigma-skips-given-entries", "metaplectic/repn.py",
           "            if closed.get(key) != mat:\n",
           "            if False:\n",
           ("tests/test_repn.py::TestHomomorphismCheck::test_every_single_corruption_rejected",)),
    Mutant("sigma-skips-beta-denominator", "metaplectic/repn.py",
           "            if beta.denominator != pl:\n",
           "            if False:\n",
           ("tests/test_repn.py::TestValidationAtConstruction::"
            "test_builtin_plus_trivial_rejected_as_not_cuspidal",
            "tests/test_repn.py::TestStrongCuspidality::test_trivial_representation_fails")),
    Mutant("bessel-closed-torus-drops-x-unit", "metaplectic/zeta.py",
           "hit = rep.unit_torus_value(t)[b_out][b_in]",
           "hit = rep.unit_torus_value(uy_inv)[b_out][b_in]",
           ("tests/test_zeta.py::TestBesselClosedTorusForm::"
            "test_weil_data_direct_agrees_with_closed",)),
    # The product keys of the deep-shell integrands that share products:
    # each mutant keys on less than the product reads, so samples that
    # differ share a value.  No mutant drops the closed sum's Hilbert sign:
    # t mod p and u mod p fix it, so the results would not change and no
    # test could kill it.  The deep integrand keys on u mod p^m; keyed on
    # u^2, as the key of a is, it fixes u only up to sign, which a character
    # whose parity fails sees.
    Mutant("bessel-closed-product-key-drops-psi-pair", "metaplectic/zeta.py",
           "key = (t, sign, root)",
           "key = (t, sign)",
           ("tests/test_zeta.py::TestBesselClosedTorusForm::"
            "test_d_term_columns_match_cover_route_oracle[norm5]",)),
    Mutant("deep-gamma-product-key-drops-unit", "metaplectic/zeta.py",
           "            key = u.u % pm\n",
           "            key = u.u * u.u % pm\n",
           ("tests/test_zeta.py::TestGammaEarlyExit::test_equals_full_scan[rep1]",)),
    # The Gauss-sum support of the deep shells (gamma_coefficient): moving
    # the one shell that is computed zeroes the support shell, and
    # computing the shells below it integrates T on the wrong shell there.
    # The gamma factor solved from the functional equation, which reads no
    # Bessel function, sees the moved shell too
    Mutant("deep-gamma-support-shell-moved", "metaplectic/zeta.py",
           "if n != m - rep.level:",
           "if n != m - rep.level + 1:",
           ("tests/test_zeta.py::TestGammaDeepShells::"
            "test_support_law_on_every_named_datum[rep1]",
            "tests/test_zeta.py::TestGammaFromFunctionalEquation::"
            "test_class_matrix_equals_gamma_factor[builtin1]")),
    Mutant("deep-gamma-computes-shells-below-support", "metaplectic/zeta.py",
           "if n != m - rep.level:",
           "if n > m - rep.level:",
           ("tests/test_zeta.py::TestGammaDeepShells::"
            "test_support_law_on_every_named_datum[rep1]",)),
    # The sampling levels of the three deep-shell integrals: each mutant
    # samples one level below what its integrand reads, so the gate refines
    # (or accepts at the wrong level) where the docstring proves one pass.
    Mutant("bessel-kernel-level-below-read-level", "metaplectic/zeta.py",
           "ShellIntegralPlan(k, -k, ADDITIVE_DX)",
           "ShellIntegralPlan(k, -k - 1, ADDITIVE_DX)",
           ("tests/test_zeta.py::TestDeepShellLevels::"
            "test_one_gate_pass_at_the_read_level[rep1-2]",)),
    Mutant("bessel-closed-level-below-read-level", "metaplectic/zeta.py",
           "ShellIntegralPlan(n, abs(n), ADDITIVE_DX)",
           "ShellIntegralPlan(n, abs(n) - 1, ADDITIVE_DX)",
           ("tests/test_zeta.py::TestDeepShellLevels::"
            "test_one_gate_pass_at_the_read_level[rep1-2]",)),
    Mutant("deep-gamma-level-ignores-conductor", "metaplectic/zeta.py",
           "ShellIntegralPlan(0, m, MULTIPLICATIVE_DX)",
           "ShellIntegralPlan(0, rep.level, MULTIPLICATIVE_DX)",
           ("tests/test_zeta.py::TestDeepShellLevels::"
            "test_one_gate_pass_at_the_read_level[rep1-2]",)),
    Mutant("gamma-early-exit-skips-certificate", "metaplectic/zeta.py",
           "    if defects:\n",
           "    if False:\n",
           ("tests/test_zeta.py::TestGammaEarlyExit::"
            "test_wrong_coefficient_raises_and_caches_nothing",)),
    Mutant("gamma-deep-threshold-at-one", "metaplectic/zeta.py",
           "    if n >= rep.level:\n",
           "    if n >= 1:\n",
           ("tests/test_zeta.py::TestEllipticData::"
            "test_gamma_coefficients_match_bessel_table_oracle",
            "tests/test_zeta.py::TestGammaFromFunctionalEquation::"
            "test_class_matrix_equals_gamma_factor[elliptic9]")),
    Mutant("gamma-scan-stops-on-first-pair-only", "metaplectic/zeta.py",
           "if any(not column[n].is_zero() for column in coeffs.values()):",
           "if not next(iter(coeffs.values()))[n].is_zero():",
           ("tests/test_zeta.py::TestGammaEarlyExit::test_equals_full_scan[elliptic9]",)),
    Mutant("gamma-certifies-representatives-only", "metaplectic/zeta.py",
           "return [xi if r.square_class == own else r.xi for r in rep.spectrum().dedup]",
           "return [r.xi for r in rep.spectrum().dedup]",
           ("tests/test_zeta.py::TestGammaEarlyExit::"
            "test_every_pair_of_betas_equals_full_scan[weil5]",)),
    Mutant("gamma-parity-failure-skips-zero-check", "metaplectic/zeta.py",
           "defects = {k: gf.poly for k, gf in found.items() if not gf.poly.is_zero()}",
           "defects = {}",
           ("tests/test_zeta.py::TestGammaEarlyExit::"
            "test_nonzero_coefficient_against_parity_raises_and_caches_nothing",)),
    Mutant("gamma-support-bound-level-one", "metaplectic/zeta.py",
           "return 2 * max(rep.level, mu.m) - rep.level",
           "return 2 * max(rep.level, mu.m) - 1",
           ("tests/test_zeta.py::TestEllipticData::test_support_bound_reads_the_level",)),
    Mutant("bessel-closed-guard-at-level-one", "metaplectic/zeta.py",
           "    if n > -rep.level:\n",
           "    if n > -1:\n",
           ("tests/test_zeta.py::TestEllipticData::"
            "test_closed_bessel_needs_shells_at_or_below_minus_level",)),
    Mutant("zeta-one-level-for-every-shell", "metaplectic/zeta.py",
           "level = max(rep.level + j, mu.m, 1)",
           "level = max(rep.level, mu.m) + 1",
           ("tests/test_zeta.py::TestZetaShellLevels::test_one_gate_pass_per_shell",)),
    Mutant("zeta-term-memo-ignores-character", "metaplectic/zeta.py",
           "key = (xi, mu_key, term)",
           "key = (xi, term)",
           ("tests/test_zeta.py::TestZetaTermMemo::test_shared_representation_matches_fresh",)),
    Mutant("zeta-term-memo-ignores-xi", "metaplectic/zeta.py",
           "key = (xi, mu_key, term)",
           "key = (mu_key, term)",
           ("tests/test_zeta.py::TestZetaTermMemo::test_shared_representation_matches_fresh",)),
    Mutant("refinement-gate-accepts-anything", "metaplectic/zeta.py",
           "        if v1 == v2:\n",
           "        if True:\n",
           ("tests/test_zeta.py::TestShellIntegral::test_refinement_gate_failure",)),
    Mutant("w-translate-skips-act-gate", "metaplectic/repn.py",
           "                if value != oracle:\n",
           "                if False:\n",
           ("tests/test_zeta.py::TestWTranslateGate::test_mutated_closed_form_raises",)),
    Mutant("genuine-eval-drops-kubota-sign", "metaplectic/repn.py",
           "if x.eps * kubota_split(x.g) == 1:",
           "if x.eps == 1:",
           ("tests/test_repn.py::TestGenuineEvaluation::test_multiplicative",)),
    Mutant("bessel-spot-check-marks-before-probes", "metaplectic/zeta.py",
           "        for u in _unit_residues_mod(p**2)[:2]:\n",
           "        self._checked_shells.add(n)\n"
           "        for u in _unit_residues_mod(p**2)[:2]:\n",
           ("tests/test_zeta.py::TestBessel::test_failed_spot_check_is_not_remembered",)),
    Mutant("sl2-skips-gcd-normalization", "metaplectic/cover.py",
           "        if g != 1:\n            na, nb, nc, nd, den = ",
           "        if den < 0:\n            na, nb, nc, nd, den = ",
           ("tests/test_cover.py::TestCanonicalForm::"
            "test_routes_to_the_same_matrix_compare_and_hash_equal",)),
    Mutant("sl2-integral-reads-a-numerator", "metaplectic/cover.py",
           "return self.den % self.ctx.p != 0",
           "return self.na % self.ctx.p != 0",
           ("tests/test_cover.py::TestCanonicalForm::"
            "test_is_integral_exactly_when_denominator_prime_to_p",)),
    Mutant("cyc-unit-fast-path-drops-sign", "metaplectic/exactnum.py",
           "return self if num == 1 else -self",
           "return self",
           ("tests/test_exactnum.py::TestMultiplicationFastPaths::"
            "test_rationals_times_multi_term_match_convolution",)),
    Mutant("torus-act-keys-without-lowest-terms", "metaplectic/repn.py",
           "            if j and not r % p:\n                r, j = _lowest_terms(r, j, p)\n",
           "",
           ("tests/test_repn.py::TestIntKeys::test_torus_act_reduces_keys_to_lowest_terms",)),
    Mutant("cocycle-drops-denominator-unit", "metaplectic/cover.py",
           "hilbert_int(p, va, na * da, vb, nb * db)",
           "hilbert_int(p, va, na, vb, nb * db)",
           ("tests/test_cover.py::TestCocycleAgainstHilbertFrac::test_every_pair_of_small_words[3]",)),
    Mutant("coset-decompose-swaps-row-scales", "metaplectic/cover.py",
           "D * pm * sy - C * tc * sx, E * pm * pn)",
           "D * pm * sx - C * tc * sy, E * pm * pn)",
           ("tests/test_cover.py::TestFractionFreeAgainstReference::test_coset_decompose[5]",)),
    Mutant("sigma-dual-rows-skip-normalization", "metaplectic/repn.py",
           "pivot = proj[r0][col].inverse()",
           "pivot = Fraction(1, pl)",
           ("tests/test_repn.py::TestEigenBasis::test_unipotent_acts_diagonally[elliptic9]",)),
    Mutant("w-closed-drops-sign", "metaplectic/repn.py",
           "eps = e * legendre_int(p, r if n % 2 else -r) if j % 2 else e",
           "eps = e",
           ("tests/test_repn.py::TestWClosedForm::test_matches_decomposition[builtin1]",)),
    Mutant("w-closed-shell-minus-n", "metaplectic/repn.py",
           "yield rw, j, -j - n, b",
           "yield rw, j, -n, b",
           ("tests/test_repn.py::TestWClosedForm::test_matches_decomposition[builtin1]",)),
    Mutant("w-closed-key-reads-r", "metaplectic/repn.py",
           "pj % m, -r % m)",
           "pj % m, r % m)",
           ("tests/test_repn.py::TestWClosedForm::test_matches_decomposition[builtin1]",)),
)


def _pytest(src: Path, tests) -> int:
    """pytest's exit status on `tests`, with the package imported from `src`."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run(mutant: Mutant) -> str:
    """'killed', or why the mutant does not count as killed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        path = src / mutant.file
        text = path.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return f"stale: the old text occurs {count} times in src/{mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        statuses = {test: _pytest(src, (test,)) for test in mutant.tests}
    passing = [test for test, status in statuses.items() if status == 0]
    if passing:
        return "SURVIVED: " + ", ".join(passing) + " passes"
    status = max(statuses.values())
    return "killed" if status == 1 else f"pytest exit status {status}, not a test failure"


def main() -> int:
    control = sorted({t for m in MUTANTS for t in m.tests})
    status = _pytest(ROOT / "src", control)
    if status != 0:
        print(f"the mutants' tests fail on the unchanged library (pytest exit status {status})")
        return 1
    failed = 0
    for mutant in MUTANTS:
        verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
