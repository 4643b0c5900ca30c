"""Command-line surface: configuration, sigma-table ingestion, running the
computations, and machine-readable reporting.

Commands
--------
example           run the p = 3 pipeline and assert the gamma factor is 4/3
gamma             gamma factors for the spectrum representatives
zeta              zeta polynomials for the configured vectors
bessel            Bessel values on shells around the unit shell
check-fe          functional-equation residuals for a (vector, character) matrix
check-invariants  the property suites of ``invariants``, structured pass/fail

Exact values serialize as flat term lists so downstream tooling can re-verify
exactness; floats are advisory only.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import invariants
from .exactnum import CycValue, LaurentPoly, PadicContext
from .localchar import MultChar
from .repn import (SIGMA_NAMES, InducedVector, Representation, SigmaRep, named_sigma,
                   sigma_from_dict)
from .zeta import bessel_table, check_fe, gamma_factor, zeta_function


class ConfigError(ValueError):
    pass


# -- serialization ------------------------------------------------------------


def cyc_to_json(value: CycValue) -> dict:
    return {
        "terms": [
            {
                "numerator": coeff.numerator,
                "denominator": coeff.denominator,
                "root_of_unity_num": expo.numerator,
                "root_of_unity_den": expo.denominator,
                "sqrtq": False,
            }
            for coeff, expo in value.terms()
        ]
    }


def cyc_from_json(q: int, data: dict) -> CycValue:
    """The inverse of ``cyc_to_json``, for tooling that re-reads a report."""
    return CycValue.from_terms(
        q,
        [
            (Fraction(t["numerator"], t["denominator"]),
             Fraction(t["root_of_unity_num"], t["root_of_unity_den"]),
             bool(t["sqrtq"]))
            for t in data["terms"]
        ],
    )


def poly_to_json(poly: LaurentPoly) -> dict:
    terms = []
    for n in poly.support():
        z = poly.coeffs[n].to_complex()
        terms.append({
            "exp": n,
            "value_float_re": z.real,
            "value_float_im": z.imag,
            "value_exact": cyc_to_json(poly.coeffs[n]),
        })
    return {"variable": poly.var, "terms": terms}


def poly_from_json(q: int, data: dict) -> LaurentPoly:
    """The inverse of ``poly_to_json``, for tooling that re-reads a report."""
    return LaurentPoly(q, data["variable"],
                       {t["exp"]: cyc_from_json(q, t["value_exact"]) for t in data["terms"]})


def poly_to_text(poly: LaurentPoly) -> str:
    if poly.is_zero():
        return "0"
    return " + ".join(f"[{poly.coeffs[n]!r}] * ({poly.var})^{n}" for n in poly.support())


# -- vector expressions ---------------------------------------------------------

_ATOM = re.compile(
    r"phi\(\s*(?:t\s*=\s*(?P<t>-?\d+(?:/\d+)?)\s*,?\s*)?"
    r"(?:n\s*=\s*(?P<n>-?\d+)\s*,?\s*)?"
    r"(?:b\s*=\s*(?P<b>\d+)\s*)?\)")


def parse_vector_expression(rep: Representation, text: str) -> InducedVector:
    """Signed rational combinations of atoms phi(t=<rational>, n=<int>, b=<index>);
    a zero denominator, a basis index >= dim, a sign with no term after it
    and two terms with no + or - between them are ConfigErrors."""
    out = InducedVector.zero(rep.ctx.q)
    pos = 0
    text = text.strip()
    if not text:
        raise ConfigError("empty vector expression")
    while pos < len(text):
        sign, signed = 1, False
        while pos < len(text) and text[pos] in "+- \t":
            if text[pos] == "-":
                sign = -sign
            signed = signed or text[pos] in "+-"
            pos += 1
        if pos >= len(text):
            raise ConfigError(f"sign with no term after it in {text!r}")
        if pos and not signed:
            raise ConfigError(f"missing + or - before {text[pos:]!r}")
        start, coeff = pos, "1"
        m = re.match(r"(\d+(?:/\d+)?)\s*\*\s*", text[pos:])
        if m:
            coeff = m.group(1)
            pos += m.end()
        m = _ATOM.match(text, pos)
        if not m:
            raise ConfigError(f"cannot parse vector expression at: {text[pos:]!r}")
        try:
            out = out + rep.phi(t=Fraction(m.group("t") or 0), n=int(m.group("n") or 0),
                                b=int(m.group("b") or 0), coeff=sign * Fraction(coeff))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"invalid vector term {text[start:m.end()]!r}: "
                              f"{type(exc).__name__}: {exc}") from exc
        pos = m.end()
    return out


def default_vectors(rep: Representation) -> dict:
    p = rep.ctx.p
    return {
        "phi(t=0, n=0, b=0)": rep.phi(),
        f"phi(t=1/{p**rep.level}, n=0, b=0)": rep.phi(t=Fraction(1, p**rep.level)),
        "phi(t=0, n=1, b=0)": rep.phi(n=1),
    }


# -- configuration ----------------------------------------------------------------


def _configured(what: str, build, invalid=()):
    """build(), with unreadable input, malformed JSON, a record missing a
    field and the exception types `invalid` reported as a ConfigError."""
    try:
        return build()
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"{what} is missing the field {exc}") from exc
    except invalid as exc:
        raise ConfigError(f"{what} is invalid: {type(exc).__name__}: {exc}") from exc


def _read(path: str, parse=json.load):
    with open(path) as fh:
        return parse(fh)


def build_sigma(source: str) -> SigmaRep:
    """A name in ``SIGMA_NAMES``, else a path to a sigma table file; either
    datum carries its own p and context."""
    if source in SIGMA_NAMES:
        return named_sigma(source)
    return _configured(f"sigma table {source!r}", lambda: sigma_from_dict(_read(source)))


def build_mu(ctx: PadicContext, spec: str) -> MultChar:
    if spec == "trivial":
        return MultChar.trivial(ctx)
    # a record of the wrong shape, a non-integer field, a zero denominator or
    # an exponent MultChar rejects is a configuration error too
    return _configured(f"character record {spec!r}", lambda: MultChar.from_spec(
        ctx, _read(spec[1:]) if spec.startswith("@") else json.loads(spec)),
        invalid=(TypeError, ValueError, ZeroDivisionError))


def load_vectors(rep: Representation, path: str | None) -> dict:
    if path is None:
        return default_vectors(rep)
    out = {}
    for line in _configured(f"vectors file {path!r}", lambda: _read(path, list)):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out[line] = parse_vector_expression(rep, line)
    if not out:
        raise ConfigError(f"no vector expressions found in {path!r}")
    return out


# -- commands ----------------------------------------------------------------------
#
# Each command returns (report, text_lines, status): the JSON report and the
# table lines, both built from the same computed objects, and the exit status.
# Only `main` prints, in the format --output asks for.


def cmd_example(rep: Representation, args):
    """Run the p = 3 pipeline; assert the gamma factor equals 4/3 exactly for
    the first builtin datum (the second is reported, not asserted)."""
    ctx = rep.ctx
    mu = MultChar.trivial(ctx)
    xi = rep.spectrum().dedup[0].xi
    gf = gamma_factor(rep, xi, xi, mu)
    shells = sorted(gf.coefficients.items())
    expected = CycValue.rational(ctx.q, Fraction(4, 3))
    is_first = args.sigma == "builtin1"
    constant = gf.poly.coeffs.get(0, CycValue.zero(ctx.q))
    passed = (not is_first) or (
        gf.poly.support() in ([], [0]) and constant == expected)
    report = {
        "command": "example",
        "p": ctx.p,
        "sigma": args.sigma,
        "xi": str(xi),
        "gamma_factor": poly_to_json(gf.poly),
        "shells": [{"shell_exponent": n, "gamma_n": cyc_to_json(coeff),
                    "gamma_n_repr": repr(coeff)} for n, coeff in shells],
        "asserted": is_first,
        "pass": passed,
    }
    lines = [f"p = {ctx.p}, sigma = {args.sigma}, xi = {xi}",
             "shell-by-shell gamma coefficients:",
             *(f"  gamma({n}) = {coeff!r}" for n, coeff in shells),
             f"Gamma(s) = {poly_to_text(gf.poly)}"]
    if is_first:
        lines.append(f"gamma = {constant!r} "
                     + ("(exact), PASS" if passed else "(exact), FAIL: expected 4/3"))
    else:
        lines.append("constant reported (no assertion for this datum)")
    return report, lines, 0 if passed else 1


def cmd_gamma(rep: Representation, args):
    mu = build_mu(rep.ctx, args.mu)
    cases, lines = [], []
    for xi_rep in rep.spectrum().dedup:
        for eta_rep in rep.spectrum().dedup:
            gf = gamma_factor(rep, xi_rep.xi, eta_rep.xi, mu)
            cases.append({"xi": str(xi_rep.xi), "eta": str(eta_rep.xi),
                          "support_bound": gf.support_bound,
                          "zero_by_theorem": list(gf.zero_by_theorem),
                          "poly": poly_to_json(gf.poly)})
            proven = ", ".join(map(str, gf.zero_by_theorem)) or "none"
            lines += [f"Gamma^(xi={xi_rep.xi}, eta={eta_rep.xi})(s), "
                      f"support <= {gf.support_bound}, zero by theorem: {proven}:",
                      "  " + poly_to_text(gf.poly)]
    return {"command": "gamma", "mu": mu.spec_record(), "cases": cases}, lines, 0


def cmd_zeta(rep: Representation, args):
    mu = build_mu(rep.ctx, args.mu)
    vectors = load_vectors(rep, args.vectors)
    cases, lines = [], []
    for name, v in vectors.items():
        for xi_rep in rep.spectrum().dedup:
            z = zeta_function(rep, xi_rep.xi, mu, v)
            cases.append({"vector": name, "xi": str(xi_rep.xi),
                          "window": list(z.window), "parity_ok": z.parity_ok,
                          "poly": poly_to_json(z.poly)})
            lines += [f"Z(s; xi={xi_rep.xi}, v={name}), window {list(z.window)}, "
                      f"parity_ok={z.parity_ok}:",
                      "  " + poly_to_text(z.poly)]
    return {"command": "zeta", "mu": mu.spec_record(), "cases": cases}, lines, 0


def cmd_bessel(rep: Representation, args):
    xi = rep.spectrum().dedup[0].xi
    table = bessel_table(rep, xi, xi)
    rows = []
    lines = [f"J(<x>w) for xi = eta = {xi}:"]
    for n in range(-(rep.level + 2), 1):
        shell = table.shell_values(n, min(rep.level + 1, 2))
        for u, val in sorted(shell.items()):
            x = f"{u}*p^{n}"
            rows.append({"x": x, "shell": n, "value": cyc_to_json(val),
                         "value_repr": repr(val)})
            lines.append(f"  x = {x:>10}: {val!r}")
    return {"command": "bessel", "xi": str(xi), "values": rows}, lines, 0


def cmd_check_fe(rep: Representation, args):
    mu = build_mu(rep.ctx, args.mu)
    vectors = load_vectors(rep, args.vectors)
    corrupt = CycValue.one(rep.ctx.q) if args.corrupt_gamma else None
    cases, lines = [], []
    for name, v in sorted(vectors.items()):
        for xi_rep in rep.spectrum().dedup:
            fe = check_fe(rep, mu, v, xi_rep.xi, corrupt_gamma=corrupt)
            cases.append({
                "xi": str(fe.xi),
                "mu": fe.mu_record,
                "vector": name,
                "lhs": poly_to_json(fe.lhs),
                "rhs": poly_to_json(fe.rhs),
                "residual": poly_to_json(fe.residual),
                "pass": fe.passed,
                "vacuous_parity": fe.vacuous_parity,
            })
            flag = "PASS" if fe.passed else "FAIL"
            if fe.vacuous_parity:
                flag += " (vacuous: parity)"
            lines.append(f"xi={fe.xi} vector={name}: {flag}")
            if not fe.passed:
                lines.append("  residual: " + poly_to_text(fe.residual))
    all_pass = all(case["pass"] for case in cases)
    return {"command": "check-fe", "cases": cases}, lines, 0 if all_pass else 1


def _suite(name, fn):
    try:
        detail = fn()
        return {"suite": name, "pass": True, "detail": detail or "ok"}
    except Exception as exc:  # counterexamples surface in the report
        return {"suite": name, "pass": False, "detail": str(exc)}


def cmd_check_invariants(rep: Representation, args):
    ctx, rng = rep.ctx, random.Random(args.seed)
    trials = max(50, args.trials)
    suites = (
        ("cocycle", lambda: invariants.check_cocycle(ctx, rng, trials)),
        ("kubota-splitting", lambda: invariants.check_kubota_splitting(ctx, rng, trials)),
        ("coset-roundtrip", lambda: invariants.check_coset_roundtrip(ctx, rng, trials)),
        ("characters", lambda: invariants.check_characters(ctx, rng, trials // 2)),
        ("hilbert-oracle", lambda: invariants.check_hilbert_oracle(ctx)),
        ("whittaker-equivariance",
         lambda: invariants.check_whittaker_equivariance(rep, rng, trials // 4)),
        ("bessel-agreement", lambda: invariants.check_bessel_agreement(rep)),
        ("shell-vanishing", lambda: invariants.check_shell_vanishing(rep)),
        ("gamma-involution", lambda: invariants.check_gamma_involution(rep)),
    )
    results = [_suite(name, fn) for name, fn in suites]
    lines = [f"{'PASS' if r['pass'] else 'FAIL'}  {r['suite']}: {r['detail']}"
             for r in results]
    all_pass = all(r["pass"] for r in results)
    report = {"command": "check-invariants", "seed": args.seed, "suites": results}
    return report, lines, 0 if all_pass else 1


COMMANDS = {
    "example": cmd_example,
    "gamma": cmd_gamma,
    "zeta": cmd_zeta,
    "bessel": cmd_bessel,
    "check-fe": cmd_check_fe,
    "check-invariants": cmd_check_invariants,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaplectic",
        description="Exact Whittaker/Bessel/zeta/gamma computations on the "
                    "metaplectic double cover of SL(2, Q_p)")
    parser.add_argument("--sigma", default="builtin1",
                        help=" | ".join(sorted(SIGMA_NAMES)) + " | path to a sigma table file")
    parser.add_argument("--mu", default="trivial",
                        help="'trivial', an inline JSON character record, or @file")
    parser.add_argument("--vectors", default=None,
                        help="file of vector expressions, one per line")
    parser.add_argument("--command", default="example", choices=sorted(COMMANDS))
    parser.add_argument("--output", default="table", choices=["table", "json"])
    parser.add_argument("--seed", type=int, default=20257,
                        help="seed for randomized property suites")
    parser.add_argument("--trials", type=int, default=200,
                        help="check-invariants samples, N = max(50, trials): N each "
                             "for cocycle, splitting, coset; N//2 character; N//4 Whittaker")
    parser.add_argument("--corrupt-gamma", action="store_true",
                        help=argparse.SUPPRESS)  # negative-control test hook
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rep = Representation(build_sigma(args.sigma))
        report, lines, status = COMMANDS[args.command](rep, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error in stage {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
