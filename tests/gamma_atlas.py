"""The gamma atlas: every class-matrix gamma factor of the named data,
recorded in tests/golden/gamma_atlas.json.

    PYTHONPATH=src python tests/gamma_atlas.py

rewrites the golden from the library as it stands; ``test_gamma_atlas.py``
recomputes it and compares it byte for byte.  The atlas holds
Gamma^{xi,eta}_mu (``zeta.gamma_factor``) for every datum of
``SIGMA_NAMES``, every pair (xi, eta) of square-class representatives and
every character mu of conductor 0..3 at p = 3 and 0..2 otherwise, with
mu(p) = e(0) or e(1/4) (``helpers.characters``): its coefficients gamma(0..M)
in ``cli.cyc_to_json`` form, and beside them the shells listed in
``zero_by_theorem``, so that a change of provenance shows too.

A change to the golden is a change to a check: regenerate it only for a
change that is meant to move a gamma factor or its provenance, and list the
change, with its reason, in CHANGES.md."""

import json
import sys
from fractions import Fraction
from pathlib import Path

from metaplectic import SIGMA_NAMES, Representation, gamma_factor
from metaplectic.cli import cyc_to_json

from helpers import characters, named_sigma_once

GOLDEN = Path(__file__).resolve().parent / "golden" / "gamma_atlas.json"
P_EXPONENTS = (0, Fraction(1, 4))


def atlas_entries(name: str) -> list:
    """The atlas records of the datum `name`, from a fresh representation
    (cold gamma caches) of its shared sigma."""
    rep = Representation(named_sigma_once(name))
    classes = [r.xi for r in rep.spectrum().dedup]
    entries = []
    for m in range(4 if rep.ctx.p == 3 else 3):
        for mu in characters(rep.ctx, m, P_EXPONENTS):
            for xi in classes:
                for eta in classes:
                    gf = gamma_factor(rep, xi, eta, mu)
                    entries.append({
                        "sigma": name,
                        "mu": mu.spec_record(),
                        "xi": str(xi),
                        "eta": str(eta),
                        "coefficients": [cyc_to_json(gf.coefficients[n])
                                         for n in range(gf.support_bound + 1)],
                        "zero_by_theorem": list(gf.zero_by_theorem),
                    })
    return entries


def atlas_text(entries: list) -> str:
    """One JSON record per line, so a changed factor is a one-line diff."""
    return "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n"


def main() -> int:
    entries = [e for name in SIGMA_NAMES for e in atlas_entries(name)]
    GOLDEN.write_text(atlas_text(entries))
    print(f"{len(entries)} gamma factors written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
