"""The gamma atlas (``gamma_atlas.py``) recomputed and compared byte for
byte with tests/golden/gamma_atlas.json: every class-matrix gamma factor of
the named data, with its ``zero_by_theorem`` shells."""

from metaplectic import SIGMA_NAMES

from gamma_atlas import GOLDEN, atlas_entries, atlas_text


def test_atlas_is_the_golden_byte_for_byte():
    entries = [e for name in SIGMA_NAMES for e in atlas_entries(name)]
    recorded = GOLDEN.read_text()
    computed = atlas_text(entries)
    for i, (old, new) in enumerate(zip(recorded.splitlines(), computed.splitlines())):
        assert new == old, f"line {i + 1} of {GOLDEN.name} differs"
    assert computed == recorded
    assert len(entries) == 644
