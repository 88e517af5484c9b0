from pathlib import Path

import pytest

from mutants import MAY_SURVIVE, MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "twoscale"


@pytest.mark.parametrize("name, fname, old", [m[:3] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_old_text_occurs_once_in_src(name, fname, old):
    """A refactor that moves a mutant's line must update the catalogue, not silence it."""
    counts = {p.name: p.read_text().count(old) for p in SRC.glob("*.py")}
    assert {f: c for f, c in counts.items() if c} == {fname: 1}


def test_mutant_catalogue_names_are_unique():
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert set(MAY_SURVIVE) <= set(names)
