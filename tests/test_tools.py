"""The mutation audit (tools/mutants.py) stays current with the source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_text_occurs_once_in_its_file():
    # the audit refuses an entry whose old text is not found exactly once;
    # this finds such a stale entry without running the audit
    mutants = _mutants()
    stale = [m.name for m in mutants
             if (ROOT / m.path).read_text().count(m.old) != 1]
    assert mutants and stale == []
    assert len({m.name for m in mutants}) == len(mutants)
