"""The fixed mutant list of ``tools/mutants.py`` matches the sources it mutates.

``tools/mutants.py`` stops at an entry whose old text does not occur exactly
once in its file, so a change that rewrites a mutated line must rewrite the
entry too; this check finds such an entry in the suite, not in a mutant run.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once_in_its_file():
    mutants = load_mutants()
    assert len(mutants.MUTANTS) >= 29
    counts = [(path, old, (ROOT / path).read_text(encoding="utf-8").count(old))
              for path, old, _, _ in mutants.MUTANTS]
    assert [entry for entry in counts if entry[2] != 1] == []
    assert all(old != new for _, old, new, _ in mutants.MUTANTS)
    assert (ROOT / mutants.LIST_TEST).resolve() == Path(__file__).resolve()
