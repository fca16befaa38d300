"""The trust audit: every value the library builds through a ``_trusted``
constructor would also pass its validating one.

``Frame._trusted``, ``RelationPoint._trusted`` and ``Relation._trusted``
skip the independence, span, shape and duplicate checks because their
callers have just proved what those checks test.  Here each of them is
patched to build through ``Frame(...)``, ``RelationPoint(...)`` or
``Relation(...)`` instead and to record which function called it.  Then
all golden configs run in process, with the README tour and Gram-Schmidt
over sampled frames: nothing may raise, every pinned digest must still
match, and every call site must be reached.
"""

import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import test_public_surface
from orthocheck.dependence import Relation, RelationPoint
from orthocheck.inner_product import gram_schmidt, sample_inner_product
from orthocheck.linalg import Frame, sample_frame
from test_golden import GOLDEN, ROOT, pinned, run_digest

SRC = Path(__file__).resolve().parent.parent / "src" / "orthocheck"

# (class, calling function) of every ``_trusted`` call in the library;
# ``entries`` is the generator inside ``build_orthogonal_relation``.
SITES = {
    ("Frame", "sample_frame"),
    ("Frame", "_witness"),
    ("Frame", "gram_schmidt"),
    ("Frame", "exhaustive_candidates_2d"),
    ("Frame", "entries"),
    ("RelationPoint", "relation_point"),
    ("RelationPoint", "entries"),
    ("Relation", "from_points"),
    ("Relation", "take"),
}


@pytest.fixture
def hits(monkeypatch):
    """Counts of ``(class, caller)`` over the validating builds."""
    counts = Counter()

    def validated(cls, *args):
        counts[cls.__name__, sys._getframe(1).f_code.co_name] += 1
        return cls(*args)

    for cls in (Frame, RelationPoint, Relation):
        monkeypatch.setattr(cls, "_trusted", classmethod(validated))
    return counts


def test_every_trusted_build_passes_validation(hits, monkeypatch):
    monkeypatch.chdir(ROOT)
    mismatched = [" ".join(entry["argv"]) for entry in GOLDEN
                  if run_digest(entry["argv"]) != pinned(entry)]
    test_public_surface.test_readme_tour_states_true_values()
    for dim in (2, 3, 5):
        for seed in range(4):
            G = sample_inner_product(dim, 3, seed)
            for m in range(2, dim + 1):
                gram_schmidt(G, sample_frame(dim, m, 3, seed))
    assert mismatched == []
    assert set(hits) == SITES, hits


def test_the_audit_names_every_call_site():
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in re.findall(r"\w+\._trusted\(",
                                    path.read_text(encoding="utf-8"))]
    assert len(calls) == len(SITES)
