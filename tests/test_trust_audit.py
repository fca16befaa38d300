"""The trust audit: every value the library builds through a ``_trusted``
constructor would also pass its validating one.

``Frame._trusted``, ``RelationPoint._trusted`` and ``Relation._trusted``
skip the independence, span, shape and duplicate checks because their
callers have just proved what those checks test.  Here each of them is
patched to build through ``Frame(...)``, ``RelationPoint(...)`` or
``Relation(...)`` instead and to record which function called it.  Then
all golden configs run in process, with the README tour and Gram-Schmidt
over sampled frames: nothing may raise, every pinned digest must still
match, and every call site must be reached.  The builders and sweeps then
run under it over drawn inputs, at bounds small enough that dependent
draws and duplicate points occur.
"""

import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_public_surface
from orthocheck.dependence import (
    Relation,
    RelationPoint,
    build_orthogonal_relation,
    chain_union_check,
    factor_check,
    sample_chain,
)
from orthocheck.inner_product import (
    gram_schmidt,
    identity_inner_product,
    sample_inner_product,
)
from orthocheck.linalg import Frame, derive_seed, sample_frame
from orthocheck.maximality import (
    exhaustive_candidates_2d,
    verify_orthogonal_maximality,
)
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


# ``hits`` patches the constructors once for the whole search; each drawn
# example only adds to its counts.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(2, 5), data=st.data(), bound=st.integers(1, 2),
       sampled=st.booleans(), frames=st.integers(0, 3),
       points=st.integers(0, 3), seed=st.integers(0, 2**64 - 1))
def test_drawn_builds_pass_validation(hits, dim, data, bound, sampled, frames,
                                      points, seed):
    m = data.draw(st.integers(2, dim), label="m")
    G = sample_inner_product(dim, bound, seed) if sampled else (
        identity_inner_product(dim))
    rel = build_orthogonal_relation(G, frames, points, bound, seed, m=m)
    assert factor_check(rel).passed
    assert chain_union_check(sample_chain(rel, 4, seed))
    verify_orthogonal_maximality(G, [
        sample_frame(dim, dim, bound, derive_seed(seed, k, 0)) for k in range(2)])
    if dim == 2:
        verify_orthogonal_maximality(G, exhaustive_candidates_2d(1))
    assert set(hits) <= SITES, hits
