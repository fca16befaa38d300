"""The trust audit: every value the library builds through ``_trusted``
would also pass its validating constructor.

``_Value._trusted(**fields)`` builds a ``Frame``, ``RelationPoint`` or
``Relation`` without the independence, span, shape and duplicate checks,
because its callers have just proved what those checks test.  Here it is
patched on each of the three classes to check that the keywords name
exactly the class's ``_fields``, to build through ``Frame(...)``,
``RelationPoint(...)`` or ``Relation(...)`` instead, and to record which
function called it.  Then all golden configs run in process, with the
README tour and Gram-Schmidt over sampled frames: nothing may raise, every
pinned digest must still match, and every call site must be reached.  The
builders and sweeps then run under it over drawn inputs, at bounds small
enough that dependent draws and duplicate points occur.  Apart from the
audit, the number of trusted builds of each class is pinned per golden
command, like its digests.
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

    def validated(cls, **fields):
        assert fields.keys() == set(cls._fields), (cls.__name__, fields.keys())
        counts[cls.__name__, sys._getframe(1).f_code.co_name] += 1
        return cls(**fields)

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


# Trusted builds per golden command: (frames, relation points, relations).
# The counts are deterministic for a fixed config, like the payload bytes;
# commands missing here build none.
TRUSTED_BUILDS = {
    "factor --frames 3 --points 3 --seed 7": (3, 9, 1),
    "maximality --bound 2 --seed 3": (912, 0, 0),
    "maximality --bound 3 --seed 0": (4032, 0, 0),
    "chain --frames 4 --points 3 --seed 5": (4, 12, 5),
    "factor --dim 4 --m 4 --gram tests/fixtures/gram4.json": (8, 32, 1),
    "maximality --dim 4 --m 4 --frames 6 --gram tests/fixtures/gram4.json "
    "--seed 9": (12, 0, 0),
    "factor --dim 12 --m 12 --frames 3 --points 4 --gram "
    "tests/fixtures/gram12.json": (3, 12, 1),
    "maximality --dim 12 --m 12 --frames 4 --gram tests/fixtures/gram12.json":
        (8, 0, 0),
    "maximality --dim 16 --m 16 --frames 3 --gram tests/fixtures/gram16.json":
        (6, 0, 0),
}


def test_trusted_builds_per_golden_config(monkeypatch):
    monkeypatch.chdir(ROOT)
    counts = Counter()
    for cls in (Frame, RelationPoint, Relation):
        def counted(owner, *args, build=cls._trusted.__func__, **kwargs):
            counts[owner] += 1
            return build(owner, *args, **kwargs)

        monkeypatch.setattr(cls, "_trusted", classmethod(counted), raising=True)
    commands = [" ".join(entry["argv"]) for entry in GOLDEN]
    assert set(TRUSTED_BUILDS) <= set(commands)
    for entry, command in zip(GOLDEN, commands):
        counts.clear()
        assert run_digest(entry["argv"]) == pinned(entry), command
        assert (counts[Frame], counts[RelationPoint], counts[Relation]) == (
            TRUSTED_BUILDS.get(command, (0, 0, 0))), command


def test_the_audit_names_every_call_site():
    texts = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    calls = [call for text in texts for call in re.findall(r"\w+\._trusted\(", text)]
    assert len(calls) == len(SITES)
    # One definition, on ``_Value``: no class builds trusted values its own way.
    assert sum(text.count("def _trusted(") for text in texts) == 1


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
