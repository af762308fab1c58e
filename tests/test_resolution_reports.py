"""The resolution engine pinned on a seeded corpus (see resolution_corpus):
one dump line per germ, hashed, and the tree invariants on every germ.  A
change to the engine must leave every node, component, blow-up count and
threshold string as it was."""

import json
from pathlib import Path

import resolution_corpus

PINNED = json.loads(
    (Path(__file__).parent / "data" / "resolution_reports.json").read_text())


def test_resolutions_are_pinned():
    lines = resolution_corpus.dump_corpus()   # checks the tree invariants
    # the corpus reaches rational and irrational sites, the tall root that
    # modp leaves to sympy, the fractional germ, the three-level tower,
    # whose third center is rational over the flattened field, a nonzero
    # root over an own field, and a tower's second centre, found in sympy's
    # copy of the own field
    sites = "".join(lines)
    for site in ("chart A at y=3/2", "chart A at y=5/7", "chart A at root of",
                 "chart A at y=2147483659/2147483649",
                 "root of v**2 - 3/8 / chart B origin / chart A at y=5/96",
                 "chart A at y=5*CRootOf(2*v**2 - 1, 0) + 7/2",
                 "chart A at root of v**2 - 297/64 - 105*CRootOf(2*v**2 - 1, 0)/16"):
        assert site in sites, site
    assert resolution_corpus.digest(lines) == PINNED["resolutions"]
