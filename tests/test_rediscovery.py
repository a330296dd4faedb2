"""The move search finds the catalog's links on its own.

28 catalog cases have scripts made only of moves the search tries (L, R,
helix -K, helix +K, swap).  For each, search_path from side1 to side2 within
the stored script's length finds a word that replays to side2, and its
length is the distance pinned here.  Some stored scripts are longer than
that distance: II-8-5-6 stores 10 moves, the search finds 6.  The catalog
scripts stay as they are; they are certificate bytes.
"""

import pytest

from sodatlas.catalog.scripts import catalog_ids, link_script
from sodatlas.mutation import DEFAULT_SEARCH_KINDS, collections_equal, run_script, search_path

DISTANCES = {
    "I-9-8": 3, "I-9-5": 4, "I-8-6": 3, "I-4-3": 4,
    "II-9-7-8": 3, "II-9-4-5": 6, "II-8-5-6": 6, "II-8-3-5": 9,
    "II-9-6-9": 5, "II-9-3-9": 9, "II-8-4-8": 8, "II-6-4-6": 7, "II-6-3-6": 9,
    "II-curve-8-1": 3, "II-curve-8-2": 4, "II-curve-8-3": 4,
    "II-curve-6-1": 5, "II-curve-6-2": 6, "II-curve-6-3": 7,
    "II-curve-5-1": 6, "II-curve-5-2": 8, "II-curve-5-3": 10,
    "II-curve-gen-1": 4, "II-curve-gen-2": 4, "II-curve-gen-3": 4, "II-curve-gen-4": 4,
    "IV-8": 1, "IV-4": 3,
}
# The three slowest searches, about 0.8 s, 1.0 s and 5 s; they stay out of
# the test run (ROADMAP.md records their times).
SLOW = ("II-8-3-5", "II-curve-5-2", "II-curve-5-3")


def test_the_pinned_cases_are_the_search_kind_cases():
    search_kind = {
        case
        for case in catalog_ids()
        if all(m.kind in DEFAULT_SEARCH_KINDS for m in link_script(case).moves)
    }
    assert search_kind == set(DISTANCES)


@pytest.mark.parametrize("case", [c for c in DISTANCES if c not in SLOW])
def test_search_rediscovers_the_link(case):
    script = link_script(case)
    word = search_path(script.side1, script.side2, max_depth=len(script.moves))
    assert word is not None and len(word) == DISTANCES[case]
    final, _ = run_script(script.side1, word)
    assert collections_equal(final, script.side2)
