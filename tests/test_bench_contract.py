"""The library names and return shapes the benchmark relies on.

bench/run.py and bench/worker.py drive the package through a few public
names.  Renaming one of them, or changing what it returns, breaks the
benchmark without failing any other test, so this file loads both scripts
by path and makes their calls on one move-search case: the entry points the
tracer wraps, the depth-3 layer, the goal as it is shipped to a worker and
rebuilt there, the search, and the check of its answer.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from sodatlas import ktheory, mutation
from sodatlas.catalog import scripts

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return SimpleNamespace(run=_load("run"), worker=_load("worker"))


def test_every_traced_entry_point_resolves(bench):
    for name, module_name, attr in bench.worker.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_move_search_calls_keep_their_shapes(bench):
    run, worker = bench.run, bench.worker
    case = run.SEARCH_CASES[0]
    start = scripts.link_script(case).side1
    search = SimpleNamespace(mutation=mutation, starts={case: start})
    search._moves = lambda coll: run.MoveSearch._moves(search, coll)

    # the benchmark spells out the moves search tries, in search's order
    assert mutation.DEFAULT_SEARCH_KINDS == ("L", "R", "helix-", "helix+", "swap")
    assert search._moves(start) == mutation._candidate_moves(start)
    layer = run.MoveSearch._last_layer(search, start)
    assert layer and all(isinstance(c, mutation.Collection) for c in layer)

    # run.py ships a goal's vectors and labels; worker.py rebuilds it
    search.layers = {c: layer for c in run.SEARCH_CASES}
    op = run.MoveSearch.make_ops(search, 7, 0)[0]
    assert op["case"] == case
    for block in op["_goal"].blocks:
        for obj in block.objects:
            assert isinstance(obj.cls, ktheory.KClass) and isinstance(obj.label, str)
    goal = worker._collection(mutation, ktheory, start.surface, op["goal"])
    assert isinstance(goal, mutation.Collection)
    assert mutation.canonical_form(goal) == mutation.canonical_form(op["_goal"])
    hash(mutation.canonical_form(goal))

    path = mutation.search_path(start, goal, max_depth=run.SEARCH_DEPTH)
    text = mutation.render_script(path)
    assert mutation.parse_script(text) == path
    final, steps = mutation.run_script(start, path)
    assert isinstance(final, mutation.Collection) and isinstance(steps, list)
    assert mutation.collections_equal(final, goal, "UpToSignAndBlockPerm")
    assert run.MoveSearch.check_op(search, op, {"rc": 0, "text": text})
    # no shorter word reaches a goal of the last layer
    assert mutation.search_path(start, goal, max_depth=1) is None
    assert issubclass(mutation.MoveError, Exception)
    assert issubclass(mutation.VerificationError, Exception)
