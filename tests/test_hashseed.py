"""Output does not depend on PYTHONHASHSEED.

`verify-link --all` and three pinned search words run in fresh interpreters
under two hash seeds; the bytes must be identical, and the certificate bytes
must be the golden ones of tests/test_golden.py.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import sodatlas

from test_golden import ALL_LINKS_BYTES, ALL_LINKS_SHA256
from test_mutation import SEARCH_WORDS

SRC = str(Path(sodatlas.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

VERIFY_ALL = "import sys; from sodatlas import cli; sys.exit(cli.main(['verify-link', '--all']))"

# Prints the word search_path returns for each pinned goal of test_mutation.
SEARCH = """
from sodatlas.mutation import render_script, search_path
from sodatlas.catalog.scripts import link_script
from test_mutation import SEARCH_WORDS, _depth3_layer

for case, (_, words) in sorted(SEARCH_WORDS.items()):
    start = link_script(case).side1
    layer = _depth3_layer(start)
    for rank in words:
        print(case, rank, render_script(search_path(start, layer[rank], max_depth=3)))
"""


def _run(code, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, TESTS, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_verify_link_all_is_the_same_under_two_hash_seeds():
    one, two = (_run(VERIFY_ALL, seed) for seed in (1, 2))
    assert one == two
    assert len(one) == ALL_LINKS_BYTES
    assert hashlib.sha256(one).hexdigest() == ALL_LINKS_SHA256


def test_search_words_are_the_same_under_two_hash_seeds():
    one, two = (_run(SEARCH, seed) for seed in (1, 2))
    assert one == two
    expected = "".join(
        f"{case} {rank} {word}\n"
        for case, (_, words) in sorted(SEARCH_WORDS.items())
        for rank, word in words.items()
    )
    assert one.decode() == expected
