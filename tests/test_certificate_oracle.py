"""Replay certificates against formulas written out here.

The output of `sodatlas verify-link --all` is read back as text: each
record's blocks, its classes printed as (rank; c1; chi), and its Gram
matrix; the roof of each case comes from the `roof =` lines of the catalog
data, whose intersection form and canonical class are written out here.
The Gram matrix is recomputed with the dense Euler pairing of
tests/test_euler_oracle.py, the blocks are checked semi-orthogonal and
unimodular with a Fraction determinant, and every move record is rebuilt
from the record before it with the mutation, twist and Serre formulas
below.  Nothing from the library is imported but `cli.main`.

Every catalog serre move is the first move of its script, whose start the
certificate does not print, so two `sodatlas mutate` runs, which print
their start, carry the Serre formula: serre powers of both signs, on an
initial and a terminal range, over a two-object block.
"""

import contextlib
import io
import json
import re
from collections import Counter
from fractions import Fraction
from importlib import resources

from types import SimpleNamespace

import pytest

from sodatlas import cli
from test_euler_oracle import dense_euler_pairing, dense_intersect

_HEAD = re.compile(r'\[\w+ "([^"]+)"\]')
_ROOF = re.compile(r"(P2|F(\d+))(?:\[(\d+(?:,\d+)*)\])?")
_CLASS = re.compile(r"\((-?\d+); (-?\d+(?:,-?\d+)*); (-?\d+)\)")
_INDEX_MOVE = re.compile(r"(L|R|swap|merge) (\d+)")
_SERRE_MOVE = re.compile(r"serre (\d+)\.\.(\d+) \^(-?\d+)")


def _divisor(coords):
    return SimpleNamespace(coords=tuple(coords))


def _roof(spec: str):
    """The plane (basis H) or F_d (basis s, h with s.s = -d, s.h = 1,
    h.h = 0) blown up in orbits of points (basis E_i, E_i.E_i = -1), with
    K = -3H + sum E_i or K = -2s - (2 + d)h + sum E_i."""
    base, d, orbits = _ROOF.fullmatch(spec).groups()
    blown = sum(int(k) for k in orbits.split(",")) if orbits else 0
    if d is None:
        head, k = [[1]], [-3]
    else:
        head, k = [[-int(d), 1], [1, 0]], [-2, -2 - int(d)]
    n = len(head) + blown
    gram = [[0] * n for _ in range(n)]
    for i, row in enumerate(head):
        gram[i][: len(row)] = row
    for i in range(len(head), n):
        gram[i][i] = -1
    return SimpleNamespace(gram=gram, canonical=_divisor(k + [1] * blown), picard_rank=n)


def _roofs() -> dict:
    roofs, case = {}, None
    for name in ("links.cfg", "refinements.cfg"):
        text = (resources.files("sodatlas.catalog") / "data" / name).read_text("utf-8")
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            head = _HEAD.fullmatch(line)
            if head:
                case = head.group(1)
            elif line.startswith("roof ="):
                roofs[case] = _roof(line.split("=", 1)[1].strip())
    return roofs


def _vector(text: str) -> tuple[int, ...]:
    rank, c1, chi = _CLASS.fullmatch(text).groups()
    return (int(rank),) + tuple(int(x) for x in c1.split(",")) + (int(chi),)


def _blocks(record) -> list[tuple[bool, tuple]]:
    return [(b["opaque"], tuple(_vector(t) for t in b["objects"])) for b in record["blocks"]]


def _line_blocks(text: str) -> list[tuple[bool, tuple]]:
    out = []
    for block in text.split(" | "):
        objects = block.removesuffix(" (opaque)")
        out.append((objects != block, tuple(_vector(t) for t in objects.split(", "))))
    return out


def _flat(blocks) -> list[tuple[int, ...]]:
    return [v for _, vs in blocks for v in vs]


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


# (model, blocks, script) for the mutate runs
MUTATE_RUNS = [
    ("P2", "O(-2H) | O(-H) | O", "L 2; R 1; helix -K; helix +K; serre 1..2 ^-1; serre 1..3 ^2"),
    ("F0", "O(-s-h) | O(-s), O(-h) | O", "serre 2..3 ^1; helix -K; serre 1..3 ^-2; R 2; L 2"),
]


def _mutate_records(text: str) -> list[dict]:
    """The start, each step and the final Gram matrix of a mutate run, as
    records shaped like the certificate's, parsed back to vectors."""
    lines = iter(text.splitlines())
    records = []
    for line in lines:
        head, _, rest = line.partition(": ")
        if head == "start":
            records.append({"step": 0, "move": "start", "blocks": _line_blocks(rest), "gram": None})
        elif head.startswith("step "):
            blocks = _line_blocks(next(lines).strip())
            records.append({"step": len(records), "move": rest, "blocks": blocks, "gram": None})
        elif head == "final":
            assert _line_blocks(rest) == records[-1]["blocks"]
        elif line == "gram:":
            records[-1]["gram"] = [[int(x) for x in row.split()] for row in lines]
    return records


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """(name, roof, records) per catalog case and per mutate run; a
    record's blocks are (opaque, class vectors) pairs."""
    records: dict[str, list] = {}
    for line in _cli(["verify-link", "--all"]).splitlines():
        record = json.loads(line)
        if "step" in record:
            record["blocks"] = _blocks(record)
            records.setdefault(record["case"], []).append(record)
    roofs = _roofs()
    assert set(records) == set(roofs)
    out = [(case, roofs[case], recs) for case, recs in records.items()]
    tmp = tmp_path_factory.mktemp("mutate")
    for i, (model, blocks, script) in enumerate(MUTATE_RUNS):
        coll, moves = tmp / f"collection-{i}.cfg", tmp / f"script-{i}.txt"
        coll.write_text(f"[collection]\nmodel = {model}\nblocks = {blocks}\n")
        moves.write_text(script + "\n")
        text = _cli(["mutate", "--collection", str(coll), "--script", str(moves)])
        out.append((f"mutate {model}", _roof(model), _mutate_records(text)))
    return out


# -- linear algebra over Fraction ---------------------------------------------

def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _inverse(rows) -> list[list[Fraction]]:
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# -- the Euler form and the moves ---------------------------------------------

def _euler_matrix(surface) -> list[list[int]]:
    """chi(a, b) = a^T E b on vectors (rank, c1..., chi), from the dense
    pairing on unit vectors (it is bilinear)."""
    n = surface.picard_rank + 2
    units = []
    for i in range(n):
        v = [int(i == j) for j in range(n)]
        units.append(SimpleNamespace(surface=surface, rank=v[0], c1=_divisor(v[1:-1]), chi=v[-1]))
    return [[dense_euler_pairing(a, b) for b in units] for a in units]


def _chi(e, a, b) -> int:
    return sum(a[i] * e[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))


def _gram(e, vectors) -> list[list[int]]:
    rows = [[sum(x * y for x, y in zip(a, col)) for col in zip(*e)] for a in vectors]
    return [[sum(x * y for x, y in zip(row, b)) for b in vectors] for row in rows]


def _minus(t, k, x):
    """t - k x"""
    return tuple(p - k * q for p, q in zip(t, x))


def _twist(surface, v, l):
    """Riemann-Roch: v (x) O(l) = (r, c1 + r l, chi + c1.l + r (l.l - l.K) / 2)."""
    ld, k = _divisor(l), surface.canonical
    r, c1 = v[0], _divisor(v[1:-1])
    ll, lk = dense_intersect(surface, ld, ld), dense_intersect(surface, ld, k)
    assert (ll - lk) % 2 == 0
    chi = v[-1] + dense_intersect(surface, c1, ld) + r * (ll - lk) // 2
    return (r,) + tuple(x + r * y for x, y in zip(c1.coords, l)) + (chi,)


def _serre(e, vectors, n):
    """The classes S^n carries `vectors` to, S = G^-1 G^T the Serre matrix
    of their span: the new class j is sum_i (S^n)[i][j] vectors[i]."""
    g = _gram(e, vectors)
    s = _mul(_inverse(g), [list(col) for col in zip(*g)])
    step = s if n > 0 else _inverse(s)
    power = [[Fraction(int(i == j)) for j in range(len(g))] for i in range(len(g))]
    for _ in range(abs(n)):
        power = _mul(power, step)
    out = []
    for j in range(len(vectors)):
        coords = [sum(power[i][j] * vectors[i][c] for i in range(len(vectors)))
                  for c in range(len(vectors[0]))]
        assert all(x.denominator == 1 for x in coords)
        out.append(tuple(int(x) for x in coords))
    return out


def _rebuild(surface, e, blocks, move):
    blocks = list(blocks)
    canonical = surface.canonical.coords
    m = _INDEX_MOVE.fullmatch(move)
    if m:
        kind, i = m.group(1), int(m.group(2)) - 1
        if kind == "L":
            through = blocks[i - 1][1]
            moved = []
            for t in blocks[i][1]:
                for x in through:
                    t = _minus(t, _chi(e, x, t), x)
                moved.append(t)
            blocks[i - 1 : i + 1] = [(blocks[i][0], tuple(moved)), blocks[i - 1]]
        elif kind == "R":
            through = blocks[i + 1][1]
            moved = []
            for t in blocks[i][1]:
                for x in through:
                    t = _minus(t, _chi(e, t, x), x)
                moved.append(t)
            blocks[i : i + 2] = [blocks[i + 1], (blocks[i][0], tuple(moved))]
        elif kind == "swap":
            blocks[i : i + 2] = [blocks[i + 1], blocks[i]]
        else:
            blocks[i : i + 2] = [(False, blocks[i][1] + blocks[i + 1][1])]
        return blocks
    if move == "helix -K":
        opaque, vs = blocks.pop(0)
        minus_k = tuple(-x for x in canonical)
        return blocks + [(opaque, tuple(_twist(surface, v, minus_k) for v in vs))]
    if move == "helix +K":
        opaque, vs = blocks.pop()
        return [(opaque, tuple(_twist(surface, v, canonical) for v in vs))] + blocks
    a, b, n = (int(x) for x in _SERRE_MOVE.fullmatch(move).groups())
    images = iter(_serre(e, _flat(blocks[a - 1 : b]), n))
    for bi in range(a - 1, b):
        opaque, vs = blocks[bi]
        blocks[bi] = (opaque, tuple(next(images) for _ in vs))
    return blocks


# -- the checks ---------------------------------------------------------------

def test_printed_gram_is_the_dense_euler_form(cases):
    for case, surface, records in cases:
        e = _euler_matrix(surface)
        printed = [r for r in records if r["gram"] is not None]
        assert printed, case
        for record in printed:
            assert _gram(e, _flat(record["blocks"])) == record["gram"], (case, record["step"])


def test_every_record_is_semi_orthogonal_and_unimodular(cases):
    for case, surface, records in cases:
        e = _euler_matrix(surface)
        # With det E = +-1 the classes are a basis of K exactly when their
        # Gram matrix V E V^T is unimodular.
        assert abs(_det(e)) == 1, case
        for record in records:
            blocks = record["blocks"]
            gram = _gram(e, _flat(blocks))
            where = (case, record["step"])
            owner = [bi for bi, (_, vs) in enumerate(blocks) for _ in vs]
            assert len(owner) == surface.picard_rank + 2, where
            for i, bi in enumerate(owner):
                for j, bj in enumerate(owner):
                    if bi > bj:
                        assert gram[i][j] == 0, where
                    elif bi == bj and not blocks[bi][0]:
                        assert gram[i][j] == int(i == j), where
            assert abs(_det(gram)) == 1, where


def test_each_move_record_rebuilds_from_the_one_before(cases):
    rebuilt = Counter()
    for case, surface, records in cases:
        e = _euler_matrix(surface)
        for prev, record in zip(records, records[1:]):
            move = record["move"]
            if move.startswith(("compare", "post")):
                expected = prev["blocks"]
            else:
                expected = _rebuild(surface, e, prev["blocks"], move)
                rebuilt[move.split()[0]] += 1
            assert record["blocks"] == expected, (case, record["step"], move)
    assert set(rebuilt) == {"L", "R", "helix", "swap", "merge", "serre"}
    assert rebuilt["serre"] == 4
