"""sodatlas benchmark: catalog replay, lattice H1 and move search.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --hashseed-check [--workload NAME] [--seed N]

Run from the root of a source checkout; the package is imported from
`src/`.  One client drives each workload in a closed loop: an op starts only
after the previous one returned.  Ops run in passes, each pass in a fresh
interpreter (bench/worker.py), so every pass pays the cold start a command
line user pays.  Passes start until --seconds have gone by; pass i draws its
inputs from (seed, i), and every pass runs with PYTHONHASHSEED pinned.

Times are reported at the reference host's speed.  The host this runs on
is shared and its speed drifts by up to a factor of two in phases of
seconds to minutes, longer than a run.  So each pass times a fixed probe job
on either side of every op, and an op's latency is scaled by
PROBE_REFERENCE_S over one job's time, pooled over those probes; set-up time
is scaled by the first probe.  The unscaled wall-clock figures are printed
beside the metrics.

Every op's output is checked against golden.json, recorded from the seed
commit.  The last line of standard output is one JSON object: end-to-end
metrics with --trace 0; with --trace 1, per-layer calls and self times from
one extra traced pass on the inputs of pass 0.  --hashseed-check runs pass 0
of each workload under two hash seeds and requires identical outputs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
GOLDEN = BENCH / "golden.json"

TIMED_HASHSEED = "0"
CHECK_HASHSEEDS = ("1", "2")
PASS_TIMEOUT_S = 60  # a pass normally takes a few seconds; keeps a hung run under 180 s

# Seconds the worker's speed probe takes on the reference host (2 vCPUs of
# an Intel Xeon at 2.1 GHz) in its fast phases.  Changing it rescales every
# reported time, so it is fixed with the benchmark.
PROBE_REFERENCE_S = 0.002

# Tail percentile per workload: at least ten samples lie beyond it at the
# benchmark's run length (BENCHMARK.json run_seconds).  Each pass repeats one
# op mix, so the percentile sits inside the share of one op (the 2nd slowest
# of 46 cases; the 2nd slowest of 13 actions) rather than between two.
TAIL_PERCENTILE = {"catalog-replay": 97, "group-h1": 88, "move-search": 90}


# -- group-h1 inputs ------------------------------------------------------------

def _perm(n: int, *cycles) -> list[list[int]]:
    """Matrix on P2[n] (basis H, E1..En; columns are images) permuting the
    E_i along the given cycles."""
    image = {}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a] = b
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        mat[image.get(j, j)][j] = 1
    return mat


def _involution(n: int) -> list[list[int]]:
    """Geiser (n = 7) or Bertini (n = 8) involution on P2[n]:
    D -> (2 D.K / K^2) K - D."""
    degree = 9 - n
    k = [-3] + [1] * n
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        dk = -3 if j == 0 else -1  # H.K = -3, E_j.K = -1
        for i in range(n + 1):
            mat[i][j] = (2 * dk // degree) * k[i] - (i == j)
    return mat


_HEX_ROT = [[2, 1, 1, 1], [-1, -1, 0, -1], [-1, -1, -1, 0], [-1, 0, -1, -1]]
_CREMONA = [
    [2, 1, 1, 1, 0],
    [-1, 0, -1, -1, 0],
    [-1, -1, 0, -1, 0],
    [-1, -1, -1, 0, 0],
    [0, 0, 0, 0, 1],
]

# name -> (number of blown-up points, generators)
ACTIONS = {
    "c3-p2-3": (3, [_perm(3, [1, 2, 3])]),
    "s3-p2-3": (3, [_perm(3, [1, 2, 3]), _perm(3, [1, 2])]),
    "d4-p2-4": (4, [_perm(4, [1, 2, 3, 4]), _perm(4, [1, 3])]),
    "a4-p2-4": (4, [_perm(4, [1, 2, 3]), _perm(4, [1, 2], [3, 4])]),
    "c6-p2-6": (6, [_perm(6, [1, 2, 3], [4, 5])]),
    "c3xc3-p2-6": (6, [_perm(6, [1, 2, 3]), _perm(6, [4, 5, 6])]),
    "s3xc2-p2-5": (5, [_perm(5, [1, 2, 3]), _perm(5, [1, 2]), _perm(5, [4, 5])]),
    "hexagon-p2-3": (3, [_HEX_ROT, _perm(3, [1, 2])]),
    "geiser-p2-7": (7, [_involution(7)]),
    "geiser-swap-p2-7": (7, [_involution(7), _perm(7, [1, 2])]),
    "bertini-p2-8": (8, [_involution(8)]),
    "bertini-swap-p2-8": (8, [_involution(8), _perm(8, [1, 2])]),
    "weyl-a4-p2-4": (4, [_perm(4, [1, 2]), _perm(4, [2, 3]), _perm(4, [3, 4]), _CREMONA]),
}


def conjugate(mat, p) -> list[list[int]]:
    """P mat P^-1 for the basis permutation e_j -> e_p[j]."""
    n = len(mat)
    inv = [0] * n
    for j in range(n):
        inv[p[j]] = j
    return [[mat[inv[i]][inv[j]] for j in range(n)] for i in range(n)]


def action_text(n: int, gens) -> str:
    lines = ["[group]", f"model = P2[{n}]"]
    lines += ["gen = " + json.dumps(g).replace(" ", "") for g in gens]
    return "\n".join(lines) + "\n"


def invariant_lines(text: str) -> list[str]:
    """Order, invariant rank, H1 and the minimality verdict of `group`
    output: the lines a conjugation of the action leaves unchanged."""
    keep = []
    for line in text.splitlines():
        if line.startswith(("order:", "invariant rank:", "H1:", "minimality")):
            keep.append(line.split(", witness:")[0])
    return keep


# -- workloads --------------------------------------------------------------------

class CatalogReplay:
    """`verify-link --id` on every catalog case, in a seed-shuffled order."""

    name = "catalog-replay"

    def __init__(self, golden: dict, workdir: Path) -> None:
        self.golden = golden["catalog"]

    def make_ops(self, seed: int, index: int) -> list[dict]:
        order = list(self.golden["order"])
        pass_rng(seed, index).shuffle(order)
        return [{"case": case} for case in order]

    def spec(self) -> dict:
        return {"catalog_order": self.golden["order"]}

    def check_op(self, op: dict, res: dict) -> bool:
        return res["rc"] == 0 and res["digest"] == self.golden["cases"][op["case"]]

    def check_pass(self, result: dict) -> bool:
        return result["all_digest"] == self.golden["all_sha256"]


class GroupH1:
    """`group --action` on the fixed actions, each conjugated by a
    seed-chosen permutation of the E_i."""

    name = "group-h1"

    def __init__(self, golden: dict, workdir: Path) -> None:
        self.golden = golden["group"]
        self.workdir = workdir
        self.written = 0

    def make_ops(self, seed: int, index: int) -> list[dict]:
        rng = pass_rng(seed, index)
        ops = []
        for name, (n, gens) in ACTIONS.items():
            tail = list(range(1, n + 1))
            rng.shuffle(tail)
            p = [0] + tail
            path = self.workdir / f"action-{self.written}.cfg"
            self.written += 1
            path.write_text(action_text(n, [conjugate(g, p) for g in gens]), encoding="utf-8")
            ops.append({"name": name, "file": str(path)})
        return ops

    def spec(self) -> dict:
        return {}

    def check_op(self, op: dict, res: dict) -> bool:
        return res["rc"] == 0 and invariant_lines(res["text"]) == self.golden[op["name"]]

    def check_pass(self, result: dict) -> bool:
        return True


# Catalog cases with at least four blocks whose depth-3 search takes at most
# about half a second.
SEARCH_CASES = (
    "I-9-8", "I-9-5", "I-8-6", "II-9-7-8", "II-9-4-5", "II-8-5-6", "II-9-6-9",
    "II-8-4-8", "II-6-4-6", "II-curve-8-1", "II-curve-8-2", "IV-8", "REF-6-8",
    "REF-5-6", "REF-5-8",
)
SEARCH_DEPTH = 3
# Fractional part of the golden ratio: the step between a case's goal ranks.
RANK_STEP = (5 ** 0.5 - 1) / 2


class MoveSearch:
    """`search_path(side1, goal, max_depth=3)` per case.  The goal is the end
    of a legal 3-move word of search's default kinds that no shorter word
    reaches.

    Breadth-first search finds such a goal after expanding a share of the
    depth-3 layer equal to the goal's rank in it, so the rank sets the cost.
    A case's goal in pass i sits at the share (u + i * RANK_STEP) mod 1 of
    the layer, u being seed-chosen per case.  Any run of consecutive passes
    spreads these shares almost evenly over [0, 1), wherever u lies, so the
    work of a run does not depend on the seed or on how many passes fit.
    """

    name = "move-search"

    def __init__(self, golden: dict, workdir: Path) -> None:
        from sodatlas import mutation
        from sodatlas.catalog.scripts import link_script

        self.mutation = mutation
        self.starts = {case: link_script(case).side1 for case in SEARCH_CASES}
        self.layers = {case: self._last_layer(start) for case, start in self.starts.items()}

    def _moves(self, coll) -> list:
        """Candidate moves in the order search tries them.  Written out here
        so that the benchmark relies on public names only."""
        move, n = self.mutation.Move, len(coll.blocks)
        kinds = self.mutation.DEFAULT_SEARCH_KINDS
        out = []
        if "L" in kinds:
            out += [move("L", index=i) for i in range(2, n + 1)]
        if "R" in kinds:
            out += [move("R", index=i) for i in range(1, n)]
        out += [move(k) for k in ("helix-", "helix+") if k in kinds and n > 1]
        if "swap" in kinds:
            out += [move("swap", index=i) for i in range(1, n)]
        return out

    def _last_layer(self, start) -> list:
        """Collections first reached after SEARCH_DEPTH moves, in the order
        breadth-first search meets them."""
        m = self.mutation
        seen, layer = {m.canonical_form(start)}, [start]
        for _ in range(SEARCH_DEPTH):
            nxt = []
            for coll in layer:
                for move in self._moves(coll):
                    try:
                        out = m.apply_move(coll, move)
                    except (m.MoveError, m.VerificationError):
                        continue
                    key = m.canonical_form(out)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(out)
            layer = nxt
        return layer

    def make_ops(self, seed: int, index: int) -> list[dict]:
        starts = random.Random(f"{seed}")
        ops = []
        for case in SEARCH_CASES:
            layer = self.layers[case]
            share = (starts.random() + index * RANK_STEP) % 1.0
            goal = layer[int(share * len(layer))]
            blocks = [
                {
                    "opaque": b.opaque,
                    "classes": [list(o.cls.vector) for o in b.objects],
                    "labels": [o.label for o in b.objects],
                }
                for b in goal.blocks
            ]
            ops.append({"case": case, "goal": {"blocks": blocks, "full": goal.full}, "_goal": goal})
        return ops

    def spec(self) -> dict:
        return {"max_depth": SEARCH_DEPTH}

    def check_op(self, op: dict, res: dict) -> bool:
        """A path of at most SEARCH_DEPTH moves whose replay reaches the goal."""
        m = self.mutation
        if res["rc"] != 0 or res["text"] == "none":
            return False
        moves = m.parse_script(res["text"])
        if len(moves) > SEARCH_DEPTH:
            return False
        try:
            final, _ = m.run_script(self.starts[op["case"]], moves)
        except m.VerificationError:
            return False
        return m.collections_equal(final, op["_goal"], "UpToSignAndBlockPerm")

    def check_pass(self, result: dict) -> bool:
        return True


WORKLOADS = {w.name: w for w in (CatalogReplay, GroupH1, MoveSearch)}


# -- passes -----------------------------------------------------------------------

def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def run_pass(wl, ops: list[dict], workdir: Path, hashseed: str, trace: bool) -> dict | None:
    """One pass in a fresh interpreter; None if the worker failed."""
    tag = f"{len(list(workdir.glob('spec-*.json')))}"
    spec_path, out_path = workdir / f"spec-{tag}.json", workdir / f"result-{tag}.json"
    spec = {
        "workload": wl.name,
        "src": str(SRC),
        "trace": trace,
        "ops": [{k: v for k, v in op.items() if not k.startswith("_")} for op in ops],
        **wl.spec(),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path), str(out_path), repr(spawned)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{wl.name}: pass timed out after {PASS_TIMEOUT_S}s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out_path.exists():
        print(f"{wl.name}: worker failed:\n{proc.stderr.decode(errors='replace')}", file=sys.stderr)
        return None
    return json.loads(out_path.read_text(encoding="utf-8"))


def grade_pass(wl, ops: list[dict], result: dict | None) -> tuple[int, bool]:
    """(failed ops, pass-level check). A crashed pass fails all its ops."""
    if result is None or len(result["ops"]) != len(ops):
        return len(ops), False
    failed = sum(not wl.check_op(op, res) for op, res in zip(ops, result["ops"]))
    return failed, wl.check_pass(result)


def _scaled(seconds: float, probe_s: float) -> float:
    """A time measured beside a probe that took `probe_s`, at reference speed."""
    return seconds * PROBE_REFERENCE_S / probe_s


def _latencies(results: list[dict], scaled: bool = True) -> list[float]:
    ops = [r for res in results for r in res["ops"]]
    if not scaled:
        return [r["latency_s"] for r in ops]
    return [_scaled(r["latency_s"], r["probe_s"]) for r in ops]


def _rate(results: list[dict], scaled: bool = True) -> float:
    """Ops completed ÷ timed window, the window being the time spent in ops."""
    latencies = _latencies(results, scaled)
    return len(latencies) / sum(latencies)


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def measure(wl, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced passes until `seconds` have gone by; at least one."""
    results, attempted, failed, pass_ok = [], 0, 0, True
    start = time.monotonic()
    index = 0
    while index == 0 or time.monotonic() - start < seconds:
        ops = wl.make_ops(seed, index)
        result = run_pass(wl, ops, workdir, TIMED_HASHSEED, trace=False)
        bad, ok = grade_pass(wl, ops, result)
        attempted, failed, pass_ok = attempted + len(ops), failed + bad, pass_ok and ok
        if result is not None:
            results.append(result)
        index += 1
    return {"results": results, "attempted": attempted, "failed": failed, "pass_ok": pass_ok}


def end_to_end(wl, run: dict) -> tuple[dict, list[str]]:
    results = run["results"]
    latencies = _latencies(results)
    wall = _latencies(results, scaled=False)
    percentile = TAIL_PERCENTILE[wl.name]
    tail_s, beyond = tail(latencies, percentile)
    metrics = {
        "ops_per_s": (_rate(results), "op/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (statistics.median(
            _scaled(r["setup_s"], r["setup_probe_s"]) for r in results), "s"),
        "peak_rss_mib": (max(r["maxrss_kib"] for r in results) / 1024, "MiB"),
    }
    probes = [r["probe_s"] for res in results for r in res["ops"]]
    notes = [
        f"op_tail_ms is p{percentile}: {beyond} of {len(latencies)} samples beyond it",
        f"passes {len(results)}, failed_ops_ratio {run['failed'] / run['attempted']} ratio",
        f"unscaled wall clock: ops_per_s {_rate(results, scaled=False)} op/s, "
        f"op_p50_ms {statistics.median(wall) * 1000} ms, "
        f"op_tail_ms {tail(wall, percentile)[0] * 1000} ms, "
        f"setup_s {statistics.median(r['setup_s'] for r in results)} s",
        f"speed probe: median {statistics.median(probes) * 1000} ms, "
        f"range {min(probes) * 1000}-{max(probes) * 1000} ms, "
        f"reference {PROBE_REFERENCE_S * 1000} ms",
    ]
    return metrics, notes


# Per-layer metrics read straight from the trace summary.
LAYER_CALLS = (
    "cli.main", "textio.render_kclass", "lattice.intersect", "lattice.enumerate_r_classes",
    "ktheory.euler_pairing", "ktheory.twist", "mutation.check_collection",
    "mutation.apply_move", "mutation.canonical_form", "catalog.verify_link",
    "equivariant.h1_picard", "intlinalg.smith_normal_form", "intlinalg.det",
    "intlinalg.hermite_row_form", "intlinalg.solve", "intlinalg.mat_mul",
)
LAYER_SELF_TIMES = (
    "cli.main", "textio.render_kclass", "textio.parse_stanzas", "lattice.intersect",
    "lattice.enumerate_r_classes", "ktheory.euler_pairing", "mutation.check_collection",
    "mutation.run_script", "mutation.subcategory_serre_matrix", "mutation.apply_move",
    "mutation.search_path", "mutation.canonical_form", "catalog.verify_link",
    "equivariant.group_action", "equivariant.orbits", "equivariant.minimality_proxy",
    "equivariant.h1_picard", "intlinalg.smith_normal_form", "intlinalg.kernel_basis",
    "intlinalg.det", "intlinalg.hermite_row_form",
)


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(trace: dict, run: dict, traced_rate: float) -> dict:
    """Per-layer metrics from one traced pass; load time and the untraced
    rate come from the untraced passes of the same run."""
    metrics = {f"{n}.calls": (trace[n]["calls"], "count") for n in LAYER_CALLS}
    metrics.update({f"{n}.self_s": (trace[n]["self_s"], "s") for n in LAYER_SELF_TIMES})
    moves = trace["mutation.apply_move"]
    checks = trace["mutation.check_collection"]["calls"]
    shapes = trace["intlinalg.smith_normal_form"].get("notes", [])
    untraced_rate = _rate(run["results"])
    metrics.update({
        "mutation.checks_per_move": (_share(checks, moves["calls"]), "ratio"),
        "mutation.apply_move.rejected": (moves["raised"], "count"),
        "mutation.apply_move.useful_ratio": (
            _share(moves["calls"] - moves["raised"], moves["calls"]), "ratio"),
        "catalog.load_s": (statistics.median(r["load_s"] for r in run["results"]), "s"),
        "equivariant.group_action.elements": (
            sum(trace["equivariant.group_action"].get("notes", [])), "count"),
        "intlinalg.smith_normal_form.max_rows": (max((r for r, _ in shapes), default=0), "count"),
        "intlinalg.smith_normal_form.max_cols": (max((c for _, c in shapes), default=0), "count"),
        "trace_overhead_ratio": (untraced_rate / traced_rate, "ratio"),
    })
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
              golden: dict) -> dict:
    wl = WORKLOADS[workload](golden, workdir)
    run = measure(wl, seed, seconds, workdir)
    if not run["results"]:
        raise RuntimeError(f"{workload}: every pass failed")
    if trace:
        ops = wl.make_ops(seed, 0)
        result = run_pass(wl, ops, workdir, TIMED_HASHSEED, trace=True)
        bad, ok = grade_pass(wl, ops, result)
        run["attempted"] += len(ops)
        run["failed"] += bad
        run["pass_ok"] = run["pass_ok"] and ok
        if result is None:
            raise RuntimeError(f"{workload}: the traced pass failed")
        metrics, notes = per_layer(result["trace"], run, _rate([result])), []
    else:
        metrics, notes = end_to_end(wl, run)
    return {
        "correct": run["failed"] == 0 and run["pass_ok"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "notes": notes,
    }


def hashseed_check(workload: str, seed: int, workdir: Path, golden: dict) -> bool:
    """Pass 0 under two hash seeds: identical outputs, and both golden."""
    wl = WORKLOADS[workload](golden, workdir)
    ops = wl.make_ops(seed, 0)
    outputs, ok = [], True
    for hashseed in CHECK_HASHSEEDS:
        result = run_pass(wl, ops, workdir, hashseed, trace=False)
        failed, pass_ok = grade_pass(wl, ops, result)
        ok = ok and failed == 0 and pass_ok
        if result is not None:
            outputs.append([r["digest"] for r in result["ops"]] + [result.get("all_digest")])
    same = len(outputs) == 2 and outputs[0] == outputs[1]
    print(f"{workload}: PYTHONHASHSEED {' vs '.join(CHECK_HASHSEEDS)}: "
          f"{'identical' if same else 'DIFFERENT'} outputs, golden {'ok' if ok else 'MISMATCH'}")
    return same and ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hashseed-check", action="store_true",
                        help="check outputs under two PYTHONHASHSEED values and exit")
    args = parser.parse_args(argv)
    if not (SRC / "sodatlas" / "__init__.py").is_file():
        print(f"error: no sodatlas source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.hashseed_check:
        parser.error("--workload is required")
    # Byte-code is compiled before any pass, as for an installed package, so
    # set-up time is the same with and without PYTHONDONTWRITEBYTECODE.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        if args.hashseed_check:
            names = [args.workload] if args.workload else list(WORKLOADS)
            return 0 if all([hashseed_check(n, args.seed, workdir, golden) for n in names]) else 1
        report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                           golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in report["metrics"].items():
        print(f"{name} {value} {unit}")
    for note in report.pop("notes"):
        print(note)
    report["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()
    }
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
