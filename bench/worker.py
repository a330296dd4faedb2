"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json RESULT.json SPAWNED

SPEC.json names the workload, the source tree to import `sodatlas` from and
the list of ops; SPAWNED is the parent's `time.monotonic()` just before it
started this process (a system-wide clock on Linux and macOS), so the set-up
time below includes interpreter start.  The pass imports the package, loads
the workload's data, runs every op once in order in a closed loop and writes
per-op latencies and output digests to RESULT.json.

Before the first op and after every op the pass runs `speed_probe`, a fixed
pure-Python job that uses nothing from `sodatlas`, repeated after an op for
a tenth of the op's latency.  The host's speed drifts by up to a factor of
two in phases of seconds to minutes; the probes on either side of an op
measure the speed it ran at, and the runner scales its latency by them (see
bench/run.py).

With "trace" set in the spec, every public entry point named in TRACED is
wrapped before the data load.  Each call records a span (name, start, end,
parent span, op id) in memory; at the end the spans are reduced to calls and
self time per entry point.  Nothing inside the package is edited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

# (span name, module, attribute); a dotted attribute is a method on a class.
TRACED = (
    ("cli.main", "sodatlas.cli", "main"),
    ("textio.render_kclass", "sodatlas.textio", "render_kclass"),
    ("textio.parse_stanzas", "sodatlas.textio", "parse_stanzas"),
    ("lattice.intersect", "sodatlas.lattice", "SurfaceModel.intersect"),
    ("lattice.enumerate_r_classes", "sodatlas.lattice", "SurfaceModel.enumerate_r_classes"),
    ("ktheory.euler_pairing", "sodatlas.ktheory", "euler_pairing"),
    ("ktheory.twist", "sodatlas.ktheory", "twist"),
    ("mutation.check_collection", "sodatlas.mutation", "check_collection"),
    ("mutation.run_script", "sodatlas.mutation", "run_script"),
    ("mutation.subcategory_serre_matrix", "sodatlas.mutation", "subcategory_serre_matrix"),
    ("mutation.apply_move", "sodatlas.mutation", "apply_move"),
    ("mutation.search_path", "sodatlas.mutation", "search_path"),
    ("mutation.canonical_form", "sodatlas.mutation", "canonical_form"),
    ("catalog.verify_link", "sodatlas.catalog.scripts", "verify_link"),
    ("equivariant.group_action", "sodatlas.equivariant", "group_action"),
    ("equivariant.orbits", "sodatlas.equivariant", "orbits"),
    ("equivariant.minimality_proxy", "sodatlas.equivariant", "minimality_proxy"),
    ("equivariant.h1_picard", "sodatlas.equivariant", "h1_picard"),
    ("intlinalg.smith_normal_form", "sodatlas.intlinalg", "smith_normal_form"),
    ("intlinalg.kernel_basis", "sodatlas.intlinalg", "kernel_basis"),
    ("intlinalg.det", "sodatlas.intlinalg", "det"),
    ("intlinalg.hermite_row_form", "sodatlas.intlinalg", "hermite_row_form"),
    ("intlinalg.solve", "sodatlas.intlinalg", "solve"),
    ("intlinalg.mat_mul", "sodatlas.intlinalg", "mat_mul"),
)


def _matrix_shape(args, _result):
    a = args[0]
    return (len(a), len(a[0]) if a else 0)


def _group_size(_args, result):
    return len(result.elements)


# Extra facts recorded per call: argument shapes and result sizes.
NOTES = {
    "intlinalg.smith_normal_form": _matrix_shape,
    "equivariant.group_action": _group_size,
}


class Tracer:
    """Spans of wrapped calls, kept in memory until the pass ends."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, op id, raised]
        self.spans: list[list] = []
        self.notes: dict[str, list] = {}
        self.op = -1  # -1 while the pass sets up
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        notes = self.notes.setdefault(name, [])

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                notes.append(note(args, result))
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every `sodatlas` namespace that
        holds it, and each traced method on its class."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sodatlas"]
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Calls, calls that raised, and self time (duration minus the time
        covered by child spans) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "raised": 0, "self_s": 0.0} for name, _, _ in TRACED}
        for i, (name, start, end, _parent, _op, raised) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["raised"] += raised
            entry["self_s"] += (end - start) - child[i]
        for name, values in self.notes.items():
            out[name]["notes"] = values
        return out


def _probe_job() -> int:
    """Small-integer matrix-vector products, tuples and a dict: the kind of
    work the package does, in about 2 ms on the reference host."""
    n = 10
    gram = [[(3 * i + 5 * j) % 7 - 3 for j in range(n)] for i in range(n)]
    vectors = [tuple((i * k + k) % 5 - 2 for i in range(n)) for k in range(24)]
    seen: dict[int, int] = {}
    for _ in range(2):
        for a in vectors:
            ga = [sum(x * y for x, y in zip(row, a)) for row in gram]
            for b in vectors:
                s = sum(x * y for x, y in zip(ga, b))
                seen[s] = seen.get(s, 0) + 1
    return len(seen)


# After an op the probe runs for this share of the op's latency: one run of
# the job jitters by tens of percent, which would swamp the scaling of a long
# op, while the mean of many runs does not.
PROBE_SHARE = 0.1


def speed_probe(at_least: float = 0.0) -> tuple[float, int]:
    """Runs `_probe_job` as often as fills `at_least` seconds, and at least
    once; returns the seconds taken and the number of runs."""
    runs, start = 0, time.perf_counter()
    while True:
        _probe_job()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed, runs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _collection(mutation, ktheory, surface, goal):
    """The goal collection from its class vectors; labels come with the
    input, so building it calls nothing that is traced."""
    blocks = []
    for blk in goal["blocks"]:
        classes = [ktheory.class_from_vector(surface, v) for v in blk["classes"]]
        blocks.append(mutation.block_of_classes(classes, blk["opaque"], blk["labels"]))
    return mutation.Collection(surface, tuple(blocks), full=goal["full"])


def run_pass(spec: dict, spawned: float) -> dict:
    sys.path.insert(0, spec["src"])
    tracer = Tracer() if spec.get("trace") else None
    import sodatlas.cli as cli

    if not cli.__file__.startswith(spec["src"]):
        raise SystemExit(f"sodatlas imported from {cli.__file__}, not from {spec['src']}")
    from sodatlas import ktheory, mutation
    from sodatlas.catalog import scripts

    if tracer is not None:
        tracer.install()
    workload = spec["workload"]
    load_s = 0.0
    if workload in ("catalog-replay", "move-search"):
        start = time.perf_counter()
        scripts.catalog_ids()
        load_s = time.perf_counter() - start
    setup_s = time.monotonic() - spawned

    ops = spec["ops"]
    if workload == "move-search":
        starts = {op["case"]: scripts.link_script(op["case"]).side1 for op in ops}
        goals = [
            _collection(mutation, ktheory, starts[op["case"]].surface, op["goal"])
            for op in ops
        ]

    def run_op(i: int, op: dict) -> tuple[int, str]:
        if workload == "catalog-replay":
            return _run_cli(cli, ["verify-link", "--id", op["case"]])
        if workload == "group-h1":
            return _run_cli(cli, ["group", "--action", op["file"]])
        path = mutation.search_path(starts[op["case"]], goals[i], max_depth=spec["max_depth"])
        return 0, "none" if path is None else mutation.render_script(path)

    results = []
    probes = [speed_probe()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            rc, text = run_op(i, op)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            rc, text, error = None, "", repr(exc)
        latency = time.perf_counter() - start
        probes.append(speed_probe(PROBE_SHARE * latency))
        res = {
            "latency_s": latency,
            # one job's time, pooled over the probes before and after the op
            "probe_s": (probes[-2][0] + probes[-1][0]) / (probes[-2][1] + probes[-1][1]),
            "rc": rc,
            "digest": _digest(text),
            "text": text,
        }
        if error is not None:
            res["error"] = error
        results.append(res)

    report = {
        "setup_s": setup_s,
        "setup_probe_s": probes[0][0],
        "load_s": load_s,
        "ops": results,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        // (1024 if sys.platform == "darwin" else 1),
    }
    if workload == "catalog-replay":
        by_case = {op["case"]: res["text"] for op, res in zip(ops, results)}
        report["all_digest"] = _digest("".join(by_case.get(c, "") for c in spec["catalog_order"]))
        for res in results:
            del res["text"]  # only the digest travels back
    if tracer is not None:
        report["trace"] = tracer.summary()
    return report


def main(argv: list[str]) -> int:
    spec_path, result_path, spawned = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    report = run_pass(spec, float(spawned))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
