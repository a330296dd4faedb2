"""Record bench/golden.json from the source tree in this checkout.

Usage: python3 bench/make_golden.py

Stores the sha256 of `verify-link --id` output for every catalog case, the
digest and length of `verify-link --all` (which must equal the per-case
outputs joined in catalog order), and the conjugation-invariant lines of
`group` output for every group-h1 action.  Run it only on a commit whose
output is the reference; the benchmark counts any later difference as a
failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run


def _stdout(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"sodatlas {' '.join(argv)} exited {rc}")
    return out.getvalue()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from sodatlas import cli
    from sodatlas.catalog.scripts import catalog_ids

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    order = list(catalog_ids())
    outputs = {case: _stdout(cli, ["verify-link", "--id", case]) for case in order}
    everything = _stdout(cli, ["verify-link", "--all"])
    if "".join(outputs[c] for c in order) != everything:
        raise SystemExit("per-case outputs joined in catalog order differ from --all")
    group = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for name, (n, gens) in run.ACTIONS.items():
            path = Path(tmp) / f"{name}.cfg"
            path.write_text(run.action_text(n, gens), encoding="utf-8")
            group[name] = run.invariant_lines(_stdout(cli, ["group", "--action", str(path)]))
    golden = {
        "catalog": {
            "order": order,
            "cases": {case: sha(text) for case, text in outputs.items()},
            "all_sha256": sha(everything),
            "all_bytes": len(everything.encode("utf-8")),
        },
        "group": group,
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.GOLDEN}: {len(order)} cases, {golden['catalog']['all_bytes']} bytes, "
          f"{len(group)} actions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
