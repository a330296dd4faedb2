"""Command-line front end.

Subcommands map one-to-one onto the library layers: `classes` and `sod`
for the lattice, `mutate` and `verify-link` for the rewriting engine and
the stored catalog, `group`/`atoms`/`invariant` for the symmetry layer,
`profile` for the arithmetic checks, `selftest` for the embedded
acceptance suite.  All output is decimal integers and fixed-order text;
parse problems exit 2, failed verifications exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import selftest as _selftest
from .arithmetic import (
    SmallAtom,
    dam_order,
    dp6_consistency,
    index_formula_check,
    is_rational_profile,
    is_rich_profile,
    parse_profiles,
)
from .catalog.core import MoriFibreSpace, standard_sod
from .catalog.scripts import catalog_ids, parse_side, verify_link
from .equivariant import (
    K_NEF,
    atom_multiset,
    burnside_invariant,
    group_action,
    h1_picard,
    invariant_rank,
    minimality_proxy,
    orbits,
)
from .errors import InputError, SodatlasError, UnsupportedRangeError
from .lattice import SurfaceModel, _quote, _shown
from .mutation import VERDICT_OK, _render_blocks, parse_script, run_script
from .textio import (
    _names_of,
    _parse_int,
    parse_divisor,
    parse_int_list,
    parse_matrix,
    parse_stanzas,
    parse_surface_spec,
    parse_surface_stanza,
    render_divisor,
    stanza_single,
)

# -- file plumbing -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _single_stanza(path: str, kind: str) -> dict[str, list[str]]:
    stanzas = [s for k, _, s in parse_stanzas(_read(path)) if k == kind]
    if len(stanzas) != 1:
        raise InputError(f"{path}: expected exactly one [{kind}] section, found {len(stanzas)}")
    return stanzas[0]


def _surface_of(stanza: dict[str, list[str]], path: str) -> SurfaceModel:
    if "model" in stanza:
        if "base" in stanza or "blowups" in stanza:
            raise InputError(f"{path}: give either model= or base=/blowups=, not both")
        return parse_surface_spec(stanza_single(stanza, "model"))
    return parse_surface_stanza(stanza)


def _fibre_space(surface: SurfaceModel, stanza: dict[str, list[str]]) -> MoriFibreSpace:
    base = stanza_single(stanza, "over", "Point")
    genus = _parse_int(stanza_single(stanza, "genus", "0"))
    fib = None
    if "fibre" in stanza:
        fib = parse_divisor(surface, stanza_single(stanza, "fibre"), _names_of(surface, stanza))
    return MoriFibreSpace(surface, base, genus=genus, fibration_class=fib)


def _load_action(path: str, surface: SurfaceModel | None):
    stanza = _single_stanza(path, "group")
    if surface is None:
        surface = _surface_of(stanza, path)
    elif "model" in stanza:
        stated = stanza_single(stanza, "model")
        if parse_surface_spec(stated).describe() != surface.describe():
            raise InputError(f"{path}: model {stated!r} does not match {surface.describe()}")
    gens = [parse_matrix(text) for text in stanza.get("gen", [])]
    return surface, group_action(surface, gens)


# -- rendering -----------------------------------------------------------------


def _render_factors(factors) -> str:
    if not factors:
        return "0"
    return " x ".join(f"Z/{f}" for f in factors)


def _block_text(record) -> str:
    text = ", ".join(record["objects"])
    if record["opaque"]:
        text += " (opaque)"
    return text


def _render_blocks_line(records) -> str:
    return " | ".join(_block_text(record) for record in records)


def _print_gram(gram) -> None:
    width = max((len(str(x)) for row in gram for x in row), default=1)
    for row in gram:
        print("  " + " ".join(str(x).rjust(width) for x in row))


# -- subcommands ----------------------------------------------------------------


def _cmd_classes(args) -> int:
    degree = args.degree
    if not 1 <= degree <= 9:
        raise InputError(f"degree {_shown(str(degree))} is outside 1..9")
    if degree == 9:
        surface = SurfaceModel("P2", ())
    elif degree == 8:
        surface = SurfaceModel("F0", ())
    else:
        surface = SurfaceModel("P2", (9 - degree,))
    found = sorted(surface.enumerate_r_classes(args.r), key=lambda d: d.coords)
    print(f"surface: {surface.describe()}")
    print(f"square: {args.r}")
    for d in found:
        print(render_divisor(surface, d))
    print(f"count: {len(found)}")
    return 0


def _cmd_sod(args) -> int:
    stanza = _single_stanza(args.surface, "surface")
    surface = _surface_of(stanza, args.surface)
    space = _fibre_space(surface, stanza)
    coll = standard_sod(space)
    print(f"surface: {surface.describe()}")
    print(f"over: {space.base}")
    for i, record in enumerate(_render_blocks(coll), 1):
        print(f"block {i}: {_block_text(record)}")
    print("gram:")
    _print_gram(coll.gram)
    return 0


def _cmd_mutate(args) -> int:
    stanza = _single_stanza(args.collection, "collection")
    surface = _surface_of(stanza, args.collection)
    names = _names_of(surface, stanza)
    coll = parse_side(surface, stanza_single(stanza, "blocks"), names)
    moves = parse_script(_read(args.script))
    print(f"start: {_render_blocks_line(_render_blocks(coll))}")
    final, steps = run_script(coll, moves, args.collection)
    for record in steps:
        print(f"step {record['step']}: {record['move']}")
        print(f"  {_render_blocks_line(record['blocks'])}")
    print(f"final: {_render_blocks_line(_render_blocks(final))}")
    print("gram:")
    _print_gram(final.gram)
    return 0


def _cmd_verify_link(args) -> int:
    ids = catalog_ids() if args.all else (args.id,)
    if not args.all and args.id not in catalog_ids():
        raise InputError(f"unknown catalog id {_quote(args.id)}")
    failure = None
    for case in ids:
        cert = verify_link(case)
        for record in cert["steps"]:
            print(json.dumps({"case": case, **record}, sort_keys=True))
            if not record["ok"] and failure is None:
                failure = (case, record["step"], record["move"])
        print(json.dumps({"case": case, "verdict": cert["verdict"]}, sort_keys=True))
        if cert["verdict"] != VERDICT_OK and failure is None:
            failure = (case, 0, "final comparison")
    if failure is not None:
        case, step, move = failure
        print(f"FAIL {case}: step {step} ({move})", file=sys.stderr)
        return 1
    return 0


def _cmd_group(args) -> int:
    surface, action = _load_action(args.action, None)
    print(f"surface: {surface.describe()}")
    print(f"order: {action.order}")
    print(f"invariant rank: {invariant_rank(action)}")
    try:
        parts = orbits(action, surface.enumerate_r_classes(-1))
    except UnsupportedRangeError as exc:
        parts, reason = None, exc
        print(f"contractible-class orbits: unavailable ({exc})")
    else:
        for part in parts:
            print("orbit: " + ", ".join(render_divisor(surface, d) for d in part))
    try:
        print(f"H1: {_render_factors(h1_picard(action))}")
    except UnsupportedRangeError as exc:
        print(f"H1: skipped ({exc})")
    if parts is None:
        print(f"minimality (numerical proxy): unavailable ({reason})")
        return 0
    witness = minimality_proxy(action, parts)
    if witness is None:
        print("minimality (numerical proxy): minimal")
    else:
        shown = ", ".join(render_divisor(surface, d) for d in witness)
        print(f"minimality (numerical proxy): not minimal, witness: {shown}")
    return 0


def _contraction_terminal(stanza: dict[str, list[str]], path: str):
    terminal = stanza_single(stanza, "terminal")
    if terminal == "K-nef":
        return K_NEF
    if "model" not in stanza:
        raise InputError(f"{path}: terminal {terminal!r} needs a model= line")
    residual = parse_surface_spec(stanza_single(stanza, "model"))
    sub = dict(stanza)
    sub["over"] = [terminal]
    return _fibre_space(residual, sub)


def _cmd_atoms(args) -> int:
    surf_stanza = _single_stanza(args.surface, "surface")
    surface = _surface_of(surf_stanza, args.surface)
    _, action = _load_action(args.action, surface)
    con_stanza = _single_stanza(args.contraction, "contraction")
    indices = parse_int_list(stanza_single(con_stanza, "orbits", "[]"))
    contraction = list(indices) + [_contraction_terminal(con_stanza, args.contraction)]
    found = atom_multiset(surface, action, contraction)
    for atom in found:
        if atom.kind == "permutation":
            line = f"atom: permutation, orbit size {atom.gset.size}"
        else:
            line = f"atom: opaque {atom.shape}, degree {atom.degree}"
        print(line)
    print(f"count: {len(found)}")
    return 0


def _cmd_invariant(args) -> int:
    stanza = _single_stanza(args.steps, "steps")
    steps = []
    for key, kind in (("blowup", "BlowUp"), ("blowdown", "BlowDown")):
        for text in stanza.get(key, []):
            size = _parse_int(text)
            if size < 1:
                raise InputError(f"orbit size {size} must be positive")
            steps.append((kind, size))
    element = burnside_invariant(steps)
    if element.is_zero():
        print("0")
    else:
        print(" ".join(f"{c:+d}*[orbit {size}]" for c, size in element.terms))
    return 0


def _cmd_profile(args) -> int:
    profiles = parse_profiles(_read(args.file))
    failed = False
    for idx, (name, profile) in enumerate(profiles, 1):
        print(f"profile: {name or idx}")
        small = [a for a in profile.atoms if isinstance(a, SmallAtom)]
        print(f"  atoms: {len(small)} small, {len(profile.atoms) - len(small)} opaque")
        if len(profile.atoms) == len(small):
            print(f"  decomposition order: {dam_order(profile)}")
        if profile.amitsur_order is None or profile.surface_index is None:
            print("  index formula: skipped (needs am= and ind=)")
        elif index_formula_check(profile):
            print("  index formula: ok")
        else:
            print("  index formula: FAIL")
            failed = True
        print(f"  rational shape: {'yes' if is_rational_profile(profile) else 'no'}")
        print(f"  rich: {'yes' if is_rich_profile(profile) else 'no'}")
        if sorted(a.field_degree for a in small) == [1, 2, 3] and len(profile.atoms) == 3:
            for warning in dp6_consistency(profile):
                print(f"  warning: {warning}")
    return 1 if failed else 0


def _cmd_selftest(_args) -> int:
    return 0 if _selftest.run_all(print) else 1


# -- parser ---------------------------------------------------------------------


def _int_arg(text: str) -> int:
    """`int`, refusing a value with argparse's own text, quoted by `_quote`."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


_COMMANDS = (
    "classes", "sod", "mutate", "verify-link", "group", "atoms", "invariant", "profile", "selftest",
)


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser `main` runs on `argv`.  When `argv` starts with a command,
    only that command's subparser is built, under the full usage line;
    otherwise (and with no argument) every subparser is."""
    parser = argparse.ArgumentParser(
        prog="sodatlas",
        description="exact lattice, mutation and catalog computations for rational surfaces",
    )
    if argv and argv[0] in _COMMANDS:
        wanted = (argv[0],)
        # The full choice list keeps the usage line.  The full parser names
        # no metavar: it would replace `command` in the invalid-choice error.
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
    else:
        wanted = _COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)

    if "classes" in wanted:
        p = sub.add_parser("classes", help="enumerate divisor classes of a fixed square")
        p.add_argument("--degree", type=_int_arg, required=True, help="degree of the model, 1..9 (8 is the quadric)")
        p.add_argument("--r", type=_int_arg, required=True, help="self-intersection, -2..1")
        p.set_defaults(handler=_cmd_classes)

    if "sod" in wanted:
        p = sub.add_parser("sod", help="print the standard collection of a surface file")
        p.add_argument("--surface", required=True, metavar="FILE")
        p.set_defaults(handler=_cmd_sod)

    if "mutate" in wanted:
        p = sub.add_parser("mutate", help="replay a move script on a collection file")
        p.add_argument("--collection", required=True, metavar="FILE")
        p.add_argument("--script", required=True, metavar="FILE")
        p.set_defaults(handler=_cmd_mutate)

    if "verify-link" in wanted:
        p = sub.add_parser("verify-link", help="replay stored catalog scripts")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--id", help="one catalog id")
        group.add_argument("--all", action="store_true", help="every catalog id, in order")
        p.set_defaults(handler=_cmd_verify_link)

    if "group" in wanted:
        p = sub.add_parser("group", help="analyse a lattice group action file")
        p.add_argument("--action", required=True, metavar="FILE")
        p.set_defaults(handler=_cmd_group)

    if "atoms" in wanted:
        p = sub.add_parser("atoms", help="atom multiset of an equivariant contraction")
        p.add_argument("--surface", required=True, metavar="FILE")
        p.add_argument("--action", required=True, metavar="FILE")
        p.add_argument("--contraction", required=True, metavar="FILE")
        p.set_defaults(handler=_cmd_atoms)

    if "invariant" in wanted:
        p = sub.add_parser("invariant", help="Burnside element of a blow-up/down step list")
        p.add_argument("--steps", required=True, metavar="FILE")
        p.set_defaults(handler=_cmd_invariant)

    if "profile" in wanted:
        p = sub.add_parser("profile", help="arithmetic checks on an atom profile file")
        p.add_argument("--file", required=True, metavar="FILE")
        p.set_defaults(handler=_cmd_profile)

    if "selftest" in wanted:
        p = sub.add_parser("selftest", help="run the embedded acceptance suite")
        p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        sys.stdout.flush()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SodatlasError as exc:
        sys.stdout.flush()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
