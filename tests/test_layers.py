"""The package's layering, read from the source with `ast`.

`lattice` stands on `errors` alone and `ktheory` on `errors`, `intlinalg`
and `lattice`.  Each class transport and the Euler form is defined in one
module, beside its type, and every import of it names that module; the
symmetry layer takes only `MoriFibreSpace` and `standard_sod` from the
catalog and nothing from `textio`, and the catalog package re-exports only
its own modules.  `MoriFibreSpace` alone decides which fibre spaces exist, and
`standard_sod` only builds.  The exact kernels of `intlinalg` stay off the
Fraction route.  The legality check reads the flat pairings and never
builds the Gram tuple, which the certificate record builds once.  Serre
powers have one route: no module defines `mat_pow`, only
`mutation.serre_images` and selftest criterion 5 take the Serre matrix,
and `serre_power_match` reads `serre_images`.  A G-set is built and
compared without `intlinalg`: it is its generators' permutation of its
points, so no matrix product enters.  A stable class set is split once:
the one `_image_table` call that moves divisors builds the table that the
orbits and every G-set read, and only the restriction to an orbit builds a
G-set, always with rows.  The image table moves int tuples column by
column for divisors and K-classes alike, so no item is moved alone.
G-sets and atoms compare by their dataclass `==` alone: no second
equality is defined beside it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sodatlas"

HOMES = {
    "apply_divisor_matrix": "lattice",
    "sigma_kclass": "ktheory",
    "euler_form": "ktheory",
}


def _module_name(path):
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {
    _module_name(path): ast.parse(path.read_text("utf-8"), str(path))
    for path in sorted(PACKAGE.rglob("*.py"))
}


def _package_of(module):
    path = PACKAGE / Path(*module.split(".")) if module else PACKAGE
    return module if path.is_dir() else module.rpartition(".")[0]


def _imports(module):
    """(imported sodatlas module, names taken from it) for each import.  The
    package imports itself only relatively (tests/test_stdlib_only.py)."""
    for node in ast.walk(MODULES[module]):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        base = _package_of(module)
        for _ in range(node.level - 1):
            base = base.rpartition(".")[0]
        target = ".".join(p for p in (base, node.module) if p)
        names = [alias.name for alias in node.names]
        if node.module is None:
            # `from . import intlinalg` imports modules, not names
            for name in names:
                yield ".".join(p for p in (target, name) if p), []
        else:
            yield target, names


def _imported_modules(module):
    return {target for target, _ in _imports(module)}


def test_the_module_map_is_complete():
    assert {"lattice", "ktheory", "equivariant", "catalog", "catalog.core"} <= set(MODULES)
    assert _imported_modules("catalog") == {"catalog.core", "catalog.scripts"}


def test_lattice_stands_on_errors_alone():
    assert _imported_modules("lattice") == {"errors"}


def test_ktheory_stands_on_errors_intlinalg_and_lattice():
    assert _imported_modules("ktheory") == {"errors", "intlinalg", "lattice"}


def test_each_transport_and_the_euler_form_has_one_home():
    for name, home in HOMES.items():
        defined = [
            module
            for module, tree in MODULES.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        assert defined == [home], name
        importers = {
            (module, target)
            for module in MODULES
            for target, names in _imports(module)
            if name in names
        }
        assert importers, name
        assert {target for _, target in importers} == {home}, name


def test_the_symmetry_layer_renders_nothing():
    assert "textio" not in _imported_modules("equivariant")


def test_the_symmetry_layer_takes_two_names_from_the_catalog():
    taken = [
        (target, names)
        for target, names in _imports("equivariant")
        if target.partition(".")[0] == "catalog"
    ]
    assert taken == [("catalog.core", ["MoriFibreSpace", "standard_sod"])]


# The checks that once ran inside `standard_sod`, by their texts.
FIBRE_SPACE_CHECKS = (
    "a rank-one degree-8 surface over a point carries two rulings",
    "a degree-8 conic bundle is a ruled surface without blown points",
    "fibration class is not a ruling of this surface",
    "surface models cover rational surfaces only; no model over a positive-genus curve",
)


def test_only_the_fibre_space_decides_which_fibre_spaces_exist():
    core = {node.name: node for node in MODULES["catalog.core"].body if hasattr(node, "name")}
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(core["standard_sod"]))
    home = {id(node) for node in ast.walk(core["MoriFibreSpace"])}
    for text in FIBRE_SPACE_CHECKS:
        found = [
            node
            for tree in MODULES.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
        ]
        assert found, text
        assert all(id(node) in home for node in found), text


FRACTION_FREE = ("mat_inverse_integer", "mat_mul", "mat_vec")


def test_the_exact_kernels_do_not_reach_for_fraction():
    """The Serre step runs through these three; the Fraction route must not
    come back to them, so that deleting it stays a change to one module."""
    kernels = {
        node.name: node
        for node in MODULES["intlinalg"].body
        if isinstance(node, ast.FunctionDef) and node.name in FRACTION_FREE
    }
    assert sorted(kernels) == sorted(FRACTION_FREE)
    for name, node in kernels.items():
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert not used & {"Fraction", "mat_inverse_fraction"}, name


def test_the_check_never_builds_the_gram_tuple():
    checks = {
        node.name: node
        for node in MODULES["mutation"].body
        if isinstance(node, ast.FunctionDef) and node.name in ("check_collection", "_lattice_basis")
    }
    assert sorted(checks) == ["_lattice_basis", "check_collection"]
    for name, node in checks.items():
        read = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert "_pairings" in read and "gram" not in read, name


def _called(node):
    """Names of the functions `node` calls, bare or as an attribute."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_no_module_defines_a_matrix_power():
    defined = [
        module
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "mat_pow"
    ]
    assert defined == []


def test_the_serre_matrix_is_taken_by_the_serre_step_and_criterion_5_alone():
    callers = {
        (module, node.name)
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and "subcategory_serre_matrix" in _called(node)
    }
    assert callers == {("mutation", "serre_images"), ("selftest", "criterion_5")}
    at_module_level = [
        module
        for module, tree in MODULES.items()
        for node in tree.body
        if not isinstance(node, ast.FunctionDef) and "subcategory_serre_matrix" in _called(node)
    ]
    assert at_module_level == []


def test_serre_power_match_reads_the_serre_step():
    (match,) = [
        node
        for node in MODULES["mutation"].body
        if isinstance(node, ast.FunctionDef) and node.name == "serre_power_match"
    ]
    assert "serre_images" in set(_called(match))


def test_gsets_are_built_and_compared_without_intlinalg():
    kernels = {node.name for node in MODULES["intlinalg"].body if isinstance(node, ast.FunctionDef)}
    gsets = {
        node.name: node
        for node in MODULES["equivariant"].body
        if isinstance(node, ast.ClassDef) and node.name in ("TransitiveGSet", "Atom", "BurnsideElement")
    }
    assert sorted(gsets) == ["Atom", "BurnsideElement", "TransitiveGSet"]
    for name, node in gsets.items():
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert "intlinalg" not in read, name
        assert not set(_called(node)) & kernels, name


def _calls(module, callee):
    """(enclosing module-level definition or None, call) for each call of
    `callee` in `module`, bare or as an attribute."""
    for top in MODULES[module].body:
        for call in ast.walk(top):
            if isinstance(call, ast.Call) and callee in (
                getattr(call.func, "id", None),
                getattr(call.func, "attr", None),
            ):
                yield getattr(top, "name", None), call


def test_no_module_defines_a_second_gset_builder():
    defined = [
        module
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_orbit_gset"
    ]
    assert defined == []


def test_divisors_reach_the_image_table_from_one_call_site():
    """`_split` hands divisor coordinates to the image table; the two K-class
    tables hand it class vectors, with the generators bordered by
    `_on_kclasses`.  No other call builds a table, so each stable set is
    moved once."""
    sites = []
    for name, call in _calls("equivariant", "_image_table"):
        matrices, vectors, _ = call.args
        read = {n.attr for n in ast.walk(vectors) if isinstance(n, ast.Attribute)}
        sites.append((name, set(_called(matrices)) & {"_on_kclasses"}, read))
    assert sites == [
        ("_split", set(), {"coords"}),
        ("atom_multiset", {"_on_kclasses"}, {"vector"}),
        ("permutation_basis_certificate", {"_on_kclasses"}, {"vector"}),
    ]


def test_the_image_tables_move_no_item_alone():
    """The one kernel moves every vector of a table by one column product per
    matrix: no per-item transport is called in `equivariant`, except the
    check that a generator fixes K."""
    transports = {"apply_divisor_matrix", "sigma_kclass", "mat_vec"}
    callers = sorted(
        (node.name, callee)
        for node in MODULES["equivariant"].body
        if isinstance(node, ast.FunctionDef)
        for callee in set(_called(node)) & transports
    )
    assert callers == [("group_action", "apply_divisor_matrix")]


def test_gsets_with_rows_are_built_only_by_the_restriction():
    """The restriction passes size, rows and generators; `invariant` has no
    group, so its orbits are bare sizes and it builds no G-set."""
    built = sorted(
        (module, name, len(call.args) + len(call.keywords))
        for module in MODULES
        for name, call in _calls(module, "TransitiveGSet")
    )
    assert built == [("equivariant", "_restrict", 3)]


def test_no_module_defines_a_second_gset_equality():
    defined = [
        (module, node.name)
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("gsets_equal", "_reduce_terms")
    ]
    assert defined == []


def test_gsets_and_atoms_compare_by_their_dataclass_fields():
    classes = {node.name: node for node in MODULES["equivariant"].body if isinstance(node, ast.ClassDef)}
    for name in ("TransitiveGSet", "Atom"):
        methods = {node.name for node in classes[name].body if isinstance(node, ast.FunctionDef)}
        assert not methods & {"__eq__", "__hash__"}, name
