"""The package holds only what the pipeline runs.

The pipeline is the code behind the CLI commands (``src/crackdsm``),
``scripts/`` and the benchmark (``crackbench/``, its own tests excluded).
Every public module-level function or class of ``src/crackdsm``, and every
public method, must be named by an identifier somewhere in that code outside
its own definition.  A name only tests call belongs in a test helper module
such as ``tests/paper.py``.  The same holds for every private module-level
function, class and constant and every private method of ``src/crackdsm``
(dunders such as ``__version__`` and ``__post_init__`` excepted), and each of
its modules must use every name it imports.

Eight more checks keep one implementation each: `forward` uses ``sp_j0`` and
``sp_y0`` (the solver's Hankel kernel) in one function only, `imaging` calls
``np.exp`` in one function only, which takes every map's steering
exponentials, `imaging` measures every peak distance in ``_distances`` and
never calls ``np.linalg``, ``.17g`` appears in `io` only, whose encoder
writes every map and tensor row, ``np.loadtxt`` is called in one function
of `io` only, which parses every scene row and every map and tensor data row,
`forward` calls ``lu_factor`` on a self block only through its two half-size
blocks, `forward` reads ``_RCOND_FLOOR`` in one function only, where
only ``self.rcond`` meets it, and `forward` calls LAPACK's getrf and getrs
only in its own ``lu_factor`` and ``lu_solve`` and imports neither name from
scipy.  One more check keeps every cached table of `forward`, the Chebyshev
nodes among them, read-only.

The checks read identifiers from the syntax tree, so comments, docstrings and
strings do not count.  They cannot see a name that only other dead code calls,
nor tell apart two definitions that share a name.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crackdsm"
PIPELINE = (PACKAGE, ROOT / "scripts", ROOT / "crackbench")


def _public_definitions(tree):
    """(label, name, node) for public functions, classes and methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """(label, name, node) for private module-level functions, classes and
    constants, and private methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in filter(_is_private, names):
            yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_private(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _imports(tree):
    """(bound name, node) for every import statement but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node


def _identifier_uses(tree):
    """(name, line) for every name, attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _pipeline_files():
    for top in PIPELINE:
        for path in sorted(top.rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


@functools.cache
def _pipeline():
    """Syntax tree per pipeline file, and (file, line) per identifier used."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in _pipeline_files()}
    uses = {}
    for path, tree in trees.items():
        for name, line in _identifier_uses(tree):
            uses.setdefault(name, []).append((path, line))
    return trees, uses


def _unused(definitions):
    """``module.label`` for each (path, label, name, node) whose name nothing
    in the pipeline outside the node's own lines uses."""
    uses = _pipeline()[1]
    return [f"{path.stem}.{label}" for path, label, name, node in definitions
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in uses.get(name, []))]


def test_every_public_name_is_used_by_the_pipeline():
    trees = _pipeline()[0]
    unused = _unused((path, label, name, node) for path in sorted(PACKAGE.glob("*.py"))
                     for label, name, node in _public_definitions(trees[path]))
    assert unused == [], f"public names no pipeline code uses: {unused}"


def test_every_private_name_is_used_by_the_pipeline():
    trees = _pipeline()[0]
    unused = _unused((path, label, name, node) for path in sorted(PACKAGE.glob("*.py"))
                     for label, name, node in _private_definitions(trees[path]))
    assert unused == [], f"private names no pipeline code uses: {unused}"


def test_every_import_is_used_by_its_module():
    trees = _pipeline()[0]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        uses = list(_identifier_uses(trees[path]))
        for name, node in _imports(trees[path]):
            if all(n != name or node.lineno <= line <= node.end_lineno for n, line in uses):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"imports their module never uses: {unused}"


def _units(tree):
    """(label, node) per module-level statement, methods taken one by one."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


def test_forward_evaluates_the_hankel_kernel_in_one_function():
    # J0 and Y0 at the same points make one kernel i H0 = -Y0 + i J0; a second
    # place that evaluates them is a second copy of that kernel
    tree = _pipeline()[0][PACKAGE / "forward.py"]
    users = {label for label, unit in _units(tree) for node in ast.walk(unit)
             if isinstance(node, ast.Name) and node.id in ("sp_j0", "sp_y0")}
    assert len(users) == 1, f"sp_j0/sp_y0 used in more than one place of forward: {sorted(users)}"


def test_imaging_takes_exponentials_in_one_function():
    # every map's steering phases are built from one pair of coarse and fine
    # tables; a second place that calls np.exp is a second copy of the kernel
    tree = _pipeline()[0][PACKAGE / "imaging.py"]
    users = {label for label, unit in _units(tree) for node in ast.walk(unit)
             if isinstance(node, ast.Attribute) and node.attr == "exp"
             and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert len(users) == 1, f"np.exp called in more than one place of imaging: {sorted(users)}"


def test_imaging_measures_peak_distances_in_one_function():
    # pruning and crack matches take sqrt(dx*dx + dy*dy) from _distances;
    # np.linalg (whose norm rounds as the CPU's BLAS kernel does), np.hypot
    # or math.dist would be a second way
    tree = _pipeline()[0][PACKAGE / "imaging.py"]
    others = sorted(f"{label}: {node.attr}" for label, unit in _units(tree)
                    for node in ast.walk(unit) if isinstance(node, ast.Attribute)
                    and node.attr in ("linalg", "hypot", "dist"))
    assert others == [], f"imaging measures distances another way: {others}"
    roots = sorted(label for label, unit in _units(tree) for node in ast.walk(unit)
                   if isinstance(node, ast.Attribute) and node.attr == "sqrt")
    assert roots == ["_distances", "map_distance"], f"np.sqrt called in {roots}"
    callers = sorted(label for label, unit in _units(tree) for node in ast.walk(unit)
                     if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_distances")
    assert callers == ["find_local_maxima"] * 2, f"_distances called from {callers}"


def test_forward_factors_self_blocks_only_as_two_halves():
    # a self block is centrosymmetric and factored as two n/2 blocks in
    # _split_factor; the one other LU is _factor's, of the capacitance matrix
    tree = _pipeline()[0][PACKAGE / "forward.py"]
    users = {label for label, unit in _units(tree) for node in ast.walk(unit)
             if isinstance(node, ast.Name) and node.id == "lu_factor"}
    assert users == {"_split_factor", "CrackSystem._factor"}, f"lu_factor used in {sorted(users)}"
    factor = next(unit for label, unit in _units(tree) if label == "CrackSystem._factor")
    args = [ast.unparse(node.args[0]) for node in ast.walk(factor)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lu_factor"]
    assert args == ["cap"], f"_factor calls lu_factor on {args}, not on the capacitance only"


def test_forward_gates_conditioning_on_one_figure():
    # the floor is read once, against rcond alone: a second reader would be a
    # second gate path, such as a fallback to another condition figure
    tree = _pipeline()[0][PACKAGE / "forward.py"]
    users = {label for label, unit in _units(tree) for node in ast.walk(unit)
             if isinstance(node, ast.Name) and node.id == "_RCOND_FLOOR"
             and isinstance(node.ctx, ast.Load)}
    assert users == {"CrackSystem._factor"}, f"_RCOND_FLOOR read in {sorted(users)}"
    compared = [ast.unparse(operand) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and "_RCOND_FLOOR" in ast.unparse(node)
                for operand in (node.left, *node.comparators)]
    assert sorted(compared) == ["_RCOND_FLOOR", "self.rcond"], f"the floor meets {compared}"


def test_forward_calls_lapack_lu_only_in_its_two_wrappers():
    # every LU factor and solve goes through forward.lu_factor and lu_solve,
    # which call ZGETRF and ZGETRS looked up once; scipy.linalg's functions of
    # those names add their per-call wrapping around the same routines
    tree = _pipeline()[0][PACKAGE / "forward.py"]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in ("lu_factor", "lu_solve")]
    assert imported == [], f"forward imports {imported}"
    users = {name: sorted({label for label, unit in _units(tree) for node in ast.walk(unit)
                           if isinstance(node, ast.Name) and node.id == name
                           and isinstance(node.ctx, ast.Load)})
             for name in ("_GETRF", "_GETRS", "get_lapack_funcs")}
    assert users == {"_GETRF": ["lu_factor"], "_GETRS": ["lu_solve"],
                     "get_lapack_funcs": ["<module>"]}, f"LAPACK LU routines used in {users}"


def test_forward_caches_its_tables_read_only():
    # a cached table is shared by every caller, so each is marked read-only
    # before it is first returned
    tree = _pipeline()[0][PACKAGE / "forward.py"]
    cached = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and any("lru_cache" in ast.unparse(d) for d in node.decorator_list)}
    assert {"_chebyshev_nodes", "_node_gaps"} <= cached.keys(), f"cached: {sorted(cached)}"
    writable = sorted(name for name, node in cached.items() if not any(
        isinstance(target, ast.Attribute) and target.attr == "writeable"
        and isinstance(stmt.value, ast.Constant) and stmt.value.value is False
        for stmt in ast.walk(node) if isinstance(stmt, ast.Assign) for target in stmt.targets))
    assert writable == [], f"cached tables left writeable: {writable}"


def test_only_io_formats_floats_at_17_digits():
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if ".17g" in path.read_text() and path.name != "io.py")
    assert users == [], f".17g formatting outside io: {users}"


def test_one_io_function_parses_data_rows_with_loadtxt():
    # the scene, map and tensor readers share one parser for their data rows
    trees = _pipeline()[0]
    users = sorted({f"{path.stem}.{label}" for path in sorted(PACKAGE.glob("*.py"))
                    for label, unit in _units(trees[path])
                    for name, _ in _identifier_uses(unit) if name == "loadtxt"})
    assert users == ["io._table"], f"np.loadtxt called outside io._table: {users}"
