"""Packaging guards: the library imports nothing outside the standard
library, a model that takes a library reads its technology there, each
formula over a technology coefficient is written once, JSON input files
have one reader, address widths come from one map, netlists have one
builder, the simulator prices energy in one place and leaves pixel
placement to pa, and src/ holds no test-only code."""

import ast
import dataclasses
import re
import sys
from pathlib import Path

from smemsynth.baplus import TechParams

SRC = Path(__file__).parent.parent / "src" / "smemsynth"


def test_imports_are_stdlib_or_relative():
    """Every import in src/smemsynth/*.py is relative or names a standard
    library module, as pyproject's empty `dependencies` promises."""
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_tech_beside_lib():
    """No function in src/smemsynth/*.py takes both `lib` and `tech`: a
    Library carries its TechParams, so a second one could only mix two
    technologies in one evaluation."""
    both = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if {"lib", "tech"} <= names:
                    both.append(f"{path.name}:{node.lineno}: "
                                f"{getattr(node, 'name', 'lambda')}")
    assert both == []


def _owned_nodes():
    """(file name, owner, node) for every node of src/smemsynth/*.py.  The
    owner is the dotted path of the enclosing classes and functions, or
    for module-level code the name it assigns."""
    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        elif not owner and isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            owner = getattr(target, "id", "")
        yield owner, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    for path in sorted(SRC.glob("*.py")):
        for owner, node in visit(ast.parse(path.read_text(), str(path)), ""):
            yield path.name, owner, node


def _uses(names):
    """(file:line, owner, name) for each use of one of `names` in
    src/smemsynth/*.py, as an attribute, a plain name or a keyword."""
    found = []
    for fname, owner, node in _owned_nodes():
        name = getattr(node, "attr", None) or getattr(node, "id", None) \
            or (node.arg if isinstance(node, ast.keyword) else None)
        if name in names:
            found.append((f"{fname}:{node.lineno}", owner, name))
    return found


def test_each_price_written_once():
    """Every model formula over a technology coefficient is written once.
    Outside TechParams, each TechParams field is read by at most one owner
    (function, method or table).  A formula that more than one model
    needs is a TechParams method, and the coefficients of the decode and
    mux delays, the wire energy, the whole-nanometre rounding and the
    gutter are read nowhere else.  The one exception is the increment
    price: written once, in the cell-kind table, beside compare_pa_ppa's
    per-bank total.  The decode prices are read only by TechParams.e_dec_fj
    and the increment price only by its two owners, inside TechParams too."""
    shared = {"e_inc_fj": {"CELL_KINDS", "compare_pa_ppa"}}
    only_tech = {"e_dec0_fj", "e_dec1_fj", "d0_ps", "d1_ps", "m0_ps", "m1_ps",
                 "e_wire_per_um_fj", "poly_pitch_nm", "track_pitch_nm",
                 "gutter_pitches"}
    fields = {f.name for f in dataclasses.fields(TechParams)}
    assert only_tech | set(shared) <= fields
    owners = {}
    for _, owner, name in _uses(fields):
        if owner.split(".")[0] != "TechParams":
            owners.setdefault(name, set()).add(owner)
    assert {name: o for name, o in owners.items()
            if len(o) > 1 and o != shared.get(name)} == {}
    assert {name: o for name, o in owners.items() if name in only_tech} == {}
    assert {owner for _, owner, name in _uses({"e_dec0_fj"})} \
        == {"TechParams", "TechParams.e_dec_fj"}
    allowed = {"e_dec0_fj": {"TechParams", "TechParams.e_dec_fj"},
               "e_dec1_fj": {"TechParams", "TechParams.e_dec_fj"},
               "e_inc_fj": {"TechParams", "CELL_KINDS", "compare_pa_ppa"}}
    assert [u for u in _uses(set(allowed)) if u[1] not in allowed[u[2]]] == []


def test_input_files_have_one_reader():
    """Every JSON input (library, tech, spec and config files) is parsed by
    the one json.load call in src/smemsynth/, in baplus.read_json, and
    undecodable_line, which names the line of a byte the codec refuses, is
    defined once, in baplus: a bad file is reported the same way whatever
    it holds."""
    nodes = list(_owned_nodes())
    loads = [(fname, owner) for fname, owner, n in nodes
             if isinstance(n, ast.Attribute) and n.attr in ("load", "loads")
             and getattr(n.value, "id", None) == "json"]
    assert loads == [("baplus.py", "read_json")]
    assert [(fname, owner) for fname, owner, n in nodes
            if isinstance(n, ast.FunctionDef) and n.name == "undecodable_line"] \
        == [("baplus.py", "undecodable_line")]


def test_address_widths_come_from_the_address_map():
    """Only explorer.AddressMap takes the log2 of a size: how an SRAM address
    splits, and how wide its ports and decode tree are, has one definition."""
    assert {owner for _, owner, _ in _uses({"ilog2"})} == {"AddressMap.of"}


def test_netlists_are_built_only_by_netlist_ir():
    """Only NetlistIR.add_cell makes a Cell, only NetlistIR.add_net makes a
    Net, and only NetlistIR.connect adds to a net's drivers or sinks, by
    name or through a name bound to them: generated, grafted and parsed
    netlists all pass the same checks."""
    def reads_ends(node):
        return any(isinstance(n, ast.Attribute) and n.attr in ("drivers", "sinks")
                   for n in ast.walk(node))
    nodes = list(_owned_nodes())
    aliases = {(owner, t.id) for _, owner, n in nodes
               if isinstance(n, ast.Assign) and reads_ends(n.value)
               for target in n.targets for t in ast.walk(target)
               if isinstance(t, ast.Name)}
    builds = set()
    for _, owner, n in nodes:
        if isinstance(n, ast.Call):
            f = n.func
            callee = getattr(f, "id", None) or getattr(f, "attr", None)
            if callee in ("Cell", "Net"):
                builds.add((owner, callee))
            elif callee in ("append", "extend", "insert") and (
                    reads_ends(f.value) or isinstance(f.value, ast.Name)
                    and (owner, f.value.id) in aliases):
                builds.add((owner, "ends"))
        elif isinstance(n, ast.AugAssign) and reads_ends(n.target):
            builds.add((owner, "ends"))
    assert builds == {("NetlistIR.add_cell", "Cell"), ("NetlistIR.add_net", "Net"),
                      ("NetlistIR.connect", "ends")}


def test_sim_reads_price_figures_only_in_its_pricing_pass():
    """In sim.py, every subscript keyed by an `e_..._fj` string constant
    (`params["e_read_fj"]`, `meta["e_wire_op_fj"]`, ...) sits in _price:
    the engines count activity, and energy has one definition."""
    path = SRC / "sim.py"
    tree = ast.parse(path.read_text(), str(path))
    inside = {id(n) for f in tree.body
              if isinstance(f, ast.FunctionDef) and f.name == "_price"
              for n in ast.walk(f)}
    keyed = [n for n in ast.walk(tree)
             if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
             and isinstance(n.slice.value, str)
             and re.fullmatch(r"e_\w+_fj", n.slice.value)]
    assert any(id(n) in inside for n in keyed)
    assert [f"sim.py:{n.lineno}: {n.slice.value}" for n in keyed
            if id(n) not in inside] == []


def test_sim_leaves_pixel_placement_to_pa():
    """sim.py shifts, masks, multiplies, divides and takes remainders of no
    window layout figure (a spec's a, b, rows, cols, banks_x or banks_y,
    or a name bound to one) unless by a constant, as verify_pa's seed
    does: where a pixel is stored and which slot its lane takes come from
    pa.window_tables, built on pa.storage_map and pa.lane_shifts."""
    layout = {"a", "b", "rows", "cols", "banks_x", "banks_y"}
    path = SRC / "sim.py"
    tree = ast.parse(path.read_text(), str(path))

    def reads_layout(node, names=frozenset()):
        return any(isinstance(n, ast.Attribute) and n.attr in layout
                   or isinstance(n, ast.Name) and n.id in names
                   for n in ast.walk(node))
    bound = {t.id for n in ast.walk(tree)
             if isinstance(n, ast.Assign) and reads_layout(n.value)
             for target in n.targets for t in ast.walk(target)
             if isinstance(t, ast.Name)}
    ops = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.Mult,
           ast.FloorDiv, ast.Mod)
    assert [f"sim.py:{n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ops)
            and not isinstance(n.left, ast.Constant)
            and not isinstance(n.right, ast.Constant)
            and reads_layout(n, bound)] == []


# the README's Library API: names a user calls that no src/ code calls.
# SimTrace.read, .write, .window and .idle are not here: src/ names the
# engines' steps and the trace reader's IDLE step by those bare names
_LIBRARY_API = {"traditional_baseline_ppa", "SimTrace.from_file",
                "SimTrace.to_file"}


def test_every_definition_has_a_caller_in_src():
    """Every module-level function and class, method and property in
    src/smemsynth/ is named by src/ code other than __init__'s re-exports,
    or is in the README's Library API; test-only helpers live in tests/.
    Dunder methods are called by the language.  A method counts as called
    when any attribute of its name is read, whatever the object."""
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{m.name}": m.name for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not re.fullmatch(r"__\w+__", m.name)}
        if path.name != "__init__.py":
            named |= {getattr(n, "id", None) or getattr(n, "attr", None)
                      for n in ast.walk(tree)}
    assert {q for q, name in defined.items() if name not in named} == _LIBRARY_API
    readme = (SRC.parent.parent / "README.md").read_text()
    api = readme[readme.index("## Library API"):]
    api = api[:api.index("\n## ")]
    assert [q for q in sorted(_LIBRARY_API)
            if not re.search(rf"\b{q.split('.')[-1]}\(", api)] == []
