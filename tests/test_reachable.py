"""Every top-level def, class and method in src/nrpos is reachable from the
package's entry points, and every field of a class of the package is read
by a reached def: code and state the simulation does not use are wired in
or deleted, not kept in the package for tests alone.

The walk goes by name over the AST from the roots below. A function or
class is reached when a reached def names it, through its module's own
defs and `from .module import name` bindings. A method is reached when
its class is reached and a reached def names it as an attribute: of
`self`, of a class, or of a value whose class follows from an annotation,
a class field or a constructor call. An attribute of a value of unknown
class reaches every method of that name. Dunder methods and framework
hooks (methods with a decorator other than property, classmethod or
staticmethod) come with their class. Names that module-level statements
use are reached as well, since those statements run at import.

A field is a name a class body annotates (a dataclass or pydantic field)
or an attribute a method stores on `self`. It is read when a reached def
or a module-level statement loads it as an attribute of a value of its
class, or of a value of unknown class. A store is not a read, and neither
is a load of `self`'s own field in the class's constructor. `asdict(x)`
and `x.model_dump()` read every field of x's class and of the classes of
its fields.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nrpos"

ROOTS = {
    "simulate.Simulator": "the per-drop pipeline; every run builds one",
    "experiments.run_experiment": "a batch run of N drops and its artifacts",
    "simulate.solve_records": "the one solve from reports, for runs, sessions and replay",
    "config.load_config": "reads an experiment configuration document",
    "config.preset_config": "builds a named preset configuration",
    "config.dump_config": "writes an experiment configuration document",
    "measurements.read_records": "reads a measurement report file",
    "measurements.write_records": "writes a measurement report file",
    "experiments.ResultSummary.from_dict": "reads summary.json back",
    "__main__.main": "the `python -m nrpos` command line",
}
# Every public name of this module is a root: the location-session API.
SESSION_MODULE = "session"

# Fields that only code outside the package reads, and that reader.
OUTSIDE_READERS = {
    "channel.Links.los": "the link's propagation truth, for drop diagnostics",
    "channel.Links.first_path_excess_s":
        "the link's propagation truth, for drop diagnostics",
    "simulate.DropOutcome.failure": "why a drop has no fix, for callers of run_drop",
    "simulate.DropOutcome.records": "a drop's reports, which sessions and re-solves replay",
    "simulate.Simulator.srs": "the sounding resource a session's Gnb configures and reports",
    "simulate.Simulator.dl_resources": "the resources the RE-grid oracle tests map",
    "simulate.Simulator.search_window": "the detection window the first-path oracle tests use",
    "session.SessionResult.ue_id": "a session's outcome, for callers of Lmf.results",
    "session.SessionResult.status": "a session's outcome, for callers of Lmf.results",
    "solvers.PositionFix.iterations": "perfbench's solve_records hook sums them",
    "solvers.PositionFix.residual_rms": "the fit of a fix, compared bit for bit by replay tests",
}

_CONSTRUCTORS = {"__init__", "__post_init__"}

_PLAIN_DECORATORS = {"property", "classmethod", "staticmethod"}


class Package:
    """Defs, name bindings and class fields of the modules of one package."""

    def __init__(self, package: Path):
        self.defs = {}  # qualname -> (module, node, owning class or None)
        self.bindings = {}  # module -> {name: qualname, or "module:<name>"}
        self.external = {}  # module -> names imported from outside the package
        self.module_code = {}  # module -> top-level statements other than defs
        self.bases = {}  # class -> its first base class in the package, or None
        self.fields = {}  # class -> {attribute: class of its value}
        self.declared = {}  # class -> names of its fields
        trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
        for mod, tree in trees.items():
            names = self.bindings[mod] = {}
            outside = self.external[mod] = set()
            self.module_code[mod] = []
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names[node.name] = f"{mod}.{node.name}"
                    self.defs[f"{mod}.{node.name}"] = (mod, node, None)
                    if isinstance(node, ast.ClassDef):
                        self.bases[f"{mod}.{node.name}"] = None
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    for a in node.names:
                        names[a.asname or a.name] = (f"{node.module}.{a.name}" if node.module
                                                     else f"module:{a.name}")
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    outside.update((a.asname or a.name).split(".")[0] for a in node.names)
                else:
                    self.module_code[mod].append(node)
        for mod, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._index_class(mod, node)

    def _index_class(self, mod, node):
        cls = f"{mod}.{node.name}"
        self.bases[cls] = next((b for b in (self.resolve(mod, e) for e in node.bases)
                                if b in self.bases), None)
        fields = self.fields[cls] = {}
        declared = self.declared[cls] = set()
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                fields[item.target.id] = self.annotation(mod, item.annotation)
                declared.add(item.target.id)
            if not isinstance(item, ast.FunctionDef):
                continue
            self.defs[f"{cls}.{item.name}"] = (mod, item, cls)
            args = {a.arg: self.annotation(mod, a.annotation) for a in item.args.args
                    if a.annotation is not None}
            for sub in ast.walk(item):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and getattr(sub.value, "id", "") == "self"):
                    declared.add(sub.attr)
                if isinstance(sub, ast.AnnAssign):
                    target, kind = sub.target, self.annotation(mod, sub.annotation)
                elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, kind = sub.targets[0], self.instance(mod, sub.value, args)
                else:
                    continue
                if (kind and isinstance(target, ast.Attribute)
                        and getattr(target.value, "id", "") == "self"):
                    fields[target.attr] = kind

    def resolve(self, mod, expr):
        """Qualname a name or a `module.name` refers to, if in the package."""
        if isinstance(expr, ast.Name):
            return self.bindings[mod].get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            bound = self.bindings[mod].get(expr.value.id, "")
            if bound.startswith("module:"):
                return f"{bound[len('module:'):]}.{expr.attr}"
        return None

    def annotation(self, mod, ann):
        """Class an annotation names: `C`, `"C"`, `C | None` or `Optional[C]`."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return self.annotation(mod, ast.parse(ann.value, mode="eval").body)
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self.annotation(mod, ann.left) or self.annotation(mod, ann.right)
        if isinstance(ann, ast.Subscript) and getattr(ann.value, "id", "") == "Optional":
            return self.annotation(mod, ann.slice)
        found = self.resolve(mod, ann)
        return found if found in self.bases else None

    def instance(self, mod, expr, env):
        """Class of the value of an expression, where it can be told."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            for cls in self.mro(self.instance(mod, expr.value, env)):
                if expr.attr in self.fields.get(cls, {}):
                    return self.fields[cls][expr.attr]
        if isinstance(expr, ast.Call):
            called = self.resolve(mod, expr.func)
            if called in self.bases:
                return called
            if called in self.defs:
                return self.annotation(self.defs[called][0], self.defs[called][1].returns)
        return None

    def mro(self, cls):
        out = []
        while cls:
            out.append(cls)
            cls = self.bases[cls]
        return out

    def related(self, a, b) -> bool:
        """One class is the other or derives from it."""
        return a in self.mro(b) or b in self.mro(a)

    def attributes(self, mod, nodes, env):
        """(node, `module.name` it names, class of its receiver) of every
        attribute in the given statements, and the qualnames of the names;
        env maps local names to the class of their value and is extended
        from annotated arguments and assignments."""
        for sub in (s for node in nodes for s in ast.walk(node)):
            if isinstance(sub, ast.arg) and sub.annotation is not None:
                name, kind = sub.arg, self.annotation(mod, sub.annotation)
            elif (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                  and isinstance(sub.targets[0], ast.Name)):
                name, kind = sub.targets[0].id, self.instance(mod, sub.value, env)
            else:
                continue
            if kind:
                env.setdefault(name, kind)
        found, named = [], set()
        for sub in (s for node in nodes for s in ast.walk(node)):
            if isinstance(sub, ast.Name):
                named.add(self.bindings[mod].get(sub.id))
            elif isinstance(sub, ast.Attribute):
                receiver = self.resolve(mod, sub.value)
                if receiver not in self.bases:
                    receiver = self.instance(mod, sub.value, env)
                found.append((sub, self.resolve(mod, sub), receiver))
        return found, named - {None}

    def references(self, mod, nodes, env):
        """(defs named, (class, attribute) pairs, attributes of values of
        unknown class) in the given statements."""
        found, named = self.attributes(mod, nodes, env)
        pairs, loose = set(), set()
        for sub, in_module, receiver in found:
            if in_module:
                named.add(in_module)
            elif receiver:
                pairs.add((receiver, sub.attr))
            elif getattr(sub.value, "id", None) not in self.external[mod]:
                loose.add(sub.attr)
        return named, pairs, loose

    def reads(self, mod, nodes, env, constructs=None):
        """((class, field) pairs, fields of values of unknown class, classes
        read whole) that the given statements load. Loads of the fields of
        `constructs`, the class whose constructor the statements are, are
        left out."""
        found, _ = self.attributes(mod, nodes, env)
        pairs, loose, whole = set(), set(), set()
        for sub, in_module, receiver in found:
            if in_module or not isinstance(sub.ctx, ast.Load):
                continue
            if receiver:
                if not self.related(receiver, constructs):
                    pairs.add((receiver, sub.attr))
            elif getattr(sub.value, "id", None) not in self.external[mod]:
                loose.add(sub.attr)
        for sub in (s for node in nodes for s in ast.walk(node)):
            if not isinstance(sub, ast.Call):
                continue
            if getattr(sub.func, "id", None) == "asdict" and sub.args:
                whole.add(self.instance(mod, sub.args[0], env))
            elif getattr(sub.func, "attr", None) == "model_dump":
                whole.add(self.instance(mod, sub.func.value, env))
        return pairs, loose, whole - {None}

    def uses(self, qualname, scan=None):
        """scan (references() by default) of one def: a function's body, or
        a class's bases, decorators and statements outside its methods."""
        scan = scan or self.references
        mod, node, owner = self.defs[qualname]
        if isinstance(node, ast.FunctionDef):
            first = node.args.args[:1] if owner else []
            return scan(mod, [node], {a.arg: owner for a in first})
        body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
        return scan(mod, [*node.bases, *node.decorator_list, *body], {})

    def implicit(self, node) -> bool:
        """A method that runs without being named: a dunder or a framework hook."""
        hooks = [d for d in node.decorator_list
                 if getattr(d, "id", getattr(d, "attr", None)) not in _PLAIN_DECORATORS]
        return node.name.startswith("__") or bool(hooks)


def reach(pkg: Package, roots) -> set[str]:
    """Qualnames (module.name, module.Class.method) of the package's defs
    that a chain of names from `roots` reaches. A root class brings its
    public methods: it is an interface."""
    missing = [r for r in roots if r not in pkg.defs]
    if missing:
        raise KeyError(f"roots not defined in the package: {missing}")
    reached = set(roots) | {q for q, (_, node, owner) in pkg.defs.items()
                            if owner in roots and not node.name.startswith("_")}
    named, pairs, loose = set(), set(), set()
    for mod, code in pkg.module_code.items():
        n, p, lo = pkg.references(mod, code, {})
        named, pairs, loose = named | n, pairs | p, loose | lo
    done = set()
    while reached - done:
        for q in reached - done:
            n, p, lo = pkg.uses(q)
            named, pairs, loose = named | n, pairs | p, loose | lo
        done |= reached
        for q, (_, node, owner) in pkg.defs.items():
            if owner is None:
                hit = q in named
            else:
                hit = owner in reached and (
                    node.name in loose or pkg.implicit(node)
                    or any(attr == node.name and pkg.related(owner, cls)
                           for cls, attr in pairs))
            if hit:
                reached.add(q)
    return reached


def unreached(package: Path, roots) -> list[str]:
    """Qualnames of the package's defs that no chain of names from `roots`
    reaches."""
    pkg = Package(package)
    return sorted(set(pkg.defs) - reach(pkg, roots))


def unread_fields(package: Path, roots) -> list[str]:
    """Fields of the package's classes that no def reached from `roots`
    reads, and no module-level statement. Each is named module.Class.field
    after the first class of its bases that has it, so a subclass's stores
    count toward its base class's field."""
    pkg = Package(package)
    pairs, loose, whole = set(), set(), set()
    for mod, code in pkg.module_code.items():
        p, lo, wh = pkg.reads(mod, code, {})
        pairs, loose, whole = pairs | p, loose | lo, whole | wh
    for q in reach(pkg, roots):
        _, node, owner = pkg.defs[q]
        constructs = owner if node.name in _CONSTRUCTORS else None
        p, lo, wh = pkg.uses(q, lambda m, n, e: pkg.reads(m, n, e, constructs))
        pairs, loose, whole = pairs | p, loose | lo, whole | wh
    # asdict and model_dump recurse into fields that hold package classes
    todo = list(whole)
    while todo:
        for base in pkg.mro(todo.pop()):
            inner = set(pkg.fields[base].values()) - {None} - whole
            whole |= inner
            todo += inner
    unread = set()
    for cls, names in pkg.declared.items():
        for name in names:
            first = next(c for c in reversed(pkg.mro(cls)) if name in pkg.declared[c])
            if not (name in loose or any(pkg.related(cls, c) for c in whole)
                    or any(attr == name and pkg.related(cls, c) for c, attr in pairs)):
                unread.add(f"{first}.{name}")
    return sorted(unread)


def package_roots() -> list[str]:
    tree = ast.parse((PACKAGE / f"{SESSION_MODULE}.py").read_text())
    session = [f"{SESSION_MODULE}.{node.name}" for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    return [*ROOTS, *session]


def test_every_def_is_reached():
    missing = unreached(PACKAGE, package_roots())
    assert not missing, "reached from no root; wire in or delete:\n" + "\n".join(missing)


def test_guard_sees_unreached_defs(tmp_path):
    (tmp_path / "shapes.py").write_text(
        "class Grid:\n"
        "    def cells(self): ...\n"
        "class Base:\n"
        "    def __init__(self): ...\n"
        "    def area(self): return self._scale()\n"
        "    def _scale(self): ...\n"
        "    def to_dict(self): ...\n"
        "class Square(Base):\n"
        "    def area(self): ...\n"
        "    def unused(self): ...\n"
        "class Report:\n"
        "    shape: Square\n"
        "    def to_dict(self): ...\n"
        "def helper(): ...\n"
        "def dead(): return Grid()\n"
    )
    (tmp_path / "run.py").write_text(
        "from .shapes import Report, helper\n"
        "import json\n"
        "def main(report: Report):\n"
        "    json.cells()\n"
        "    report.shape.area()\n"
        "    return report.to_dict(), helper()\n"
    )
    assert unreached(tmp_path, ["run.main"]) == [
        "shapes.Base.to_dict", "shapes.Grid", "shapes.Grid.cells",
        "shapes.Square.unused", "shapes.dead",
    ]


def test_every_stored_attribute_is_read():
    unread = unread_fields(PACKAGE, package_roots())
    dead = sorted(set(unread) - set(OUTSIDE_READERS))
    assert not dead, "stored and never read; read or delete:\n" + "\n".join(dead)
    stale = sorted(set(OUTSIDE_READERS) - set(unread))
    assert not stale, "read in the package or gone; drop from OUTSIDE_READERS:\n" + \
        "\n".join(stale)


def test_guard_sees_unread_attributes(tmp_path):
    (tmp_path / "box.py").write_text(
        "class Box:\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "        self.label = ''\n"
        "        self.note: str = ''\n"
        "        self.count = 0\n"
        "        self.hits = 0\n"
        "    def grow(self, other):\n"
        "        self.count += 1\n"
        "        self.hits = self.hits + 1\n"
        "        other.tag = self.size\n"
        "class Crate(Box):\n"
        "    def pack(self):\n"
        "        self.note = 'full'\n"
        "        self.lid = True\n"
    )
    (tmp_path / "use.py").write_text(
        "def show(box):\n"
        "    return box.label\n"
    )
    assert unread_fields(tmp_path, ["use.show", "box.Box", "box.Crate"]) == [
        "box.Box.count", "box.Box.note", "box.Crate.lid"]


def test_guard_sees_unread_fields(tmp_path):
    (tmp_path / "kinds.py").write_text(
        "from dataclasses import dataclass\n"
        "from pydantic import BaseModel\n"
        "@dataclass\n"
        "class Point:\n"
        "    x: float\n"
        "    y: float\n"
        "@dataclass\n"
        "class Label:\n"
        "    x: float\n"
        "    text: str\n"
        "@dataclass\n"
        "class Pin:\n"
        "    x: float\n"
        "class Limits(BaseModel):\n"
        "    low: float\n"
        "class Settings(BaseModel):\n"
        "    limits: Limits\n"
        "    name: str = ''\n"
        "class Flags(BaseModel):\n"
        "    verbose: bool = False\n"
        "    debug: bool = False\n"
        "class Meter:\n"
        "    def __init__(self, scale):\n"
        "        self.scale = scale\n"
        "        self.offset = self.scale / 2\n"
        "    def read(self, label: Label):\n"
        "        label.text = 'set'\n"
        "        return label.x + self.offset\n"
    )
    (tmp_path / "run.py").write_text(
        "from dataclasses import asdict\n"
        "from .kinds import Flags, Label, Meter, Pin, Point, Settings\n"
        "def main(settings: Settings, flags: Flags, point: Point, label: Label):\n"
        "    meter = Meter(2.0)\n"
        "    return settings.model_dump(), asdict(point), flags.verbose, meter.read(label), Pin\n"
    )
    assert unreached(tmp_path, ["run.main"]) == []
    assert unread_fields(tmp_path, ["run.main"]) == [
        "kinds.Flags.debug", "kinds.Label.text", "kinds.Meter.scale", "kinds.Pin.x"]
