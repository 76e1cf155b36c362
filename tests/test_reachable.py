"""Every top-level def, class and method in src/nrpos is reachable from the
package's entry points, and every attribute a method stores on `self` is
read somewhere in the package: code and state the simulation does not use
are wired in or deleted, not kept in the package for tests alone.

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
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                fields[item.target.id] = self.annotation(mod, item.annotation)
            if not isinstance(item, ast.FunctionDef):
                continue
            self.defs[f"{cls}.{item.name}"] = (mod, item, cls)
            for sub in ast.walk(item):
                if isinstance(sub, ast.AnnAssign):
                    target, kind = sub.target, self.annotation(mod, sub.annotation)
                elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, kind = sub.targets[0], self.instance(mod, sub.value, {})
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

    def references(self, mod, nodes, env):
        """(defs named, (class, attribute) pairs, attributes of values of
        unknown class) in the given statements; env maps local names to
        the class of their value and is extended from annotated arguments
        and assignments."""
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
        named, pairs, loose = set(), set(), set()
        for sub in (s for node in nodes for s in ast.walk(node)):
            if isinstance(sub, ast.Name):
                named.add(self.bindings[mod].get(sub.id))
            elif isinstance(sub, ast.Attribute):
                in_module = self.resolve(mod, sub)
                receiver = self.resolve(mod, sub.value)
                if receiver not in self.bases:
                    receiver = self.instance(mod, sub.value, env)
                if in_module:
                    named.add(in_module)
                elif receiver:
                    pairs.add((receiver, sub.attr))
                elif getattr(sub.value, "id", None) not in self.external[mod]:
                    loose.add(sub.attr)
        return named - {None}, pairs, loose

    def uses(self, qualname):
        """references() of one def: a function's body, or a class's bases,
        decorators and statements outside its methods."""
        mod, node, owner = self.defs[qualname]
        if isinstance(node, ast.FunctionDef):
            first = node.args.args[:1] if owner else []
            return self.references(mod, [node], {a.arg: owner for a in first})
        body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
        return self.references(mod, [*node.bases, *node.decorator_list, *body], {})

    def implicit(self, node) -> bool:
        """A method that runs without being named: a dunder or a framework hook."""
        hooks = [d for d in node.decorator_list
                 if getattr(d, "id", getattr(d, "attr", None)) not in _PLAIN_DECORATORS]
        return node.name.startswith("__") or bool(hooks)


def unreached(package: Path, roots) -> list[str]:
    """Qualnames (module.name, module.Class.method) of the package's defs
    that no chain of names from `roots` reaches. A root class brings its
    public methods: it is an interface."""
    pkg = Package(package)
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
                    or any(attr == node.name and (owner in pkg.mro(cls) or cls in pkg.mro(owner))
                           for cls, attr in pairs))
            if hit:
                reached.add(q)
    return sorted(set(pkg.defs) - reached)


def package_roots() -> list[str]:
    tree = ast.parse((PACKAGE / f"{SESSION_MODULE}.py").read_text())
    session = [f"{SESSION_MODULE}.{node.name}" for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    return [*ROOTS, *session]


def unread_attributes(package: Path) -> list[str]:
    """Attributes that a method of the package stores on `self` and that no
    code of the package reads, on any object. Each is named module.Class.attr
    after the first class of its module that stores it, so a subclass's
    stores count toward its base class's attribute."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    owner = {}  # (module, attribute) -> first class storing it
    for mod, tree in trees.items():
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            for node in (n for method in cls.body if isinstance(method, ast.FunctionDef)
                         for n in ast.walk(method)):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and getattr(node.value, "id", None) == "self"):
                    owner.setdefault((mod, node.attr), cls.name)
    return sorted(f"{mod}.{cls}.{attr}" for (mod, attr), cls in owner.items()
                  if attr not in read)


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
    unread = unread_attributes(PACKAGE)
    assert not unread, "stored and never read; read or delete:\n" + "\n".join(unread)


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
    assert unread_attributes(tmp_path) == ["box.Box.count", "box.Box.note", "box.Crate.lid"]
