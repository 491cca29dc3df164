"""Every top-level function or class in src/pcl has a user there, and so
does every public method and property of its classes.

A name is used when some module imports it with `from .mod import name`,
reads it as `mod.name` after `from . import mod`, or its own module
refers to it by name.  Click commands are registered by their
decorators, and the (module, name) pairs of the TIMED and COUNTED
tables of perfbench/tracer.py are used by the benchmark, which this
test reads and does not change.  A method or
property is used when some module reads an attribute of its name, on
whatever object; dunders and the fields of dataclasses and named tuples
are not checked.  Helpers that only tests call live in tests/.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pcl"
TRACER = ROOT / "perfbench" / "tracer.py"


def _used(modules: dict) -> set:
    """(module, name) pairs referenced anywhere in the package."""
    used = set()
    for mod, tree in modules.items():
        aliases = {}  # local name -> package module, from `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    used.update((node.module, a.name) for a in node.names)
                else:
                    aliases.update((a.asname or a.name, a.name)
                                   for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((mod, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
    return used


def _is_click_command(node) -> bool:
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(f, ast.Attribute) and (
                f.attr in ("command", "group")
                or (isinstance(f.value, ast.Name) and f.value.id == "click")):
            return True
    return False


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _unused_members(modules: dict) -> list:
    """Public methods and properties whose name no module reads as an
    attribute."""
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return ["%s.%s.%s" % (mod, cls.name, fn.name)
            for mod, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_") and fn.name not in read]


def _traced() -> set:
    """The (module, name) pairs the tracer wraps: its TIMED and COUNTED
    tables, not every string it quotes."""
    return {pair for node in ast.parse(TRACER.read_text()).body
            if isinstance(node, ast.Assign)
            and ast.unparse(node.targets[0]) in ("TIMED", "COUNTED")
            for pair in ast.literal_eval(node.value)}


def _unused_names(private: bool) -> list:
    """Unused top-level names, the private (_-prefixed) or the public ones."""
    modules = _modules()
    used = _used(modules)
    traced = _traced()
    return ["%s.%s" % (mod, node.name)
            for mod, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private
            and (mod, node.name) not in used
            and not _is_click_command(node)
            and (mod, node.name) not in traced]


def _private_imports(modules: dict) -> list:
    """Private (_-prefixed) names one module takes from another, by
    `from .mod import _name` or as `mod._name` after `from . import mod`."""
    found = []
    for mod, tree in modules.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    found += ["%s <- %s.%s" % (mod, node.module, a.name)
                              for a in node.names if a.name.startswith("_")]
                else:
                    aliases.update((a.asname or a.name, a.name)
                                   for a in node.names)
        found += ["%s <- %s.%s" % (mod, aliases[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and node.attr.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert _private_imports(_modules()) == []


def test_the_private_import_scan_sees_both_forms():
    modules = {
        "a": ast.parse("from .b import _f, g\nfrom . import c\n"
                       "def h():\n    return _f() + g() + c._k + c.m\n"
                       "def _own():\n    return _own\n"),
    }
    assert _private_imports(modules) == ["a <- b._f", "a <- c._k"]


def test_every_public_name_has_a_user_in_src():
    assert _unused_names(private=False) == []


def test_every_private_name_has_a_user_in_src():
    assert _unused_names(private=True) == []


def test_the_tracer_exemption_is_the_wrapped_functions():
    traced = _traced()
    assert {("sts", "derived_sts"), ("canon", "relabel_np")} <= traced
    assert all(mod in _modules() for mod, _ in traced)


def test_every_public_member_has_a_user_in_src():
    assert _unused_members(_modules()) == []


def test_the_member_scan_skips_dunders_and_fields():
    modules = {
        "a": ast.parse("class K:\n    x: int\n"
                       "    def __len__(self):\n        return 0\n"
                       "    def read(self):\n        return self.x\n"
                       "    @property\n    def shown(self):\n        return 1\n"
                       "    def unread(self):\n        return 2\n"),
        "b": ast.parse("def f(k):\n    return k.read() + k.shown\n"),
    }
    assert _unused_members(modules) == ["a.K.unread"]


def test_the_scan_sees_imports_attributes_and_local_use():
    modules = {
        "a": ast.parse("from .b import f\nfrom . import c\n"
                       "def g():\n    return f() + c.h()\n"
                       "def unused():\n    pass\n"),
    }
    used = _used(modules)
    assert {("b", "f"), ("c", "h"), ("a", "f"), ("a", "c")} <= used
    assert ("a", "unused") not in used
    assert ("a", "g") not in used
