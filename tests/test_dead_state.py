"""Guard against write-only state and unreferenced definitions.

An attribute the simulator stores on ``self`` but nothing ever reads
costs a store on its path and a line for the reader, and a counter
that nobody reports is easy to mistake for one that somebody does.
This scan parses every ``.py`` file of the package, the tests, the
benchmarks, the examples, the tools and the benchmark harness, and
fails on two kinds of finding:

* an attribute that ``src/repro`` stores on ``self`` which no scanned
  file loads (``x.name`` in a load context) and which the compiled
  engine's C source does not name;
* a function or class defined in ``src/repro`` that no scanned file
  references (by name, as an attribute, or in ``_enginecore.c``).

String constants count as references, because ``getattr``/``setattr``
and registries name attributes by string.  The strings of a
``__slots__`` declaration do not count: a slot is a declaration, not
a read.  An augmented assignment (``self.n += 1``) is a store, so a
counter that is only ever incremented is write-only.  A bare name
(say, a constructor parameter spelled like the attribute) does not
read an attribute.  Matching is by name, not by class: an attribute
whose name some other object's attribute load shares is not reported.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
SCANNED = [PACKAGE] + [
    os.path.join(ROOT, name)
    for name in ("tests", "benchmarks", "examples", "tools", "perfbench")
]
C_SOURCE = os.path.join(PACKAGE, "cpu", "_enginecore.c")


def _py_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _slot_strings(tree):
    """The string constants inside ``__slots__ = ...`` declarations."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant):
                    ids.add(id(sub))
    return ids


def _references(tree):
    """``(attributes, names)`` this module references.

    ``attributes`` holds attribute loads and string constants; it is
    what an attribute must appear in (a bare name such as a
    constructor parameter does not read ``self.<name>``).  ``names``
    adds bare-name loads and imports, for functions and classes."""
    slots = _slot_strings(tree)
    attributes = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and id(node) not in slots:
                attributes.add(node.value)
        elif isinstance(node, ast.alias) and node.name != "*":
            # ``from m import f`` is a use of ``f``.
            names.add(node.name.rsplit(".", 1)[-1])
    return attributes, names | attributes


def _definitions(tree, path):
    """``(kind, name, where)`` for self-attribute stores and defs."""
    rel = os.path.relpath(path, ROOT)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        yield ("attribute", sub.attr,
                               "%s:%d" % (rel, sub.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            if not (node.name.startswith("__")
                    and node.name.endswith("__")):
                yield ("definition", node.name,
                       "%s:%d" % (rel, node.lineno))


def _scan():
    referenced = {"attribute": set(), "definition": set()}
    definitions = []
    for top in SCANNED:
        for path in _py_files(top):
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            attributes, names = _references(tree)
            referenced["attribute"] |= attributes
            referenced["definition"] |= names
            if path.startswith(PACKAGE + os.sep):
                definitions.extend(_definitions(tree, path))
    with open(C_SOURCE) as fh:
        c_names = set(re.findall(r"[A-Za-z_]\w*", fh.read()))
    findings = {}
    for kind, name, where in definitions:
        if name not in referenced[kind] and name not in c_names:
            findings.setdefault((kind, name), where)
    return sorted(
        "%s %s (%s)" % (kind, name, where)
        for (kind, name), where in findings.items()
    )


def test_no_write_only_state_or_unreferenced_definitions():
    findings = _scan()
    assert not findings, (
        "stored but never read, or defined but never referenced "
        "(delete it, or read it where it matters):\n  "
        + "\n  ".join(findings)
    )


def test_scan_sees_a_write_only_attribute():
    tree = ast.parse(
        "class A:\n"
        "    __slots__ = ('hidden',)\n"
        "    def __init__(self):\n"
        "        self.hidden = 0\n"
        "        self.used = 0\n"
        "    def bump(self):\n"
        "        self.hidden += 1\n"
        "        return self.used\n"
    )
    attributes, _names = _references(tree)
    stored = {name for kind, name, _ in _definitions(tree, PACKAGE)
              if kind == "attribute"}
    assert stored == {"hidden", "used"}
    assert "used" in attributes and "hidden" not in attributes


def test_a_parameter_of_the_same_name_is_not_a_read():
    tree = ast.parse(
        "class P:\n"
        "    def __init__(self, mtu=1500):\n"
        "        self.mtu = mtu\n"
    )
    attributes, names = _references(tree)
    assert "mtu" in names and "mtu" not in attributes
