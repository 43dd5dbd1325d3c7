"""Guard against write-only state and unreferenced definitions.

An attribute the simulator stores on ``self`` but nothing ever reads
costs a store on its path and a line for the reader, and a counter
that nobody reports is easy to mistake for one that somebody does.
The tests are not a reader: a counter or helper only a test touches is
not part of the model the paper's tables and figures report.  This
scan parses every ``.py`` file of the package, the benchmarks, the
examples, the tools and the benchmark harness -- not ``tests/`` -- and
fails on two kinds of finding:

* an attribute that ``src/repro`` stores on ``self`` which no scanned
  file loads (``x.name`` in a load context) and which the compiled
  engine's C source does not name outside a comment;
* a function, class or class-body alias (``name = other``) defined in
  ``src/repro`` that no scanned file references (by name, as an
  attribute, or in ``_enginecore.c``).

:data:`ALLOWED` names the few exceptions, each with its reason.

String constants count as references, because ``getattr``/``setattr``
and registries name attributes by string.  The strings of a
``__slots__`` declaration do not count: a slot is a declaration, not
a read.  An augmented assignment (``self.n += 1``, or
``self.counts[i] += 1`` on a list attribute) is a store, so a counter
that is only ever incremented is write-only.  A bare name (say, a
constructor parameter spelled like the attribute) does not read an
attribute.  Matching is by name, not by class: an attribute whose
name some other object's attribute load shares is not reported.  The
counters that more than one class stores are therefore pinned in
:data:`SHARED_COUNTERS`, each checked by hand to be read for every
class that stores it.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
SCANNED = [PACKAGE] + [
    os.path.join(ROOT, name)
    for name in ("benchmarks", "examples", "tools", "perfbench")
]
C_SOURCE = os.path.join(PACKAGE, "cpu", "_enginecore.c")

#: What the package keeps although only the tests read it, and why.
ALLOWED = {
    "sets_snapshot": "compiled cache sets in the reference layout: the "
                     "engine-equivalence suite compares the engines",
    "tracked_names": "compiled predictor LRU in the reference layout: "
                     "the engine-equivalence suite compares the engines",
    "resident_pages": "TLB contents, one view for both engines: the "
                      "engine-equivalence suite compares them",
    "cold_events": "predictor cold starts, which the C core counts "
                   "(BP_COLD_EVENTS); the equivalence suite compares them",
    "find_saturation": "public API: README's one-config saturation "
                       "search",
}

#: Every counter name (``self.x += ...``) that more than one class of
#: ``src/repro`` stores, with those classes.  By-name matching lets
#: one class's read hide another's write-only copy, so each entry was
#: checked to be read for every class listed; a new entry fails until
#: it is checked and added here.
SHARED_COUNTERS = {
    # One attribute each: Cpu subclasses CpuBase, MemorySystem
    # subclasses Interconnect, the caches subclass CacheBase.
    "_skid_acc": ("Cpu", "CpuBase"),
    "busy_cycles": ("Cpu", "CpuBase"),
    "dma_lines_read": ("Interconnect", "MemorySystem"),
    "dma_lines_written": ("Interconnect", "MemorySystem"),
    "invalidations": ("Interconnect", "MemorySystem"),
    # Each class's __repr__ reads its hits and misses; no report does.
    "misses": ("CacheBase", "SetAssocCache", "TraceCache"),
    "hits": ("CacheBase", "SetAssocCache", "Tlb", "TraceCache"),
    # The CPU clock and the event clock are both read every step.
    "now": ("Cpu", "CpuBase", "SimulationEngine"),
    # Both directions' retransmit timeouts reach the payload.
    "rto_fires": ("Connection", "Peer"),
    # Flow Director samples reach the payload; LatencyStats keeps a list.
    "samples": ("FlowDirector", "LatencyStats"),
    # Sequence numbers on both ends of every connection.
    "snd_nxt": ("Peer", "Sock"),
}


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


def _incremented_items(tree):
    """The ``x.name`` nodes of ``x.name[i] += ...``: a store into a
    list attribute, not a read of it."""
    return {
        id(node.target.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Subscript)
        and isinstance(node.target.value, ast.Attribute)
    }


def _references(tree):
    """``(attributes, names)`` this module references.

    ``attributes`` holds attribute loads and string constants; it is
    what an attribute must appear in (a bare name such as a
    constructor parameter does not read ``self.<name>``).  ``names``
    adds bare-name loads and imports, for functions and classes."""
    slots = _slot_strings(tree)
    stores = _incremented_items(tree)
    attributes = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load) and id(node) not in stores:
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


def _self_stores(node):
    """The ``self.<name>`` store targets of an assignment ``node``."""
    targets = node.targets if isinstance(node, ast.Assign) \
        else [node.target]
    for target in targets:
        for sub in ast.walk(target):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                yield sub


def _definitions(tree, path):
    """``(kind, name, where)`` for self-attribute stores and defs."""
    rel = os.path.relpath(path, ROOT)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for sub in _self_stores(node):
                yield ("attribute", sub.attr, "%s:%d" % (rel, sub.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            if not (node.name.startswith("__")
                    and node.name.endswith("__")):
                yield ("definition", node.name,
                       "%s:%d" % (rel, node.lineno))
            if isinstance(node, ast.ClassDef):
                # A class-body alias (``detach = stop``) defines a name.
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and isinstance(stmt.value, ast.Name)):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                yield ("definition", target.id,
                                       "%s:%d" % (rel, stmt.lineno))


def _shared_counters(trees):
    """``{name: classes}`` for every ``self.<name> += ...`` counter
    whose name more than one class stores."""
    stored = {}
    counters = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    for sub in _self_stores(node):
                        stored.setdefault(sub.attr, set()).add(cls.name)
                        if isinstance(node, ast.AugAssign):
                            counters.add(sub.attr)
    return {
        name: tuple(sorted(stored[name]))
        for name in counters
        if len(stored[name]) > 1
    }


def _package_trees():
    for path in _py_files(PACKAGE):
        with open(path) as fh:
            yield ast.parse(fh.read(), filename=path)


def _c_names():
    """Identifiers of the compiled engine's C source, comments aside."""
    with open(C_SOURCE) as fh:
        code = re.sub(r"/\*.*?\*/|//[^\n]*", " ", fh.read(), flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", code))


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
    c_names = _c_names()
    findings = {}
    for kind, name, where in definitions:
        if (name not in referenced[kind] and name not in c_names
                and name not in ALLOWED):
            findings.setdefault((kind, name), where)
    return sorted(
        "%s %s (%s)" % (kind, name, where)
        for (kind, name), where in findings.items()
    )


def test_no_write_only_state_or_unreferenced_definitions():
    findings = _scan()
    assert not findings, (
        "stored but never read, or defined but never referenced, "
        "outside the tests (delete it, or read it where it matters):\n  "
        + "\n  ".join(findings)
    )


def test_allowed_names_still_exist():
    defined = {name for tree in _package_trees()
               for _, name, _ in _definitions(tree, PACKAGE)}
    assert set(ALLOWED) <= defined


def test_shared_counter_names_are_pinned():
    shared = _shared_counters(_package_trees())
    assert shared == SHARED_COUNTERS, (
        "a counter name is stored by more than one class: check that "
        "every class's copy is read, then update SHARED_COUNTERS"
    )


def test_scan_sees_a_write_only_attribute():
    tree = ast.parse(
        "class A:\n"
        "    __slots__ = ('hidden',)\n"
        "    def __init__(self):\n"
        "        self.hidden = 0\n"
        "        self.used = 0\n"
        "        self.counts = [0]\n"
        "    def bump(self):\n"
        "        self.hidden += 1\n"
        "        self.counts[0] += 1\n"
        "        return self.used\n"
    )
    attributes, _names = _references(tree)
    stored = {name for kind, name, _ in _definitions(tree, PACKAGE)
              if kind == "attribute"}
    assert stored == {"hidden", "used", "counts"}
    assert "used" in attributes
    assert "hidden" not in attributes and "counts" not in attributes


def test_a_parameter_of_the_same_name_is_not_a_read():
    tree = ast.parse(
        "class P:\n"
        "    def __init__(self, mtu=1500):\n"
        "        self.mtu = mtu\n"
    )
    attributes, names = _references(tree)
    assert "mtu" in names and "mtu" not in attributes


def test_a_class_body_alias_is_a_definition():
    tree = ast.parse(
        "class C:\n"
        "    def stop(self):\n"
        "        pass\n"
        "    detach = stop\n"
    )
    defined = {name for kind, name, _ in _definitions(tree, PACKAGE)
               if kind == "definition"}
    assert defined == {"C", "stop", "detach"}


def test_shared_counters_are_found_by_name():
    tree = ast.parse(
        "class A:\n"
        "    def tick(self):\n"
        "        self.n += 1\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "        self.m = 0\n"
        "    def tick(self):\n"
        "        self.m += 1\n"
    )
    assert _shared_counters([tree]) == {"n": ("A", "B")}
