"""Charging-engine selection and the compiled-core build pipeline.

The simulator ships two bit-identical charging engines:

``pure``
    The reference interpreter path (:class:`repro.cpu.core.Cpu` over
    dict/list state).  Always available; the default.
``compiled``
    The flat-array path: :class:`repro.cpu.compiled.CompiledCpu` state
    driven by the ``_enginecore`` C extension, built on demand from
    ``_enginecore.c`` with the host C compiler and cached by source
    hash.  3.6-4.4x faster end to end on 64KB receive cells (ABBA,
    ``tools/bench.py --compare-engines``); requires a working ``cc``
    and the CPython headers.

Selection: the ``engine`` argument to :class:`~repro.kernel.machine.
Machine` (and the config plumbing above it) wins; otherwise the
``REPRO_ENGINE`` environment variable (``pure`` | ``compiled`` |
``auto``); otherwise ``pure``.  ``auto`` and ``compiled`` both try to
build and load the extension -- ``auto`` falls back to the pure engine
silently, ``compiled`` falls back with a :class:`RuntimeWarning` so an
explicit request never fails hard (CI runs the matrix on machines with
and without a toolchain).
"""

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
import warnings

_VALID = ("pure", "compiled", "auto")

#: Tri-state cache for the loaded extension module:
#: unset sentinel -> never tried; None -> tried and failed; module.
_UNSET = object()
_core_module = _UNSET
_core_error = None


def engine_source_path():
    """Path of the C source the compiled engine is built from."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "_enginecore.c")


def _cache_dir():
    explicit = os.environ.get("REPRO_ENGINE_CACHE")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-engine")


def _build_and_load():
    """Compile (if not cached) and import the ``_enginecore`` module."""
    src_path = engine_source_path()
    with open(src_path, "rb") as f:
        source = f.read()
    tag = "%s-%d.%d" % (sys.implementation.name, sys.version_info[0],
                        sys.version_info[1])
    key = hashlib.sha256(source + tag.encode()).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    cache = _cache_dir()
    mod_path = os.path.join(cache, "_enginecore_%s%s" % (key, suffix))
    if not os.path.exists(mod_path):
        os.makedirs(cache, exist_ok=True)
        cc = sysconfig.get_config_var("CC") or "cc"
        include = sysconfig.get_paths()["include"]
        tmp_path = mod_path + ".tmp.%d" % os.getpid()
        cmd = cc.split() + [
            "-O2", "-fPIC", "-shared",
            "-o", tmp_path, src_path,
            "-I", include,
        ]
        try:
            subprocess.run(
                cmd, check=True, capture_output=True, timeout=120
            )
            # Atomic publish so concurrent builders never import a
            # half-written object.
            os.replace(tmp_path, mod_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    # The loader derives the init symbol from the spec name, so it
    # must match PyInit__enginecore regardless of the hashed filename.
    spec = importlib.util.spec_from_file_location("_enginecore", mod_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_core():
    """The ``_enginecore`` extension module, or ``None`` if unbuildable.

    The first call pays the compile (a second or two, then cached on
    disk keyed by source hash); later calls in the process return the
    cached module object.
    """
    global _core_module, _core_error
    if _core_module is _UNSET:
        try:
            _core_module = _build_and_load()
        except Exception as exc:  # missing cc, headers, bad toolchain...
            if isinstance(exc, subprocess.CalledProcessError):
                detail = exc.stderr.decode(errors="replace").strip()
                _core_error = "%s: %s" % (exc, detail[-500:])
            else:
                _core_error = "%s: %s" % (type(exc).__name__, exc)
            _core_module = None
    return _core_module


def resolve_engine(engine=None):
    """Resolve an engine request to ``(name, core_module_or_None)``.

    ``engine`` overrides ``$REPRO_ENGINE``; the default is ``pure``.
    Returns ``("pure", None)`` or ``("compiled", module)``.
    """
    choice = engine if engine is not None else os.environ.get(
        "REPRO_ENGINE", "pure")
    if choice not in _VALID:
        raise ValueError(
            "unknown engine %r; choose from %s" % (choice, "/".join(_VALID)))
    if choice == "pure":
        return "pure", None
    core = load_core()
    if core is not None:
        return "compiled", core
    if choice == "compiled":
        warnings.warn(
            "compiled engine requested but unavailable (%s); "
            "falling back to the pure engine" % _core_error,
            RuntimeWarning,
            stacklevel=2,
        )
    return "pure", None
