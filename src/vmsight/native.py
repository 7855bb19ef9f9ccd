"""Compile a C source file once, cache the shared library, load it with ctypes.

``load(path)`` builds the C file at ``path`` with the local gcc into a
cache directory: ``$VMSIGHT_CACHE_DIR``, or ``~/.cache/vmsight`` when that
is unset.  The library's name holds the sha256 of the source, the compiler
flags and the compiler's ``--version`` text, so a warm cache asks gcc only
for its version and compiles nothing.  Each source resolves at most once
per process.  Where gcc is missing, the build fails or the cache cannot be
written, ``load`` prints one notice to stderr and returns None, and the
caller keeps its Python code path.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
from typing import Optional

from . import tracemodel
from .errors import IoError

CACHE_ENV = "VMSIGHT_CACHE_DIR"

# -ffp-contract=off keeps a * b + c two roundings (no fused multiply-add);
# -ffast-math or -march=native could change result bits.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class BuildError(Exception):
    """gcc is missing or did not compile the source."""


@functools.cache
def load(path: str) -> Optional[ctypes.CDLL]:
    """The library built from the C file at ``path``, or None after a
    notice on stderr where it cannot be built or loaded."""
    try:
        return ctypes.CDLL(_build(path))
    except (BuildError, IoError, OSError) as exc:
        print(f"vmsight: cannot build {os.path.basename(path)} ({exc}); "
              "using the Python code path", file=sys.stderr)
        return None


def _gcc(gcc: str, *args: str, source: Optional[bytes] = None) -> bytes:
    proc = subprocess.run([gcc, *args], input=source, capture_output=True)
    if proc.returncode != 0:
        first = (proc.stderr.decode(errors="replace").strip().splitlines() or [""])[0]
        raise BuildError(f"gcc exited with status {proc.returncode}: {first}")
    return proc.stdout


def _build(path: str) -> str:
    """The cached library's path, compiling it first if it is not there."""
    gcc = shutil.which("gcc")
    if gcc is None:
        raise BuildError("gcc not found")
    source = tracemodel._read_bytes(path)
    version = _gcc(gcc, "--version")
    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), version])).hexdigest()
    stem = os.path.splitext(os.path.basename(path))[0]
    cache = os.environ.get(CACHE_ENV) or os.path.expanduser(os.path.join("~", ".cache", "vmsight"))
    lib = os.path.join(cache, f"{stem}-{key[:24]}.so")
    if not os.path.exists(lib):
        # concurrent builders each write their own temporary file, and the
        # rename keeps a loader from seeing a half-written library
        with tracemodel.replacing(lib) as tmp:
            _gcc(gcc, *FLAGS, "-x", "c", "-", "-o", tmp, source=source)
    return lib
