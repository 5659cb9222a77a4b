"""Build and load the compiled dense-gate kernel, `ckernel.c`.

The first dense step asks `load()`. It compiles the source with the system
C compiler (`$CC`, default `cc`, with -O3 -march=native) into the
package's `__pycache__`, under a name keyed by the source, the compile
command and the CPU's feature flags, so a library is never loaded on a CPU
it was not built for, and a later process loads it without compiling. The
library is written under a temporary name and renamed into place, so
processes that build at once each load a whole file; a lock makes the
threads of one process build once. Nothing happens at import.

`load()` returns None, and the caller runs its numpy kernel, when there is
no compiler, the build fails, or the cache cannot be written.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("ckernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# seconds a build may take before the numpy kernel is used instead
_BUILD_TIMEOUT = 120

_lock = threading.Lock()
_loaded = False
_apply = None


def _compile_command(output: str) -> list[str]:
    """The command that compiles the source into the library `output`."""
    import shlex

    cc = shlex.split(os.environ.get("CC") or "cc")
    return [*cc, "-O3", "-march=native", "-shared", "-fPIC", "-o", output, str(SOURCE)]


def _cpu_flags() -> str:
    """The CPU's feature flags as the OS reports them, or the machine name."""
    import platform

    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return platform.machine() + platform.processor()


def library_path() -> Path:
    """Where the library built from this source, by this compile command,
    for this CPU is cached."""
    import hashlib

    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(_compile_command("")).encode(),
                 _cpu_flags().encode()):
        key.update(part)
        key.update(b"\0")
    return CACHE_DIR / f"ckernel-{key.hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    """Compile the library to a temporary name beside `path`, then rename
    it into place. Raises OSError or subprocess.SubprocessError on failure,
    leaving no file behind."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(_compile_command(tmp), check=True, capture_output=True,
                       timeout=_BUILD_TIMEOUT)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open():
    """The library's `qsim_apply_matrix`, built first if not cached, or None."""
    import ctypes
    import subprocess

    try:
        path = library_path()
        if not path.exists():
            _build(path)
        fn = ctypes.CDLL(str(path)).qsim_apply_matrix
    except (OSError, subprocess.SubprocessError):
        return None
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_int,
                   ctypes.c_uint64, ctypes.c_uint64]
    fn.restype = ctypes.c_int
    return fn


def load():
    """`qsim_apply_matrix(amps, m, mat, w, targets, cmask)` of the compiled
    kernel, or None if it cannot be built. Only the first call builds or
    loads; every later one returns the same answer."""
    global _loaded, _apply
    if not _loaded:
        with _lock:
            if not _loaded:
                _apply = _open()
                _loaded = True
    return _apply
