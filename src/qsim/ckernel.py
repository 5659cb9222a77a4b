"""Build and load the compiled dense-gate kernel, `ckernel.c`.

The first dense step asks `load()`. It compiles the source with the system
C compiler (`$CC`, default `cc`, with -O3 -march=native -pthread) into the
package's `__pycache__`, under a name keyed by the source, the compile
command and the CPU's feature flags, so a library is never loaded on a CPU
it was not built for, and a later process loads it without compiling. The
library is written under a temporary name and renamed into place, so
processes that build at once each load a whole file; a lock makes the
threads of one process build once. Nothing happens at import.

Each load touches the library it opens, and a build deletes the cache's
other `ckernel-*.so` files that no process has built or loaded for an
hour: those of an older source, compile command or CPU. A key still in use
elsewhere (another CPU on a shared install, another `$CC`) keeps its
library, and a process that has a deleted one loaded keeps its mapping. A
library deleted between the check that it exists and its loading is built
again, once.

`load()` returns None, and the caller runs its numpy kernel, when there is
no compiler, the build fails, or the cache cannot be written.

A step over at least 2^15 of the amplitudes it touches runs on this
process's share of cores (see `ckernel.c`): `core_share()`, read when the
kernel loads, which is OMP_NUM_THREADS if that is a positive integer, else
the CPUs this process may run on; ranks that share a host set
OMP_NUM_THREADS to their part. The step's chunks of 2^12 amplitudes go to
the caller and up to share - 1 helper threads through an atomic counter,
through the same body, so every thread count gives the same bytes; a
serial step is one chunk, which the caller runs through that body too.
One step is split at a time: a call made while another thread's step is
split runs serially, so loopback rank threads add a thread each rather
than a share each. Helpers block on a condition variable between steps and never
spin, since a spinning helper holds a core that another rank or process
needs, and they keep off the caller's CPU. The caller waits only for
helpers that have joined its step, so a helper that has not started
stalls nothing.

A call may carry a diagonal to multiply in before the matrix and one
after it, each as a table of phases over its index bits in ascending
order and the mask of those bits; width 0 applies them with no matrix, in
one serial sweep. A folded diagonal and the same diagonal applied alone
give the same bytes.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("ckernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# seconds a build may take before the numpy kernel is used instead
_BUILD_TIMEOUT = 120
# seconds since a library was last built or loaded before a build of
# another key deletes it
_STALE_SECONDS = 3600

_lock = threading.Lock()
_loaded = False
_apply = None
# the `cores` argument of every kernel call in this process
cores = 1


def _compile_command(output: str) -> list[str]:
    """The command that compiles the source into the library `output`."""
    import shlex

    cc = shlex.split(os.environ.get("CC") or "cc")
    return [*cc, "-O3", "-march=native", "-shared", "-fPIC", "-pthread", "-o", output,
            str(SOURCE)]


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
    """Compile the library to a temporary name beside `path`, rename it
    into place, and delete the directory's other libraries that have not
    been built or loaded for `_STALE_SECONDS`. Raises OSError or
    subprocess.SubprocessError on failure, leaving no file behind."""
    import subprocess
    import tempfile
    import time

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
    now = time.time()
    for other in path.parent.glob("ckernel-*.so"):
        try:
            if other != path and now - other.stat().st_mtime > _STALE_SECONDS:
                other.unlink()
        except OSError:
            pass


def _open():
    """The library's `qsim_apply_matrix`, built first if not cached, or None."""
    import ctypes
    import subprocess

    try:
        path = library_path()
        for retry in (True, False):
            if not path.exists():
                _build(path)
            try:
                fn = ctypes.CDLL(str(path)).qsim_apply_matrix
                break
            except OSError:
                # a build of another key may have deleted it since
                if not retry or path.exists():
                    raise
    except (OSError, subprocess.SubprocessError):
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_int,
                   ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int,
                   ctypes.c_void_p, ctypes.c_uint64, ctypes.c_void_p, ctypes.c_uint64]
    fn.restype = ctypes.c_int
    return fn


def core_share(env=None) -> int:
    """The cores this process's kernel calls share: OMP_NUM_THREADS if it
    is a positive integer, else the CPUs this process may run on."""
    env = os.environ if env is None else env
    try:
        count = int(env.get("OMP_NUM_THREADS", ""))
    except ValueError:
        count = 0
    return count if count > 0 else len(os.sched_getaffinity(0))


def load():
    """`qsim_apply_matrix(amps, m, mat, w, targets, cmask, cores, before,
    before_mask, after, after_mask)` of the compiled kernel, or None if it
    cannot be built; `cores` reads `core_share()` then. Only the first
    call builds or loads; every later one returns the same answer."""
    global _loaded, _apply, cores
    if not _loaded:
        with _lock:
            if not _loaded:
                _apply = _open()
                cores = core_share()
                _loaded = True
    return _apply
