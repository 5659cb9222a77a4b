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

`apply` is the one place a kernel call is packed: every caller hands it
the amplitudes, the matrix, the target and control bits and the
diagonals, which it checks against what C will read and write, and gets
the entry's status back. The kernel's design, its bodies and what they
cost are described once, in the `ckernel.c` header.

A step over at least 2^15 of the amplitudes it touches is split over a
share of cores (see `ckernel.c`): by default this process's,
`core_share()`, read when the kernel loads, which is OMP_NUM_THREADS if
that is a positive integer, else the CPUs this process may run on; ranks
that share a host set OMP_NUM_THREADS to their part.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("ckernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# seconds a build may take before the numpy kernel is used instead
_BUILD_TIMEOUT = 120
# seconds since a library was last built or loaded before a build of
# another key deletes it
_STALE_SECONDS = 3600

_COMPLEX = np.dtype(np.complex128)
_lock = threading.Lock()
_loaded = False
_apply = None
# the share of cores of every kernel call in this process that names none
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
    """The compiled kernel's entry, `qsim_apply_matrix`, which `apply`
    calls, or None if it cannot be built; `cores` reads `core_share()`
    then. Only the first call builds or loads; every later one returns the
    same answer."""
    global _loaded, _apply, cores
    if not _loaded:
        with _lock:
            if not _loaded:
                _apply = _open()
                cores = core_share()
                _loaded = True
    return _apply


def _table_fits(table, mask) -> bool:
    """Whether a diagonal's table is what C reads over the d bits of
    `mask`: 2^d contiguous complex128 phases."""
    return (isinstance(table, np.ndarray) and table.dtype == _COMPLEX
            and table.flags.c_contiguous and table.size == 1 << int(mask).bit_count())


def apply(amps: np.ndarray, mat, targets, controls=(), before=None, after=None,
          share=None) -> int:
    """The kernel's entry on `amps`, 2^m contiguous complex128 amplitudes,
    in place: the diagonal `before`, then `mat` (None for width 0) on the
    index bits `targets` (the first the matrix's lowest bit) over the
    indices whose `controls` bits are all 1, then the diagonal `after`, on
    a share of `share` cores, by default this process's (`cores`). Each
    diagonal is None or a pair (table, mask): 2^d contiguous complex128
    phases over the d bits of `mask`, in ascending order. Returns the
    entry's status, 0 when it applied the step, else nonzero, touching
    nothing: the entry declined the step (its comment in `ckernel.c` lists
    what it declines), or (-1) no library loads, or C would read or write
    an array past its end or where it may not: `amps` is not an aligned,
    writable, 1-D C-contiguous complex128 array, `mat` not 2^w x 2^w for
    w = len(targets), or a table not 2^d contiguous complex128 phases."""
    fn = load()
    if (fn is None or not isinstance(amps, np.ndarray) or amps.dtype != _COMPLEX
            or amps.ndim != 1 or not amps.flags.carray):
        return -1
    w = len(targets)
    if w:
        mat = np.ascontiguousarray(mat, dtype=_COMPLEX)
        if mat.shape != (1 << w, 1 << w):
            return -1
    (bt, bmask), (at, amask) = before or (None, 0), after or (None, 0)
    if ((bt is not None and not _table_fits(bt, bmask))
            or (at is not None and not _table_fits(at, amask))):
        return -1
    return fn(
        amps.ctypes.data, amps.size.bit_length() - 1, mat.ctypes.data if w else None, w,
        sum(t << (8 * j) for j, t in enumerate(targets)), sum(1 << c for c in controls),
        cores if share is None else share, None if bt is None else bt.ctypes.data, bmask,
        None if at is None else at.ctypes.data, amask,
    )
