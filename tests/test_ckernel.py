"""Building and loading the compiled kernel: the numpy fallback, the
cache, concurrent first loads, and nothing at import."""

import os
import shlex
import shutil
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from conftest import SRC_DIR, random_unitary

from qsim import ckernel, svcore as sv


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A kernel not yet loaded, whose cache is an empty directory."""
    monkeypatch.setattr(ckernel, "_loaded", False)
    monkeypatch.setattr(ckernel, "_apply", None)
    monkeypatch.setattr(ckernel, "CACHE_DIR", tmp_path / "cache")
    return tmp_path / "cache"


# the cache tests build this instead of `ckernel.c`, which takes seconds
# to compile: the same entry point, applying a matrix one index at a time
# and declining phases, which the caller then applies in numpy
STAND_IN = r"""
#include <complex.h>
#include <stdint.h>

int qsim_apply_matrix(double *amps, int m, const double *mat, int w,
                      uint64_t targets, uint64_t cmask, int cores,
                      const double *before, uint64_t before_mask,
                      const double *after, uint64_t after_mask)
{
    double complex *a = (double complex *)amps, x[32];
    const double complex *u = (const double complex *)mat;
    uint64_t tmask = 0, off[32] = {0};
    int rows = 1 << w;
    if (!mat || before || after || w > 5)
        return 1;
    for (int j = 0; j < w; j++)
        tmask |= UINT64_C(1) << ((targets >> (8 * j)) & 255);
    for (int r = 0; r < rows; r++)
        for (int j = 0; j < w; j++)
            if (r >> j & 1)
                off[r] |= UINT64_C(1) << ((targets >> (8 * j)) & 255);
    for (uint64_t i = 0; i < UINT64_C(1) << m; i++) {
        if ((i & tmask) || (i & cmask) != cmask)
            continue;
        for (int r = 0; r < rows; r++)
            x[r] = a[i | off[r]];
        for (int r = 0; r < rows; r++) {
            double complex sum = 0;
            for (int c = 0; c < rows; c++)
                sum += u[r * rows + c] * x[c];
            a[i | off[r]] = sum;
        }
    }
    return 0;
}
"""


@pytest.fixture
def stand_in(monkeypatch, tmp_path):
    """`ckernel.SOURCE` made the small stand-in, in a file of its own."""
    source = tmp_path / "stand_in.c"
    source.write_text(STAND_IN)
    monkeypatch.setattr(ckernel, "SOURCE", source)
    return source


def fake_compiler(tmp_path, body: str) -> str:
    """A `$CC` that runs `body` as Python, with the compile command in argv."""
    path = tmp_path / "fake-cc"
    path.write_text(f"#!{sys.executable}\nimport sys\n{textwrap.dedent(body)}")
    path.chmod(0o755)
    return str(path)


def applies_like_numpy() -> bool:
    rng = np.random.default_rng(4)
    psi = rng.normal(size=1 << 6) + 1j * rng.normal(size=1 << 6)
    mat = random_unitary(2, 4)
    got, expect = psi.copy(), psi.copy()
    sv.apply_gate(got, sv.fused((3, 0), mat), range(6))
    sv._apply_matrix_numpy(expect, mat, (3, 0))
    return bool(np.max(np.abs(got - expect)) <= 1e-12)


def compiler_present() -> bool:
    return shutil.which(shlex.split(os.environ.get("CC") or "cc")[0]) is not None


needs_compiler = pytest.mark.skipif(not compiler_present(), reason="no C compiler")


def checkout_env(**extra) -> dict:
    """The environment of a child process that imports qsim from this
    checkout, like the test process."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_missing_compiler_falls_back_to_numpy(fresh, monkeypatch):
    monkeypatch.setenv("CC", str(fresh.parent / "no-such-cc"))
    assert ckernel.load() is None
    assert applies_like_numpy()
    assert not fresh.exists() or not any(fresh.iterdir())


def test_failing_compiler_leaves_no_partial_file(fresh, monkeypatch, tmp_path):
    cc = fake_compiler(tmp_path, """
        with open(sys.argv[sys.argv.index("-o") + 1], "w") as f:
            f.write("half a library")
        sys.exit(1)
    """)
    monkeypatch.setenv("CC", cc)
    assert ckernel.load() is None
    assert applies_like_numpy()
    assert list(fresh.iterdir()) == []


@needs_compiler
def test_second_load_reuses_the_cache(fresh, stand_in, monkeypatch):
    assert ckernel.load() is not None
    built = list(fresh.iterdir())
    assert [p.name for p in built] == [ckernel.library_path().name]

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(ckernel, "_loaded", False)
    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert ckernel.load() is not None
    assert applies_like_numpy()
    assert list(fresh.iterdir()) == built


@needs_compiler
def test_two_processes_loading_at_once_both_get_a_library(stand_in, tmp_path):
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        import numpy as np
        from qsim import ckernel, svcore as sv
        ckernel.CACHE_DIR, ckernel.SOURCE = Path(sys.argv[1]), Path(sys.argv[2])
        assert ckernel.load() is not None
        psi = np.arange(64, dtype=complex)
        got, expect = psi.copy(), psi.copy()
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        sv.apply_gate(got, sv.fused((2,), h), range(6))
        sv._apply_matrix_numpy(expect, h, (2,))
        print(np.max(np.abs(got - expect)) <= 1e-12)
    """)
    cache = tmp_path / "cache"
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(cache), str(stand_in)],
                         env=checkout_env(), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out) == (0, "True\n"), err
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def test_import_starts_no_compiler(tmp_path):
    # the fake compiler leaves a mark and fails; the last step shows that
    # a dense step does run it
    mark = tmp_path / "compiled"
    cc = fake_compiler(tmp_path, f"open({str(mark)!r}, 'a').close()\nsys.exit(1)")
    script = textwrap.dedent("""
        import os, sys
        from pathlib import Path
        import qsim, qsim.bench, qsim.cli, qsim.dist, qsim.perfmodel
        from qsim import ckernel, fabric, svcore as sv
        ckernel.CACHE_DIR = Path(sys.argv[1])
        for ep in fabric.create_world("loopback", 2):
            ep.close()
        print(ckernel._loaded, os.path.exists(sys.argv[2]))
        sv.dense_run(sv.Circuit(2, [sv.h(0)]))
        print(ckernel._loaded, os.path.exists(sys.argv[2]))
    """)
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "cache"), str(mark)],
                         env=checkout_env(CC=cc), capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout == "False False\nTrue True\n"


@needs_compiler
def test_compiled_kernel_is_active_where_a_compiler_is():
    assert ckernel.load() is not None


@needs_compiler
def test_a_new_build_deletes_an_unused_old_library(fresh, stand_in, monkeypatch):
    assert ckernel.load() is not None
    old = ckernel.library_path()
    # loads the old library, then applies X to |00> once told to
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        import numpy as np
        from qsim import ckernel
        ckernel.CACHE_DIR, ckernel.SOURCE = Path(sys.argv[1]), Path(sys.argv[2])
        assert ckernel.load() is not None
        print("loaded", flush=True)
        sys.stdin.readline()
        psi = np.array([1, 0, 0, 0], dtype=complex)
        assert ckernel.apply(psi, np.array([[0, 1], [1, 0]]), (0,)) == 0
        print(psi.real.tolist())
    """)
    proc = subprocess.Popen([sys.executable, "-c", script, str(fresh), str(stand_in)],
                            env=checkout_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "loaded\n"
        stand_in.write_text(stand_in.read_text() + "/* another source */\n")
        unused = time.time() - ckernel._STALE_SECONDS - 60
        os.utime(old, (unused, unused))
        monkeypatch.setattr(ckernel, "_loaded", False)
        assert ckernel.load() is not None
        assert ckernel.library_path() != old
        assert list(fresh.iterdir()) == [ckernel.library_path()]
        out, err = proc.communicate("go\n", timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert (proc.returncode, out) == (0, "[0.0, 1.0, 0.0, 0.0]\n"), err
    assert applies_like_numpy()


@needs_compiler
def test_two_keys_building_at_once_keep_both_libraries(stand_in, tmp_path):
    # two compile commands, so two keys, against one cache: neither build
    # deletes the other's recent library, so each later process loads its
    # own without compiling
    cc = os.environ.get("CC") or "cc"
    script = textwrap.dedent("""
        import subprocess, sys
        from pathlib import Path
        from qsim import ckernel
        ckernel.CACHE_DIR, ckernel.SOURCE = Path(sys.argv[1]), Path(sys.argv[2])
        built = ckernel.library_path().exists()
        real_run = subprocess.run
        def run(*args, **kwargs):
            if built:
                raise AssertionError("the compiler ran again")
            return real_run(*args, **kwargs)
        subprocess.run = run
        print(ckernel.load() is not None)
    """)
    cache = tmp_path / "cache"
    for _ in range(2):
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(cache), str(stand_in)],
                             env=checkout_env(CC=f"{cc} {flag}"), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for flag in ("-DQSIM_KEY_A", "-DQSIM_KEY_B")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert (proc.returncode, out) == (0, "True\n"), err
        assert len(list(cache.glob("ckernel-*.so"))) == 2


@needs_compiler
def test_a_library_deleted_before_it_loads_is_built_again(fresh, stand_in, monkeypatch):
    import ctypes

    ckernel._build(ckernel.library_path())
    real_cdll = ctypes.CDLL
    deleted = []

    def delete_first(name, *args, **kwargs):
        # another key's build deletes the library after it was found
        if not deleted:
            deleted.append(name)
            os.unlink(name)
        return real_cdll(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", delete_first)
    assert ckernel.load() is not None
    assert deleted == [str(ckernel.library_path())]
    assert list(fresh.iterdir()) == [ckernel.library_path()]
    assert applies_like_numpy()


@pytest.mark.parametrize("value", ["", "0", "-2", "abc"])
def test_unusable_omp_num_threads_means_every_allowed_cpu(value):
    assert ckernel.core_share({"OMP_NUM_THREADS": value}) == len(os.sched_getaffinity(0))


def test_omp_num_threads_sets_the_core_share():
    assert ckernel.core_share({"OMP_NUM_THREADS": "3"}) == 3
    assert ckernel.core_share({}) == len(os.sched_getaffinity(0))
