"""Building and loading the compiled kernel: the numpy fallback, the
cache, concurrent first loads, and nothing at import."""

import os
import shlex
import shutil
import subprocess
import sys
import textwrap

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
    sv._apply_matrix(got, mat, (3, 0))
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
def test_second_load_reuses_the_cache(fresh, monkeypatch):
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
def test_two_processes_loading_at_once_both_get_a_library(tmp_path):
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        import numpy as np
        from qsim import ckernel, svcore as sv
        ckernel.CACHE_DIR = Path(sys.argv[1])
        assert ckernel.load() is not None
        psi = np.arange(64, dtype=complex)
        got, expect = psi.copy(), psi.copy()
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        sv._apply_matrix(got, h, (2,))
        sv._apply_matrix_numpy(expect, h, (2,))
        print(np.max(np.abs(got - expect)) <= 1e-12)
    """)
    cache = tmp_path / "cache"
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(cache)], env=checkout_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
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
