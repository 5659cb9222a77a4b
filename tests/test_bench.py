import json
import os
import subprocess
import sys

import pytest
from conftest import SRC_DIR, model_traffic, sample_one_rank

from qsim import bench
from qsim import svcore as sv
from qsim.bench import BenchmarkConfig, run_benchmark
from qsim.fabric import create_world, run_spmd

QPE_CONFIG = {
    "benchmark": "qpe",
    "n": 4,
    "shots": 200,
    "num_circuits": 2,
    "exclude_warmup": True,
    "steps": 10,
    "seed": 11,
    "fabric": "loopback",
    "fusion": True,
    "rows": None,
    "cols": None,
    "lattice": "square",
    "periodic": True,
    "coupling": 1.0,
    "transverse_field": 1.0,
    "t_total": 1.0,
    "random_gates": None,
}

TFIM_CONFIG = {
    "benchmark": "tfim",
    "n": 4,
    "shots": 1000,
    "num_circuits": 2,
    "exclude_warmup": True,
    "steps": 2,
    "seed": 1234,
    "fabric": "loopback",
    "fusion": True,
    "rows": 2,
    "cols": 2,
    "lattice": "square",
    "periodic": False,
    "coupling": 0.5,
    "transverse_field": 0.75,
    "t_total": 0.4,
    "random_gates": None,
}


class TestRunBenchmarkConfig:
    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (BenchmarkConfig("qpe", 4, shots=200, num_circuits=2, seed=11), QPE_CONFIG),
            (
                BenchmarkConfig(
                    "tfim", 4, num_circuits=2, steps=2, rows=2, cols=2,
                    periodic=False, coupling=0.5, transverse_field=0.75, t_total=0.4,
                ),
                TFIM_CONFIG,
            ),
        ],
        ids=["qpe", "tfim"],
    )
    def test_broadcast_and_reported_config_pinned(self, cfg, expected, monkeypatch):
        ep = create_world("loopback", 1)[0]
        sent = []
        inner = ep.broadcast

        def recording_broadcast(root, data):
            sent.append(data)
            return inner(root, data)

        monkeypatch.setattr(ep, "broadcast", recording_broadcast)
        report = run_benchmark(cfg, ep)
        assert sent[0] == json.dumps(expected, sort_keys=True).encode()
        assert report.config == expected
        assert list(report.config) == list(expected)


@pytest.mark.parametrize("family", ["qpe", "tfim", "random"])
def test_report_counts_this_ranks_traffic(family):
    cfg = BenchmarkConfig(family, 6, num_circuits=3)
    expect = model_traffic(cfg, 4)
    assert expect["exchange_bytes_total"] > 0
    reports = run_spmd(create_world("loopback", 4), lambda ep: run_benchmark(cfg, ep))
    for report in reports:
        assert report.transport == "loopback"
        assert report.traffic == expect


@pytest.mark.parametrize("family", ["tfim", "random"])
def test_oracle_time_not_counted_as_creation(family, monkeypatch):
    now = [0.0]
    oracle = bench._oracle_distribution

    def slow_oracle(circuit):
        now[0] += 100.0
        return oracle(circuit)

    monkeypatch.setattr(bench, "_oracle_distribution", slow_oracle)
    cfg = BenchmarkConfig(family, 4, num_circuits=2)
    report = run_benchmark(cfg, create_world("loopback", 1)[0], clock=lambda: now[0])
    assert now[0] >= 100.0
    assert report.creation_time_seconds < 100.0


def test_fidelity_is_null_above_the_oracle_cap(monkeypatch):
    # each rank's 2^5 slice fits the patched cap; the 2^6 oracle state does not
    monkeypatch.setattr(sv, "QUBIT_CAP", 5)
    cfg = BenchmarkConfig("random", 6, num_circuits=2)
    report = run_spmd(create_world("loopback", 2), lambda ep: run_benchmark(cfg, ep))[0]
    circuits = json.loads(report.render("json"))["circuits"]
    assert [c["fidelity"] for c in circuits] == [None, None]


def test_empty_register_sampled_and_exact_agree():
    state = sv.basis_state(3, 5)
    counts = sample_one_rank(state, 10, seed=0, measured=())
    assert bench.fidelity(counts.entries, sv.probabilities(state, ())) == 1.0


def test_fidelity_does_not_depend_on_the_hash_seed():
    # the string keys' set order follows PYTHONHASHSEED; the sum must not
    code = (
        "import numpy as np; from qsim import bench; "
        "rng = np.random.default_rng(7); keys = [format(i, '08b') for i in range(256)]; "
        "p, q = (dict(zip(keys, rng.random(256))) for _ in range(2)); "
        "print(repr(bench.fidelity(p, q)), repr(bench.hellinger_fidelity(p, q)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    outs = {
        subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                       capture_output=True, text=True, check=True).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outs) == 1
