import json

import pytest

from qsim.bench import BenchmarkConfig, run_benchmark
from qsim.fabric import create_world

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
