import csv
import io
import json
import sys

import pytest
from conftest import free_port, model_traffic, run_ranks

from qsim import bench, circuits, cli, perfmodel

PRESET_LINKS = {
    "nvl72": ("NVLink 5", "NVLink 5"),
    "ib": ("NVLink 5", "ConnectX-7"),
    "perlmutter": ("NVLink 3", "Slingshot 11"),
}


def predict(capsys, *flags):
    argv = ["model", "predict", "-n", "12", "--ranks", "8", *flags]
    rc = cli.parse_and_run(argv)
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("name", list(PRESET_LINKS))
def test_preset_parses(name):
    argv = ["model", "predict", "-n", "12", "--topology", name]
    topo = cli._topology(cli.build_parser().parse_args(argv))
    assert topo.total_ranks == 64
    assert tuple(lnk.name for _, lnk in topo.levels) == PRESET_LINKS[name]


@pytest.mark.parametrize("name", list(PRESET_LINKS))
def test_preset_covers_max_ranks(capsys, name):
    argv = ["model", "strong", "-n", "20", "--max-ranks", "128", "--topology", name]
    rc = cli.parse_and_run(argv)
    out, err = capsys.readouterr()
    assert rc == 0, err
    rows = csv_rows(out)
    assert rows[0] == ["P", "n", "T_seconds", "efficiency", "speedup"]
    assert [r[0] for r in rows[1:]] == [str(1 << j) for j in range(8)]


def test_default_is_nvl72():
    args = cli.build_parser().parse_args(["model", "predict", "-n", "12"])
    assert cli._topology(args) == perfmodel.nvl72_topology(total=64)


@pytest.mark.parametrize("name", list(PRESET_LINKS))
def test_model_predict_runs_on_preset(capsys, name):
    rc, out, _ = predict(capsys, "--topology", name)
    assert rc == 0
    result = json.loads(out)
    assert (result["P"], result["n"]) == (8, 12)
    # the default family is QPE on n-1 counting qubits
    topo = cli._TOPOLOGIES[name](total=64).for_ranks(8)
    profile = perfmodel.schedule_traffic(
        circuits.build_qpe(circuits.QpeSpec(11, 1)), 12, topo, fusion=True
    )
    assert result["predicted_seconds"] == perfmodel.predict_time(profile, topo)


def test_config_file_path(capsys, tmp_path):
    path = tmp_path / "two-level.cfg"
    path.write_text("level.0.size = 4\nlevel.0.link = NVLink 3\n"
                    "level.1.size = 16\nlevel.1.bw = 1e9\n")
    rc, out, _ = predict(capsys, "--topology", str(path))
    assert rc == 0
    assert json.loads(out)["P"] == 8


def test_unknown_name_lists_presets(capsys):
    rc, out, err = predict(capsys, "--topology", "nvl36")
    assert rc == 1
    assert out == ""
    assert "'nvl36'" in err
    for name in PRESET_LINKS:
        assert name in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("level.0.size = 4\nlevel.0.link = NVLink 9\n", "unknown interconnect 'NVLink 9'"),
        ("level.0.link = NVLink 5\n", "level 0 needs a size"),
        ("level.0.size = 3\nlevel.0.link = NVLink 5\n", "domain size must be a power of two, got 3"),
        ("level.0.size = 1\nlevel.0.link = NVLink 5\n", "domain size must be at least 2, got 1"),
    ] + [
        # NaN once printed "predicted_seconds": NaN, which is not JSON, and
        # infinity a prediction of 0.0 s
        (f"level.0.size = 4\n{link}{key} = {value}\n",
         f"error: {key} must be a finite positive bandwidth, got {float(value)!r}\n")
        for key, link in (("mem_bw", "level.0.link = NVLink 5\n"), ("level.0.bw", ""))
        for value in ("nan", "inf", "-inf")
    ],
    ids=["unknown-link", "no-size", "size-3", "size-1"] + [
        f"{key}-{value}" for key in ("mem_bw", "level.0.bw") for value in ("nan", "inf", "-inf")],
)
def test_bad_config_file_reports_error(capsys, tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    rc, out, err = predict(capsys, "--topology", str(path))
    assert rc == 1
    assert out == ""
    assert message in err


REPORT_KEYS = [
    "schema_version", "config", "world_size", "transport", "kernel",
    "creation_time_seconds", "circuits", "warmup_excluded", "timed_circuits",
    "mean_wall_time_seconds", "std_wall_time_seconds", "traffic",
]
CIRCUIT_KEYS = ["index", "name", "wall_time_seconds", "fidelity"]
BENCH_ARGV = ["bench", "qpe", "-n", "4", "-c", "2", "--ranks", "2"]


def run(capsys, *argv):
    rc = cli.parse_and_run(list(argv))
    out, err = capsys.readouterr()
    assert rc == 0, err
    return out


@pytest.fixture
def saved_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    out = run(capsys, *BENCH_ARGV, "--format", "json", "--out", str(path))
    return path, out


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_seed_from_2_to_63_runs(capsys):
    rc = cli.parse_and_run(["bench", "qpe", "-n", "4", "-c", "2", "--seed", str(2**63)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert json.loads(out)["config"]["seed"] == 2**63


def test_bench_ignores_the_environment(capsys, monkeypatch):
    # flags are the one input path: variables that once set defaults are
    # not read, however malformed
    monkeypatch.setenv("QSIM_FABRIC", "bogus")
    monkeypatch.setenv("QSIM_SEED", "x")
    rc = cli.parse_and_run(["bench", "qpe", "-n", "4", "-c", "2"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    report = json.loads(out)
    assert (report["config"]["fabric"], report["config"]["seed"]) == ("loopback", 1234)


def test_random_bench_takes_a_negative_seed(capsys):
    # the circuit's seed is taken modulo 2^64, as the sampling seed is
    rc = cli.parse_and_run(["bench", "random", "-n", "4", "-c", "2", "--seed", "-1"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert json.loads(out)["config"]["seed"] == -1


def run_fails(capsys, *argv):
    rc = cli.parse_and_run(list(argv))
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    return err


def test_random_bench_rejects_a_negative_gate_count(capsys):
    err = run_fails(capsys, "bench", "random", "-n", "4", "-c", "2", "--gates", "-5")
    assert err == "error: num_gates must be >= 0, got -5\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["model", "predict", "-n", "12", "--ranks", "0"], "--ranks must be a power of two, got 0"),
        (["model", "weak", "--base-n", "8", "--max-ranks", "6"],
         "--max-ranks must be a power of two, got 6"),
        (["bench", "qpe", "-n", "4", "-c", "2", "--ranks", "3"],
         "--ranks must be a power of two, got 3"),
    ],
    ids=["predict", "weak", "bench"],
)
def test_rank_counts_must_be_powers_of_two(capsys, argv, message):
    assert run_fails(capsys, *argv) == f"error: {message}\n"


@pytest.mark.parametrize("rank", ["5", "-1"])
def test_tcp_rank_out_of_range_fails_before_rendezvous(capsys, rank):
    # nothing listens at the address: a rank that reached the rendezvous
    # would wait out its timeout instead
    err = run_fails(capsys, *BENCH_ARGV, "--fabric", "tcp", "--rank", rank,
                    "--rendezvous", f"127.0.0.1:{free_port()}")
    assert err == f"error: rank {rank} out of range for world size 2\n"


def test_tcp_bench_needs_rank_and_rendezvous(capsys):
    err = run_fails(capsys, *BENCH_ARGV, "--fabric", "tcp", "--rank", "0")
    assert err == "error: tcp worlds need a rendezvous address and a rank\n"


TFIM_ARGV = ["bench", "tfim", "-n", "6", "--rows", "2", "--cols", "3", "--lattice",
             "triangular", "--open-boundary", "--coupling", "0.5", "--field", "2",
             "--time", "0.3", "--steps", "4"]


def test_tfim_flags_set_the_config():
    cfg = cli._bench_config(cli.build_parser().parse_args(TFIM_ARGV))
    assert cfg == bench.BenchmarkConfig(
        "tfim", 6, steps=4, rows=2, cols=3, lattice="triangular", periodic=False,
        coupling=0.5, transverse_field=2.0, t_total=0.3,
    )


def test_tfim_takes_no_config_file(capsys, tmp_path):
    path = tmp_path / "tfim.cfg"
    path.write_text("steps = 2\n")
    with pytest.raises(SystemExit) as exit_:
        cli.parse_and_run([*TFIM_ARGV, "--tfim-config", str(path)])
    assert exit_.value.code == 2
    assert "--tfim-config" in capsys.readouterr().err


def test_tfim_on_one_site_reads_null_fidelity(capsys):
    # the 1-site TFIM leaves |+>: a uniform ideal, which shot noise never
    # matches, so the report carries null rather than 0.0
    report = json.loads(run(capsys, "bench", "tfim", "-n", "1", "-c", "2", "--format", "json"))
    assert [c["fidelity"] for c in report["circuits"]] == [None, None]


@pytest.mark.parametrize("fusion", ["on", "off"])
@pytest.mark.parametrize("qubits", [3, 4])
def test_bench_names_a_split_over_too_many_ranks(capsys, qubits, fusion):
    # the split is checked before fusion picks a block width from it
    err = run_fails(capsys, "bench", "qpe", "-n", str(qubits), "-c", "2",
                    "--ranks", "16", "--fusion", fusion)
    assert err == f"error: {qubits} qubits cannot be split over 16 ranks\n"


class TestReportOutput:
    def test_bench_json_stdout_equals_file(self, saved_report):
        path, out = saved_report
        assert out == path.read_text()
        report = json.loads(out)
        assert list(report) == REPORT_KEYS
        assert [list(c) for c in report["circuits"]] == [CIRCUIT_KEYS] * 2
        assert (report["schema_version"], report["world_size"]) == (1, 2)
        assert report["timed_circuits"] == 1

    def test_report_json_reproduces_file(self, capsys, tmp_path, saved_report):
        path, _ = saved_report
        again = tmp_path / "again.json"
        out = run(capsys, "report", str(path), "--format", "json", "--out", str(again))
        assert out == path.read_text()
        assert again.read_text() == out

    def test_report_csv_rows_match_bench_csv(self, capsys, saved_report):
        path, _ = saved_report
        report = json.loads(path.read_text())
        rows = csv_rows(run(capsys, "report", str(path), "--format", "csv"))
        header = ["circuit", "name", "wall_time_seconds", "fidelity"]
        expect = [header] + [
            [str(c["index"]), c["name"], repr(c["wall_time_seconds"]),
             repr(c["fidelity"])]
            for c in report["circuits"]
        ] + [
            ["mean_excl_warmup", "qpe", repr(report["mean_wall_time_seconds"]), ""],
            ["std_excl_warmup", "qpe", repr(report["std_wall_time_seconds"]), ""],
            ["kernel", report["kernel"], "", ""],
        ]
        assert report["kernel"] in ("compiled", "numpy")
        assert rows == expect
        fresh = csv_rows(run(capsys, *BENCH_ARGV, "--format", "csv"))
        # wall times differ between runs; the row structure does not
        assert [r[:2] + r[3:] for r in fresh] == [r[:2] + r[3:] for r in expect]

    def test_tcp_world_prints_one_report_from_rank_0(self, tmp_path):
        outs = [tmp_path / f"r{r}.json" for r in range(2)]
        # a tfim relocalizes over two ranks; a qpe's one global qubit only
        # takes its X in the START, so it would exchange nothing
        bench_argv = ["bench", "tfim", "-n", "4", "-c", "2", "--ranks", "2"]

        def argv(rank, rendezvous):
            return [sys.executable, "-m", "qsim", *bench_argv, "--fabric", "tcp",
                    "--rank", str(rank), "--rendezvous", rendezvous,
                    "--format", "json", "--out", str(outs[rank])]

        stdout = run_ranks(argv, 2)
        assert stdout[1] == ""
        assert not outs[1].exists()
        assert stdout[0] == outs[0].read_text()
        report = json.loads(stdout[0])
        assert list(report) == REPORT_KEYS
        assert (report["world_size"], report["transport"]) == (2, "tcp")
        expect = model_traffic(cli._bench_config(cli.build_parser().parse_args(bench_argv)), 2)
        assert expect["exchange_bytes_total"] > 0
        assert report["traffic"] == expect

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{}", "missing keys ['schema_version', 'config', "),
            ("[1]", "got list"),
            ('{"circuits": []}', "missing keys ['schema_version', "),
        ],
        ids=["empty-object", "list", "partial"],
    )
    def test_report_of_a_non_report_names_the_problem(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        err = run_fails(capsys, "report", str(path))
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.update(config=5),
             "BenchmarkReport field 'config' must be dict, got int"),
            (lambda r: r["circuits"][1].update(wall_time_seconds="0.5"),
             "CircuitResult field 'wall_time_seconds' must be float, got str"),
            (lambda r: r.update(traffic=[1]),
             "BenchmarkReport field 'traffic' must be dict | None, got list"),
            (lambda r: r.update(world_size=True),
             "BenchmarkReport field 'world_size' must be int, got bool"),
            (lambda r: r["config"].update(benchmark=7),
             "BenchmarkConfig field 'benchmark' must be str, got int"),
            (lambda r: r["config"].update(n="six"),
             "BenchmarkConfig field 'n' must be int, got str"),
            (lambda r: r["traffic"].update(exchange_bytes_total="lots"),
             "traffic field 'exchange_bytes_total' must be int, got str"),
            (lambda r: r["traffic"]["bytes_by_global_bit"].update({"0": 1.5}),
             "traffic bytes_by_global_bit field '0' must be int, got float"),
        ],
        ids=["number-config", "string-wall-time", "list-traffic", "bool-world-size",
             "number-benchmark", "string-n", "string-bytes-total", "float-bit-bytes"],
    )
    def test_report_names_a_value_of_the_wrong_type(
        self, capsys, tmp_path, saved_report, edit, message
    ):
        path, _ = saved_report
        report = json.loads(path.read_text())
        edit(report)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        assert run_fails(capsys, "report", str(bad)) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r["config"].pop("n"),
             "not a BenchmarkConfig: missing keys ['n'], unknown keys []"),
            (lambda r: r["config"].pop("benchmark"),
             "not a BenchmarkConfig: missing keys ['benchmark'], unknown keys []"),
            (lambda r: r["config"].update(ranks=2),
             "not a BenchmarkConfig: missing keys [], unknown keys ['ranks']"),
            (lambda r: r["traffic"].pop("messages_total"),
             "not a traffic: missing keys ['messages_total'], unknown keys []"),
        ],
        ids=["no-n", "no-benchmark", "unknown-config-key", "no-messages-total"],
    )
    def test_report_names_a_missing_or_unknown_nested_key(self, saved_report, edit, message):
        path, _ = saved_report
        report = json.loads(path.read_text())
        edit(report)
        with pytest.raises(ValueError) as raised:
            bench.report_from_json(json.dumps(report))
        assert str(raised.value) == message

    def test_report_without_traffic_still_reads(self, saved_report):
        # written before every endpoint counted its traffic
        path, _ = saved_report
        report = json.loads(path.read_text())
        report["traffic"] = None
        text = json.dumps(report, indent=2) + "\n"
        assert bench.report_from_json(text).render("json") == text

    def test_report_without_kernel_still_reads(self, saved_report):
        # written before the kernel was recorded: null, and no CSV row
        path, _ = saved_report
        report = json.loads(path.read_text())
        del report["kernel"]
        got = bench.report_from_json(json.dumps(report))
        assert got.kernel is None
        assert [row[0] for row in csv_rows(got.render("csv"))][-1] == "std_excl_warmup"

    def test_report_names_unknown_keys(self, saved_report):
        path, _ = saved_report
        report = json.loads(path.read_text())
        report["extra"] = 1
        del report["circuits"][0]["fidelity"]
        with pytest.raises(ValueError, match=r"unknown keys \['extra'\]"):
            bench.report_from_json(json.dumps(report))
        del report["extra"]
        with pytest.raises(ValueError, match=r"CircuitResult: missing keys \['fidelity'\]"):
            bench.report_from_json(json.dumps(report))
