import json

import pytest

from qsim import circuits, cli, perfmodel

PRESET_LINKS = {
    "nvl72": ("NVLink 5", "NVLink 5"),
    "ib": ("NVLink 5", "ConnectX-7"),
    "perlmutter": ("NVLink 3", "Slingshot 11"),
}


def predict(capsys, *flags):
    argv = ["model", "predict", "-n", "12", "--ranks", "8", *flags]
    rc = cli.parse_and_run(argv, env={})
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("name", list(PRESET_LINKS))
def test_preset_parses(name):
    argv = ["model", "predict", "-n", "12", "--topology", name]
    topo = cli._topology(cli.build_parser({}).parse_args(argv))
    assert topo.total_ranks == 64
    assert tuple(lnk.name for _, lnk in topo.levels) == PRESET_LINKS[name]


def test_default_is_nvl72():
    args = cli.build_parser({}).parse_args(["model", "predict", "-n", "12"])
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
    ],
    ids=["unknown-link", "no-size"],
)
def test_bad_config_file_reports_error(capsys, tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    rc, out, err = predict(capsys, "--topology", str(path))
    assert rc == 1
    assert out == ""
    assert message in err
