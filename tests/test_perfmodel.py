import re

import pytest
from conftest import mixed_circuits
from hypothesis import given, settings, strategies as st

from qsim import circuits, dist, perfmodel
from qsim.fabric import create_world, run_spmd

# (local_sweeps, total_exchange_bytes, swap_count) per rank on 64 NVL72 ranks.
# A "local" step, with the diagonal steps folded into it (`dist.sweeps`), and
# a diagonal step left on its own each cost one sweep; diagonal steps move no
# data, so folding them changes the sweeps alone (before folding: 102, 628,
# 162, 714, 488 and 1733). The START of each circuit's leading one-qubit
# gates is one sweep and never relocalizes (before it: (56, 25769803776,
# 12), (569, 25769803776, 12), (132, 152471339008, 71), (694, 141733920768,
# 66), (366, 148176371712, 69) and (1258, 111669149696, 52))
PAPER_TRAFFIC = {
    ("qpe34", True): (46, 17179869184, 8),
    ("qpe34", False): (536, 12884901888, 6),
    ("tfim34", True): (123, 133143986176, 62),
    ("tfim34", False): (662, 128849018880, 60),
    ("random34", True): (365, 148176371712, 69),
    ("random34", False): (1250, 111669149696, 52),
}


@pytest.fixture(scope="module")
def paper_circuits():
    ring34 = circuits.LatticeSpec(1, 34, "square", periodic=True)
    return {
        "qpe34": circuits.build_qpe(circuits.QpeSpec(33, 1)),
        "tfim34": circuits.build_tfim(circuits.tfim_from_lattice(ring34, steps=10)),
        "random34": circuits.build_random_circuit(34, 2000, 1),
    }


@pytest.mark.parametrize(
    "name, fusion", list(PAPER_TRAFFIC), ids=lambda v: str(v)
)
def test_paper_scale_traffic_pinned(paper_circuits, name, fusion):
    topo = perfmodel.nvl72_topology(total=64)
    prof = perfmodel.schedule_traffic(paper_circuits[name], 34, topo, fusion=fusion)
    got = (prof.local_sweeps, prof.total_exchange_bytes, prof.swap_count)
    assert got == PAPER_TRAFFIC[name, fusion]


class TestModelBytesEqualRecorded:
    @pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("P", [2, 4, 8])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_schedule_traffic_equals_endpoint_traffic(self, P, fusion, data):
        c = data.draw(mixed_circuits(P.bit_length() - 1))
        topo = perfmodel.nvl72_topology().for_ranks(P)
        prof = perfmodel.schedule_traffic(c, c.num_qubits, topo, fusion)
        world = create_world("loopback", P)
        run_spmd(world, lambda ep: dist.run_distributed(c, ep, fusion))
        for ep in world:
            assert ep.traffic.bytes_sent() == prof.total_exchange_bytes
            assert ep.traffic.bit_bytes == prof.exchange_bytes_per_level
            assert ep.traffic.bit_messages == prof.swap_count_per_level


@pytest.mark.parametrize("name", ["qpe34", "tfim34", "random34"])
def test_network_upgrade_beats_gpu_upgrade(paper_circuits, name):
    """The paper's headline, as orderings of modelled time on 64 ranks: a
    faster network (NVL72 links with A100-class memory) gains more than
    faster GPUs (HBM3e-class memory on Perlmutter's network), and NVL72
    beats ib, which beats Perlmutter. Perlmutter's mem_bw is a placeholder,
    so the ratios themselves are not pinned."""
    prof = perfmodel.schedule_traffic(
        paper_circuits[name], 34, perfmodel.nvl72_topology(total=64), fusion=True
    )
    seconds = {
        label: perfmodel.predict_time(prof, topo)
        for label, topo in {
            "perlmutter": perfmodel.perlmutter_topology(total=64),
            "gpu only": perfmodel.perlmutter_topology(total=64, mem_bw=8e12),
            "network only": perfmodel.nvl72_topology(total=64, mem_bw=2e12),
            "nvl72": perfmodel.nvl72_topology(total=64),
            "ib": perfmodel.ib_topology(total=64),
        }.items()
    }
    base = seconds["perlmutter"]
    assert base / seconds["network only"] > base / seconds["gpu only"]
    assert seconds["nvl72"] < seconds["ib"] < seconds["perlmutter"]


@pytest.mark.parametrize(
    "call",
    [
        lambda topo, family: topo.for_ranks(0),
        lambda topo, family: perfmodel.weak_scaling_curve(4, family, topo, max_ranks=0),
        lambda topo, family: perfmodel.strong_scaling_curve(4, family(4), topo, max_ranks=0),
    ],
    ids=["for_ranks", "weak", "strong"],
)
def test_rank_counts_follow_the_one_power_of_two_rule(call):
    def family(n):
        return circuits.build_qpe(circuits.QpeSpec(n - 1, 1))

    with pytest.raises(ValueError, match="must be a power of two, got 0"):
        call(perfmodel.nvl72_topology(), family)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_bandwidth_named(value):
    # NaN compares False with 0, and an infinite bandwidth predicts no time
    for text, field in (("level.0.size = 4\nlevel.0.link = NVLink 5\nmem_bw = {}\n", "mem_bw"),
                        ("level.0.size = 4\nlevel.0.bw = {}\n", "level.0.bw")):
        with pytest.raises(ValueError, match=f"^{re.escape(field)} must be a finite positive"):
            perfmodel.parse_topology(text.format(value))
    with pytest.raises(ValueError, match="^mem_bw must be a finite positive"):
        perfmodel.Topology((), float(value))
    with pytest.raises(ValueError, match="^bidir_bw of 'x' must be a finite positive"):
        perfmodel.LinkModel("x", float(value))
