import pytest
from conftest import mixed_circuits
from hypothesis import given, settings, strategies as st

from qsim import circuits, dist, perfmodel
from qsim.fabric import create_world, run_spmd

# (local_sweeps, total_exchange_bytes, swap_count) per rank on 64 NVL72 ranks.
# A "local" step, with the diagonal steps folded into it (`dist.sweeps`), and
# a diagonal step left on its own each cost one sweep; diagonal steps move no
# data, so folding them changes the sweeps alone (before folding: 226, 628,
# 237, 714, 561 and 1733)
PAPER_TRAFFIC = {
    ("qpe34", True): (165, 27917287424, 13),
    ("qpe34", False): (569, 25769803776, 12),
    ("tfim34", True): (151, 141733920768, 66),
    ("tfim34", False): (694, 141733920768, 66),
    ("random34", True): (399, 161061273600, 75),
    ("random34", False): (1258, 111669149696, 52),
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
