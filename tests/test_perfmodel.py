import pytest

from qsim import circuits, perfmodel

# (local_sweeps, total_exchange_bytes, swap_count) per rank on 64 NVL72 ranks.
# A "local" and a "diagonal" plan step each cost one sweep and move no data,
# so which of the two a diagonal on local bits plans to leaves these unchanged
PAPER_TRAFFIC = {
    ("qpe34", True): (315, 45097156608, 21),
    ("qpe34", False): (628, 38654705664, 18),
    ("tfim34", True): (292, 150323855360, 70),
    ("tfim34", False): (714, 141733920768, 66),
    ("random34", True): (1102, 345744867328, 161),
    ("random34", False): (1733, 204010946560, 95),
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
