"""Subprocess body for tcp-transport tests: one OS process per rank.

Usage: python tcp_worker.py MODE RANK WORLD_SIZE RENDEZVOUS OUT_PATH [SEED]

Modes:
  smoke  exchange/barrier/broadcast/allreduce round trip, writes "ok"
  qpe    runs a k=16 QPE circuit distributed, writes the gathered state
         bytes and the sampled counts JSON
  mismatch  rank 0 enters a barrier while rank 1 enters an exchange;
         writes the FramingError each rank raises
"""

import json
import sys

import numpy as np

from qsim import dist, fabric
from qsim.circuits import QpeSpec, build_qpe


def main() -> int:
    mode, rank, world, rendezvous, out_path = sys.argv[1:6]
    rank, world = int(rank), int(world)
    seed = int(sys.argv[6]) if len(sys.argv) > 6 else 7
    ep = fabric.create_world("tcp", world, rendezvous=rendezvous, rank=rank, timeout=30)
    try:
        if mode == "smoke":
            ep.barrier()
            got = ep.exchange(rank ^ 1, bytes([rank]) * 16)
            assert got == bytes([rank ^ 1]) * 16
            total = ep.allreduce_sum([float(rank)])
            assert total[0] == sum(range(world))
            blob = ep.broadcast(0, b"hello" if rank == 0 else b"")
            assert blob == b"hello"
            assert ep.broadcast(0, b"") == b""
            ep.barrier()
            with open(out_path, "w") as f:
                f.write("ok")
        elif mode == "qpe":
            circuit = build_qpe(QpeSpec(16, 4321))
            st = dist.run_distributed(circuit, ep, fusion=True)
            full = dist.gather(st)
            counts = dist.sample_distributed(st, 1000, seed, circuit.measured)
            with open(out_path, "wb") as f:
                f.write(full.amps.tobytes())
            with open(out_path + ".counts", "w") as f:
                json.dump(counts.entries, f, sort_keys=True)
        elif mode == "mismatch":
            try:
                if rank == 0:
                    ep.barrier()
                else:
                    ep.exchange(0, b"\x07")
            except fabric.FramingError as e:
                with open(out_path, "w") as f:
                    f.write(str(e))
        else:
            raise SystemExit(f"unknown mode {mode}")
    finally:
        ep.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
