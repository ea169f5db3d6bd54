"""§6.2 extended — predicted bulk-rebuild throughput for larger systems.

The functional cluster measures recovery throughput at 8-host scale;
the simulator's recovery phase model predicts it for the larger systems
of Fig. 10.  Expected shapes: rebuild throughput scales with the number
of rebuilding clients until storage saturates, and recovering a stripe
of a wider code costs more per stripe (phase 1 locks are serial in n)
but each recovery makes k blocks safe — so *data* rebuild rate still
grows with k.
"""

from __future__ import annotations

from repro.sim import protocol_model
from repro.sim.calibration import CostModel
from repro.sim.system import SimSystem

from benchmarks.conftest import print_table

STRIPES = 300


def _rebuild_rate(num_clients: int, k: int, n: int) -> float:
    """Simulated data-MB/s made safe by ``num_clients`` rebuilders."""
    costs = CostModel()
    system = SimSystem.build(num_clients, k, n, costs=costs)
    done = {"stripes": 0}

    def rebuilder(client, start, step):
        stripe = start
        while stripe < STRIPES:
            yield from protocol_model.ajx_recovery(system, client, stripe)
            done["stripes"] += 1
            stripe += step

    for c, client in enumerate(system.clients):
        system.sim.spawn(rebuilder(client, c, num_clients))
    system.sim.run()
    data_bytes = done["stripes"] * k * costs.block_size
    return data_bytes / system.sim.now / 1e6


def bench_sim_rebuild_scaling():
    rows = [
        (clients, _rebuild_rate(clients, 3, 5), _rebuild_rate(clients, 8, 10))
        for clients in (1, 3, 8)
    ]
    print_table(
        f"§6.2 extended — simulated rebuild rate (data MB/s), {STRIPES} stripes",
        ["rebuild clients", "3-of-5", "8-of-10"],
        [[c, f"{a:.1f}", f"{b:.1f}"] for c, a, b in rows],
    )
    by_clients = {c: (a, b) for c, a, b in rows}
    # More rebuilders -> faster rebuild (§6.2's three-client experiment).
    assert by_clients[3][0] > by_clients[1][0] * 2
    assert by_clients[8][0] > by_clients[3][0]
    # Wider codes amortize per-stripe overhead across more data blocks.
    assert by_clients[3][1] > by_clients[3][0]
