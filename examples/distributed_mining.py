"""Distributed mining on one machine: a worker fleet.

What ``repro.dist`` adds, end to end on localhost: two ``WorkerDaemon``
compute nodes (what ``sisd worker`` runs) and a ``DistExecutor`` fanning
beam-search shards across them, checked bit-identical against a serial
run — then one node is killed mid-fleet and the check is repeated.

On real hardware the same code spreads across machines: start
``sisd worker --port 9000`` on each compute node (``--host`` binds it
beyond localhost; do that on a trusted network only, since shards
travel as pickles) and give their URLs to the ``DistExecutor``.
"""

import sys

from repro.datasets import make_synthetic
from repro.dist.executor import DistExecutor
from repro.dist.worker import WorkerDaemon
from repro.engine.executor import SerialExecutor
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery


def compute_tier() -> None:
    print("-- compute tier: worker daemons + DistExecutor --")
    workers = [WorkerDaemon(parallelism=2) for _ in range(2)]
    handles = [worker.run_in_thread() for worker in workers]
    print(f"worker fleet: {[worker.url for worker in workers]}")

    dataset = make_synthetic(0)
    config = SearchConfig(beam_width=12, max_depth=2, top_k=40)

    def search(executor):
        return SubgroupDiscovery(
            dataset, config=config, seed=0, executor=executor
        ).search_locations()

    serial = search(SerialExecutor())
    try:
        with DistExecutor([worker.url for worker in workers]) as executor:
            remote = search(executor)
            print(
                f"distributed search: {executor.stats['shards_remote']} shards "
                f"remote, contexts shipped {executor.stats['contexts_shipped']}"
            )
        identical = serial.best.description == remote.best.description and all(
            a.score.ic == b.score.ic for a, b in zip(serial.log, remote.log)
        )
        print(f"bit-identical to serial search: {identical}")

        # Kill one node; shards fail over and the answer must not move.
        handles[0].stop()
        print(f"killed {workers[0].url}; searching again on the survivor")
        with DistExecutor(
            [worker.url for worker in workers], timeout=2.0
        ) as executor:
            survivor = search(executor)
            print(
                f"failovers absorbed: {executor.stats['failovers']}, "
                f"still identical: "
                f"{survivor.best.description == serial.best.description}"
            )
    finally:
        for handle in handles[1:]:
            handle.stop()


def main() -> int:
    compute_tier()
    return 0


if __name__ == "__main__":
    sys.exit(main())
