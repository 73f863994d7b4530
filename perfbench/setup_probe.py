"""One cold set-up of a workload, in a fresh interpreter.

``python3 perfbench/setup_probe.py WORKLOAD STORE_DIR`` imports the
library, registers every experiment, hashes the source fingerprints and
builds the workload's entry object -- a runner for the serial workloads, a
pool-backed engine for ``pool_batches``, a started ``CacheServer`` that has
answered one catalog request for ``read_api`` -- then exits.  ``run.py``
times the whole process, start to exit, as one set-up sample.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.cache import ResultStore, code_fingerprint, functional_fingerprint  # noqa: E402
from repro.experiments import registry  # noqa: E402


def main(workload: str, store_dir: str) -> int:
    registry.experiment_names()
    code_fingerprint()
    functional_fingerprint()
    if workload == "pool_batches":
        from repro.experiments.adapters import LocalPoolAdapter
        from repro.experiments.sweep import ParallelSweepEngine

        ParallelSweepEngine(store=ResultStore(store_dir), adapter=LocalPoolAdapter(jobs=2)).close()
    elif workload == "read_api":
        import http.client

        from repro.core.cache_service import CacheServer

        server = CacheServer(("127.0.0.1", 0), root=store_dir)
        thread = server.start_in_background()
        try:
            connection = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
            connection.request("GET", "/v1/experiments")
            response = connection.getresponse()
            response.read()
            connection.close()
            if response.status != 200:
                return 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
    else:
        registry.build_runner(jobs=1, store=ResultStore(store_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
