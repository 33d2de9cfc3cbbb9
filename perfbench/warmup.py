"""Set-up step of each workload: import the package, call each layer once.

run.py times this script in fresh interpreters for `setup_s` and runs the
same warm-up in its own process before the timed pass. Run it from the
repository root with `src` on PYTHONPATH:

    PYTHONPATH=src python3 perfbench/warmup.py certify-cli

It prints the monotonic clock when the warm-up ends, so the caller can
stop the set-up time there and leave interpreter shutdown out of it.
"""

import math
import sys
import time

import measdiscrim
import measdiscrim.cli


def tester_search() -> None:
    pair = measdiscrim.measurement_pair(math.pi / 10.0)
    measdiscrim.optimize_povm(pair, 0.3, tol=1e-4, seed=0, restarts=1)


def certify_cli() -> None:
    theta = math.pi / 6.0
    measdiscrim.entangled_success(theta, 0.2)
    measdiscrim.single_optimal(theta, 0.2)
    measdiscrim.hull_verify(0.5, 100, 0)
    measdiscrim.finite_difference_check(0.5, 0.1)
    labnoise = measdiscrim.load_imperfections("labnoise")
    config = measdiscrim.ExperimentConfig(
        theta=theta, vrc_transmittance=0.6, trials=1000, seed=0, imperfections=labnoise
    )
    measdiscrim.estimate(measdiscrim.run_trials(config), labnoise)


WARMUPS = {
    "tester-search": tester_search,
    "certify-cli": certify_cli,
}


if __name__ == "__main__":
    WARMUPS[sys.argv[1]]()
    print(repr(time.monotonic()))
