"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload NAME --seed N --mode setup|norm

`setup` times from before `import pointvortex` until the workload's first
operation could start: the import, config resolution or state generation, and
the warming velocity and Hamiltonian evaluations.  `norm` times the first call
of `green_normalization_constant` for each modulus the workload uses (the
torus_n64 modulus for sphere_n64, which uses none).  Prints
{"seconds": x, "reference": r}, r being the faster of two reference slices of
hostspeed.py timed right after.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402,F401  (pins threads and puts src/ on sys.path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "norm"), required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        from spans import NullTracer
        from workloads import WORKLOADS

        WORKLOADS[args.workload]().setup(args.seed, NullTracer())
        seconds = time.perf_counter() - T0
    else:
        from pointvortex.theta import green_normalization_constant
        from workloads import N64_TAU, WORKLOADS

        moduli = WORKLOADS[args.workload].moduli or (N64_TAU,)
        start = time.perf_counter()
        for tau in moduli:
            green_normalization_constant(tau)
        seconds = time.perf_counter() - start
    from hostspeed import reference_s

    reference = min(reference_s(), reference_s())
    print(json.dumps({"seconds": seconds, "reference": reference}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
