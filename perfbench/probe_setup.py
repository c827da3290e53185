"""Time one fresh process's set-up: import, config parse, partition and weights.

    python3 probe_setup.py <repository root> <config> [<solver override>]

Prints the seconds from interpreter start of this script to the end of the
set-up that precedes the first trial.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402


def main(argv) -> None:
    root, config = argv[1], argv[2]
    solvers = argv[3] if len(argv) > 3 and argv[3] else None
    sys.path.insert(0, f"{root}/src")
    from widescan.config import apply_overrides, parse_config
    from widescan.recovery import design_weights
    from widescan.spectrum import average_block_sparsity, make_block_partition

    cfg = apply_overrides(parse_config(f"{root}/{config}"), solvers=solvers)
    part = make_block_partition(cfg.n, cfg.block_sizes, cfg.block_probs)
    design_weights(average_block_sparsity(part))
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main(sys.argv)
