"""``python -m repro`` — the one subcommand table.

Usage::

    python -m repro bench --suite micro
    python -m repro paper --out out/paper
    python -m repro sweep --shard 0/4 --store /mnt/shared/repro-results
    python -m repro serve --peers 8 --demo

:data:`SUBCOMMANDS` own their options and are imported only when chosen,
so ``python -m repro serve`` loads the runtime and nothing of the
experiment stack.  Everything else — an artifact name (``fig4``), ``run``,
``list`` — goes to :func:`repro.experiments.cli.main`.
"""

import sys
from importlib import import_module

#: Subcommand -> (module, function taking the remaining argv).
SUBCOMMANDS = {
    "bench": ("repro.perf.bench", "main"),
    "paper": ("repro.sweeps.cli", "paper_main"),
    "serve": ("repro.net.serve", "main"),
    "sweep": ("repro.sweeps.cli", "sweep_main"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        module, function = SUBCOMMANDS[argv[0]]
        return getattr(import_module(module), function)(argv[1:])
    from .experiments.cli import main as experiments_main

    return experiments_main(argv)


if __name__ == "__main__":
    sys.exit(main())
