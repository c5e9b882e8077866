"""Experiment harnesses regenerating every figure and table of the paper.

:data:`ARTIFACTS` is the registry: one :class:`Artifact` declaration per
figure/table (``figures.FIGURES`` then ``tables.TABLES``, the order every
listing uses).  ``ARTIFACTS["fig4"].run(n_runs=2, n_peers=40)`` runs one
directly; ``python -m repro <name>``, the ``repro paper`` sweep plan and
builder, and the ``docs/reproduction.md`` gallery gate all read the same
entries.
"""

from .ascii_plot import ascii_plot
from .config import ExperimentConfig
from .figures import FIGURES, Artifact, FigureResult
from .metrics import ExperimentSeries, RunResult, UnitStats, gain_table_row
from .runner import compare_balancers, run_labeled_series, run_many, run_single
from .tables import TABLES, Table1Result, Table2Result

ARTIFACTS = {artifact.name: artifact for artifact in FIGURES + TABLES}

__all__ = [
    "ExperimentConfig", "run_single", "run_many", "compare_balancers",
    "run_labeled_series",
    "RunResult", "UnitStats", "ExperimentSeries", "gain_table_row",
    "ARTIFACTS", "Artifact", "FigureResult", "Table1Result", "Table2Result",
    "ascii_plot",
]
