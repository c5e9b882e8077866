"""Experiment harnesses regenerating every figure and table of the paper."""

from .ascii_plot import ascii_plot
from .config import ExperimentConfig
from .figures import ALL_FIGURES, FigureResult, figure4, figure5, figure6, figure7, figure8, figure9
from .metrics import ExperimentSeries, RunResult, UnitStats, gain_table_row
from .runner import compare_balancers, run_labeled_series, run_many, run_single
from .tables import Table1Result, Table2Result, table1, table2

__all__ = [
    "ExperimentConfig", "run_single", "run_many", "compare_balancers",
    "run_labeled_series",
    "RunResult", "UnitStats", "ExperimentSeries", "gain_table_row",
    "FigureResult", "figure4", "figure5", "figure6", "figure7", "figure8",
    "figure9", "ALL_FIGURES",
    "table1", "table2", "Table1Result", "Table2Result",
    "ascii_plot",
]
