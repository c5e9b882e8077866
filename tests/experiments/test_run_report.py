"""The ``repro run`` report, pinned as text.

One run with two schedule phases, a crash storm and a set-query axis
reaches every block of the report: the phase table, the total line, the
``faults:`` summary and the ``queries:`` summary.  Only the wall-time token
of the total line varies between runs, so it is masked before comparing.
"""

from __future__ import annotations

import re

from repro.experiments.cli import main

ARGV = [
    "run", "--workload", "figure8", "--units", "60", "--growth", "10",
    "--peers", "20", "--queries", "mixed", "--faults", "crash_storm:0.05",
]

EXPECTED = """\
# NoLB | stable network | load=10% | 20 peers | 729 keys | 60 units | workload=phased[uniform,hotspot:S3L,hotspot:P,uniform] | faults=crash_storm:0.05 (r=1, repair_every=1)

      phase     units   issued   sat%   hops   p95   p99  imbal   migr
----------------------------------------------------------------------
    uniform      0-40      463   90.7   7.83    11    11   4.82      0
hotspot:S3L     40-60       21  100.0   8.57    11    12   1.05      0

total: 441/484 satisfied (91.1%) in N.Ns

faults:
  crashes: 19 | partitioned peer-units: 0
  keys lost: 781 | recovered from replicas: 662 | unrecoverable: 119
  repair cost: 4189 re-registrations (220.5/crash)
  time-to-repair p95: 0 units
  key availability: mean 86.6% | final 83.7%
  lookup-failure rate: 8.9% of requests

queries:
  issued: 240 | satisfied: 55 (22.9%) | results: 3842
  hops/query: 6.96 logical, 1.33 physical | logical p95: 11
"""


def test_run_report_is_pinned(capsys):
    assert main(ARGV) == 0
    out = re.sub(r" in \d+\.\ds$", " in N.Ns", capsys.readouterr().out, flags=re.M)
    assert out == EXPECTED
