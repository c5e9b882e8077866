"""repro - reproduction of *Efficiency of Tree-Structured Peer-to-Peer
Service Discovery Systems* (Caron, Desprez, Tedeschi; INRIA RR-6557, 2008).

The package implements the paper's DLPT overlay end-to-end:

* :mod:`repro.core` - identifier algebra and the reference PGCP tree
  (Definition 1) with completion/range/multi-attribute queries;
* :mod:`repro.sim` - the discrete-event engine (an event heap);
* :mod:`repro.peers` - the peer ring, capacities and churn models;
* :mod:`repro.dlpt` - the self-contained overlay: lexicographic mapping,
  request routing, the macro system, and the asynchronous Algorithms 1-3;
* :mod:`repro.lb` - load balancing: No-LB, MLT and KC (k-choices);
* :mod:`repro.dht` / :mod:`repro.baselines` - Chord, the DHT (random)
  mapping, PHT and P-Grid comparators;
* :mod:`repro.workloads` - grid service-name corpora and request models;
* :mod:`repro.experiments` - harnesses regenerating every figure and table.

Quickstart::

    import random
    from repro import DLPTSystem, DiscoveryService

    rng = random.Random(1)
    system = DLPTSystem()
    system.build(rng, n_peers=16)
    svc = DiscoveryService(system)
    svc.register("dgemm")
    svc.register("dgemv")
    print(svc.complete("dgem"))          # ['dgemm', 'dgemv']
    print(svc.discover("dgemm", rng=rng).satisfied)
"""

from .core.alphabet import BINARY, PRINTABLE, Alphabet
from .core.pgcp import PGCPTree
from .core.queries import ExactQuery, MultiAttributeQuery, PrefixQuery, RangeQuery
from .dlpt.service import DiscoveryService, ServiceRecord
from .dlpt.system import DLPTSystem
from .lb.kchoices import KChoices
from .lb.mlt import MLT
from .lb.nolb import NoLB

__version__ = "1.0.0"

__all__ = [
    "Alphabet",
    "BINARY",
    "PRINTABLE",
    "PGCPTree",
    "ExactQuery",
    "PrefixQuery",
    "RangeQuery",
    "MultiAttributeQuery",
    "DLPTSystem",
    "DiscoveryService",
    "ServiceRecord",
    "MLT",
    "KChoices",
    "NoLB",
    "__version__",
]
