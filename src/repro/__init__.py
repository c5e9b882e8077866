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

#: Each public name and the submodule that owns it, imported on first use
#: (PEP 562), so ``import repro.net.serve`` loads the runtime and nothing
#: of the macro model, the balancers or NumPy.
_EXPORTS = {
    "Alphabet": ".core.alphabet",
    "BINARY": ".core.alphabet",
    "PRINTABLE": ".core.alphabet",
    "PGCPTree": ".core.pgcp",
    "ExactQuery": ".core.queries",
    "PrefixQuery": ".core.queries",
    "RangeQuery": ".core.queries",
    "MultiAttributeQuery": ".core.queries",
    "DLPTSystem": ".dlpt.system",
    "DiscoveryService": ".dlpt.service",
    "ServiceRecord": ".dlpt.service",
    "MLT": ".lb.mlt",
    "KChoices": ".lb.kchoices",
    "NoLB": ".lb.nolb",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value
