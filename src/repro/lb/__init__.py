"""Load balancing heuristics: No-LB baseline, MLT, and KC (k-choices).

``parse_spec("balancer", "mlt:fraction=0.5")`` builds a heuristic from a
compact spec string — the ablation hook the CLI and bench harnesses use
to sweep balancer parameters (``"mlt:fraction=0.5"``, ``"kc:k=8"``)
without constructing objects in calling code.  The kinds are one table of
the shared grammar (:class:`repro.util.specs.Grammar`), registered as the
``"balancer"`` kind of the spec registry and raising
:class:`BalancerSpecError`.  The kind has no signature surface:
:meth:`repro.experiments.config.ExperimentConfig.signature` names a
balancer by its class and public constructor state.
"""

from __future__ import annotations

from ..util.specs import Grammar, Kind, SpecError, register_spec_kind
from .base import LoadBalancer
from .kchoices import KChoices
from .mlt import MLT, SplitDecision, best_split
from .nolb import NoLB

__all__ = [
    "LoadBalancer", "NoLB", "MLT", "KChoices", "best_split", "SplitDecision",
    "BalancerSpecError",
]


class BalancerSpecError(SpecError):
    """A balancer spec that cannot be parsed or validated."""


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _mlt(fraction: float = 1.0, allow_empty: object = False) -> MLT:
    """``mlt:fraction=F:allow_empty=FLAG`` (a flag is 1/0, true/false or
    yes/no)."""
    flag = _FLAGS.get(str(allow_empty).lower())
    if flag is None:
        raise ValueError(f"allow_empty {allow_empty!r} is not one of {', '.join(_FLAGS)}")
    return MLT(float(fraction), flag)


_KINDS = Grammar("balancer spec", BalancerSpecError, {
    "nolb": Kind(NoLB),
    "mlt": Kind(_mlt, text=("allow_empty",)),
    "kc": Kind(KChoices),
    "kchoices": Kind(KChoices),
})


def _parse_balancer(spec: object) -> LoadBalancer:
    """Build a balancer from ``name[:key=value...]`` (the ``"balancer"``
    kind of :func:`repro.util.specs.parse_spec`).

    Names are case-insensitive: ``nolb``, ``mlt``, ``kc`` (alias
    ``kchoices``).  Options are the constructors' parameters:
    ``mlt:fraction=0.5``, ``mlt:allow_empty=1``, ``kc:k=8``.
    """
    if isinstance(spec, LoadBalancer):
        return spec
    if isinstance(spec, str):
        name, sep, rest = spec.partition(":")
        spec = name.lower() + sep + rest
    return _KINDS.parse(spec)


register_spec_kind("balancer", _parse_balancer)
