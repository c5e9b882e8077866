"""Load balancing heuristics: No-LB baseline, MLT, and KC (k-choices).

``parse_spec("balancer", "mlt:fraction=0.5")`` builds a heuristic from a
compact spec string — the ablation hook the CLI and bench harnesses use
to sweep balancer parameters (``"mlt:fraction=0.5"``, ``"kc:k=8"``)
without constructing objects in calling code.  The parser registers here
as the ``"balancer"`` kind of the spec registry (:mod:`repro.util.specs`),
raising :class:`BalancerSpecError`.  The kind has no signature surface:
:meth:`repro.experiments.config.ExperimentConfig.signature` names a
balancer by its class and public constructor state.
"""

from __future__ import annotations

from ..util.specs import (
    SpecError,
    parse_options,
    register_spec_kind,
    split_spec,
)
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


def _parse_balancer(spec: object) -> LoadBalancer:
    """Build a balancer from ``name[:key=value...]`` (the ``"balancer"``
    kind of :func:`repro.util.specs.parse_spec`).

    Names (case-insensitive): ``nolb``, ``mlt``, ``kc`` (alias
    ``kchoices``).  Options map to the constructors: ``mlt:fraction=0.5``,
    ``mlt:allow_empty=1``, ``kc:k=8``.  Raises :class:`BalancerSpecError`
    (a :class:`ValueError`) naming the spec on any unknown name or option.
    """
    if isinstance(spec, LoadBalancer):
        return spec
    if not isinstance(spec, str):
        raise BalancerSpecError(
            f"balancer spec must be a string or a LoadBalancer, "
            f"got {type(spec).__name__}"
        )
    name, rest = split_spec(spec)
    try:
        options = parse_options(rest, spec, label="balancer spec")
    except SpecError as exc:
        raise BalancerSpecError(str(exc)) from exc
    lowered = name.lower()
    try:
        if lowered == "nolb":
            return NoLB(**options)
        if lowered == "mlt":
            if "fraction" in options:
                options["fraction"] = float(options["fraction"])
            if "allow_empty" in options:
                options["allow_empty"] = options["allow_empty"].lower() in ("1", "true", "yes")
            return MLT(**options)
        if lowered in ("kc", "kchoices"):
            if "k" in options:
                options["k"] = int(options["k"])
            return KChoices(**options)
    except (TypeError, ValueError) as exc:
        raise BalancerSpecError(f"balancer spec {spec!r}: {exc}") from exc
    raise BalancerSpecError(
        f"unknown balancer {name!r} in spec {spec!r} (known: nolb, mlt, kc)"
    )


register_spec_kind("balancer", _parse_balancer)
