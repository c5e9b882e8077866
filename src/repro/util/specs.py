"""One spec surface: tokenisation, the parser registry, and ``SpecError``.

Every compact-spec syntax in the repository — workloads
(:mod:`repro.workloads.spec`), faults (:mod:`repro.faults.spec`), set
queries (:mod:`repro.workloads.queries`), balancers (:mod:`repro.lb`) and
transport chaos plans (:mod:`repro.net.chaos`) — parses through this
module, at two levels:

* **Tokenisation** (:func:`split_spec`, :func:`parse_options`,
  :func:`spec_helpers`): the shared ``name:key=value:...`` syntax, so
  grammar and error messages cannot drift between the surfaces.
* **The registry** (:func:`parse_spec` / :func:`spec_signature`): each
  spec *kind* registers its parser once (:func:`register_spec_kind`);
  callers name the kind and hand over any accepted value form (string,
  dict, constructed object) — ``parse_spec("workload", "zipf:1.2")``,
  ``parse_spec("faults", {"kind": "crash_storm", "rate": 0.05})``,
  ``parse_spec("balancer", "mlt:fraction=0.5")``,
  ``parse_spec("chaos", "drop:0.1+seed=3")``.  The kinds that enter a
  config's identity — workloads, faults, queries — also register a
  canonical signature function: the JSON structure
  :meth:`~repro.experiments.config.ExperimentConfig.signature` embeds and
  the sweep store hashes (:func:`repro.sweeps.plan.signature_hash`).

Every parse failure raises a subclass of :class:`SpecError` (itself a
``ValueError``, so pre-registry ``except ValueError`` callers keep
working) naming the offending spec.  The per-kind error classes —
``WorkloadSpecError``, ``FaultSpecError``, ``QuerySpecError``,
``BalancerSpecError``, ``ChaosSpecError`` — all derive from it, so one
``except SpecError`` guards any mixed configuration surface.

:func:`parse_spec` is the only entry point: the per-module parsers are
private to their modules and reachable through their kind alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


class SpecError(ValueError):
    """Base of every compact-spec parse/validation failure.

    Subclasses ``ValueError`` so callers written against the pre-registry
    per-module error types (which were bare ``ValueError`` subclasses)
    keep catching what they caught.
    """


class UnknownSpecKindError(SpecError):
    """``parse_spec`` was asked for a kind no module registered."""


# -- tokenisation ------------------------------------------------------------


def split_spec(spec: str) -> Tuple[str, List[str]]:
    """Split ``"name:tok1:tok2"`` into ``("name", ["tok1", "tok2"])``."""
    name, *rest = spec.split(":")
    return name, rest


def parse_options(tokens: List[str], spec: str, label: str = "spec") -> Dict[str, str]:
    """Parse ``key=value`` tokens into a string→string dict.

    Raises :class:`SpecError` naming the offending token and the full
    ``spec`` (prefixed with ``label`` for context).
    """
    options: Dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise SpecError(
                f"{label} {spec!r}: expected key=value, got {token!r}"
            )
        options[key] = value
    return options


def spec_helpers(label: str, error: type) -> Tuple[Callable, Callable, Callable]:
    """``(number, options, apply)`` bound to one spec surface: parse an
    int/float token, parse numeric ``key=value`` tokens, and call
    ``factory(**kwargs)`` — each failing with ``error`` (a :class:`SpecError`
    subclass) in a message prefixed by ``label`` and naming the ``spec``."""

    def number(token: str, spec: object) -> float:
        try:
            return int(token) if str(token).lstrip("+-").isdigit() else float(token)
        except ValueError:
            raise error(f"{label} {spec!r}: {token!r} is not a number") from None

    def options(tokens: List[str], spec: str) -> Dict[str, float]:
        try:
            raw = parse_options(tokens, spec, label=label)
        except ValueError as exc:
            raise error(str(exc)) from exc
        return {key: number(value, spec) for key, value in raw.items()}

    def apply(factory: Callable, kwargs: Dict[str, Any], spec: object) -> Any:
        try:
            return factory(**kwargs)
        except (TypeError, ValueError) as exc:
            raise error(f"{label} {spec!r}: {exc}") from exc

    return number, options, apply


# -- the parser registry -----------------------------------------------------


class _SpecKind:
    __slots__ = ("name", "parser", "signature")

    def __init__(self, name: str, parser: Callable, signature: Optional[Callable]):
        self.name = name
        self.parser = parser
        self.signature = signature


_REGISTRY: Dict[str, _SpecKind] = {}

#: Modules whose import registers the built-in kinds; loaded lazily so
#: this low-level module never imports the feature packages at import
#: time: it is part of the served runtime, which imports no NumPy
#: (tests/net/test_import_closure.py guards that closure).
_BUILTIN_PROVIDERS = (
    "repro.workloads.spec",
    "repro.workloads.queries",
    "repro.faults.spec",
    "repro.lb",
    "repro.net.chaos",
)


def register_spec_kind(
    name: str,
    parser: Callable[[object], Any],
    signature: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Register (or replace) the parser for one spec ``kind``.

    ``parser`` takes any accepted value form and returns the validated
    object (raising a :class:`SpecError` subclass otherwise);
    ``signature`` maps a parsed object to its canonical JSON-serialisable
    structure (``None`` when the kind has no signature surface).
    """
    _REGISTRY[name] = _SpecKind(name, parser, signature)


def _resolve(kind: str) -> _SpecKind:
    entry = _REGISTRY.get(kind)
    if entry is None:
        import importlib

        for module in _BUILTIN_PROVIDERS:
            importlib.import_module(module)
        entry = _REGISTRY.get(kind)
    if entry is None:
        raise UnknownSpecKindError(
            f"unknown spec kind {kind!r} (registered: {', '.join(spec_kinds())})"
        )
    return entry


def spec_kinds() -> List[str]:
    """The registered spec kinds (importing the built-in providers)."""
    import importlib

    for module in _BUILTIN_PROVIDERS:
        importlib.import_module(module)
    return sorted(_REGISTRY)


def parse_spec(kind: str, value: object) -> Any:
    """Parse ``value`` as a ``kind`` spec through the registry.

    The single entry point behind every compact-spec surface::

        parse_spec("workload", "zipf:1.2")        -> WorkloadSchedule
        parse_spec("faults", "crash_storm:0.02")  -> FaultPlan
        parse_spec("queries", "mixed:n=4")        -> QueryWorkload
        parse_spec("balancer", "mlt:fraction=0.5") -> LoadBalancer

    Raises :class:`UnknownSpecKindError` for an unregistered kind and the
    kind's own :class:`SpecError` subclass for a bad value.
    """
    return _resolve(kind).parser(value)


def spec_signature(kind: str, parsed: Any) -> Any:
    """The canonical JSON-serialisable signature of a parsed ``kind`` spec.

    Uniform across kinds: this is what :class:`~repro.experiments.config.
    ExperimentConfig.signature` embeds and what the sweep store hashes.
    Raises :class:`SpecError` for a kind registered without a signature
    (``balancer``, ``chaos``).
    """
    entry = _resolve(kind)
    if entry.signature is None:
        raise SpecError(f"spec kind {kind!r} has no signature surface")
    return entry.signature(parsed)

