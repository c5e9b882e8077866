"""One spec grammar and one spec registry; ``SpecError``.

Every compact spec — workloads (:mod:`repro.workloads.spec`), faults
(:mod:`repro.faults.spec`), set-query workloads
(:mod:`repro.workloads.queries`), single set queries and their trace
events (:mod:`repro.core.queries`), balancers (:mod:`repro.lb`), chaos
plans (:mod:`repro.net.chaos`) — parses here, at two levels:

* **The grammar** (:class:`Grammar`): a string
  ``kind[:positional…][:key=value…]`` is split once into its kind, its
  positional tokens and its options, and the dict form
  ``{"kind": k, **fields}`` names the same fields.  A surface is a table
  of :class:`Kind` rows.  A ``VALUE@UNIT`` token fills two positionals
  where the row joins them with ``@``; every other token is a number by
  one rule (``zipf:1`` keeps ``s == 1`` an ``int``) unless its field
  stays text.  An unknown kind, a missing required positional, an extra
  positional, an unknown option and a bad number are refused with the
  surface's :class:`SpecError` subclass, naming the spec: no token is
  dropped.  A list of every positional's value, in order, is a third
  form of the same row (:meth:`Grammar.build_positional`: a set query's
  trace event).
* **The registry**: each spec kind registers its parser once
  (:func:`register_spec_kind`), and :func:`parse_spec` — the only entry
  point — takes any accepted form (string, dict, built object):
  ``parse_spec("chaos", "drop:0.1+seed=3")``.  The kinds that enter a
  config's identity (workloads, faults, queries) also register the
  signature :meth:`~repro.experiments.config.ExperimentConfig.signature`
  embeds and the sweep store hashes (:func:`spec_signature`).

Standard library only: the served runtime parses ``--chaos`` here.
"""

from __future__ import annotations

import inspect
import re
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class SpecError(ValueError):
    """Base of every compact-spec failure; each surface raises its own
    subclass (``WorkloadSpecError``, ``FaultSpecError``, ...), so one
    ``except SpecError`` guards a mixed configuration surface."""


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


# -- the grammar -------------------------------------------------------------


class Kind(NamedTuple):
    """One row of a surface's kind table.

    ``build(**fields)`` constructs the kind; its parameters are the
    fields a spec may name.  ``positional`` names the fields the
    positional tokens fill, in order, joined by ``:`` or ``@`` as the
    tokens must be (``"prefix:intensity"``, ``"duration@at"``); the first
    ``required`` of them must be given.  ``text`` names the fields whose
    tokens stay strings instead of numbers.
    """

    build: Callable[..., Any]
    positional: str = ""
    required: int = 0
    text: Tuple[str, ...] = ()


class Grammar:
    """One spec surface: its ``label`` (``"workload spec"``), its
    :class:`SpecError` subclass, its :class:`Kind` table, and the
    ``shared`` options its every kind takes but the surface handles
    itself (faults' top-level policy, chaos's plan-wide seed)."""

    def __init__(self, label: str, error: type, kinds: Dict[str, Kind],
                 shared: Tuple[str, ...] = (), noun: str = "kind") -> None:
        self.label, self.exc, self.kinds, self.noun = label, error, kinds, noun
        self.shared = frozenset(shared)
        self._names = {  # the fields a kind takes: its constructor's parameters
            name: frozenset(
                p.name for p in inspect.signature(row.build).parameters.values()
                if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            )
            for name, row in kinds.items()
        }

    def error(self, spec: object, message: str) -> SpecError:
        """The surface's error for ``spec``, to raise."""
        return self.exc(f"{self.label} {spec!r}: {message}")

    def _row(self, kind: Any, spec: object) -> Kind:
        if not isinstance(kind, str) or kind not in self.kinds:
            raise self.error(spec, f"unknown {self.noun} {kind!r} "
                                   f"(known {self.noun}s: {', '.join(self.kinds)})")
        return self.kinds[kind]

    def _check_names(self, kind: str, names: Any, spec: object, allowed: frozenset) -> None:
        unknown = set(names) - allowed
        if unknown:
            raise self.error(spec, f"unknown option(s) {', '.join(sorted(unknown))} for "
                                   f"{kind} (known: {', '.join(sorted(allowed)) or 'none'})")

    def _usage(self, kind: str) -> str:
        """``kind`` with its positionals, optional ones bracketed:
        ``"partition:DURATION[@AT]"``."""
        row, text = self.kinds[kind], kind
        for i, (sep, name) in enumerate(re.findall(r"([:@]?)(\w+)", row.positional)):
            piece = (sep or ":") + name.upper()
            text += piece if i < row.required else f"[{piece}]"
        return text

    def _number(self, name: str, token: str, spec: object) -> float:
        """The one number rule: an integer token is an ``int``, any other
        a ``float``."""
        try:
            return int(token) if token.lstrip("+-").isdigit() else float(token)
        except ValueError:
            raise self.error(
                spec, f"{name} {token!r} is not a number (an integer or a decimal)"
            ) from None

    def fields(self, spec: object) -> Tuple[Any, Dict[str, Any]]:
        """``(kind, fields)`` of a spec string or ``{"kind": k, ...}`` dict.

        A string's leading tokens without ``=`` are its positionals, the
        rest must be ``key=value`` options.  A string whose first token is
        an option has no kind (``""``): chaos's plan-wide ``seed=N``.
        """
        if isinstance(spec, dict):
            fields = dict(spec)
            return fields.pop("kind", None), fields
        if not isinstance(spec, str):
            raise self.error(spec, "expected a string or a {'kind': ...} dict")
        kind, tokens = split_spec(spec)
        if "=" in kind:
            kind, tokens = "", [kind, *tokens]
        row = self._row(kind, spec) if kind else Kind(dict)
        n = next((i for i, t in enumerate(tokens) if "=" in t), len(tokens))
        slots = [group.split("@") for group in row.positional.split(":")] if row.positional else []
        if n > len(slots):
            raise self.error(spec, f"unexpected {tokens[len(slots)]!r} (expected key=value)")
        raw: Dict[str, str] = {}
        for token, group in zip(tokens[:n], slots):
            raw.update(zip(group, token.split("@", len(group) - 1)))
        try:
            options = parse_options(tokens[n:], spec, self.label)
        except SpecError as exc:
            raise self.exc(str(exc)) from None
        for key, value in options.items():
            if key in raw:
                raise self.error(spec, f"{key} is given twice")
            raw[key] = value
        if kind:
            self._check_names(kind, raw, spec, self._names[kind] | self.shared)
        return kind, {k: v if k in row.text else self._number(k, v, spec) for k, v in raw.items()}

    def positionals(self, kind: str) -> List[str]:
        """The fields ``kind``'s positional tokens fill, in order."""
        positional = self.kinds[kind].positional
        return re.split("[:@]", positional) if positional else []

    def build(self, kind: Any, fields: Dict[str, Any], spec: object) -> Any:
        """Check ``fields`` against ``kind``'s row and construct it."""
        row = self._row(kind, spec)
        for name in self.positionals(kind)[: row.required]:
            if name not in fields:
                article = "an" if name[0] in "aeiou" else "a"
                raise self.error(spec, f"{kind} needs {article} {name} ({self._usage(kind)})")
        self._check_names(kind, fields, spec, self._names[kind])
        try:
            return row.build(**fields)
        except (AttributeError, TypeError, ValueError) as exc:  # a field of the wrong type
            raise self.error(spec, str(exc)) from exc

    def build_positional(self, kind: Any, values: List[Any], spec: object) -> Any:
        """Construct ``kind`` from the values of all its positional fields,
        in order (a trace event's form), by the checks of :meth:`build`."""
        self._row(kind, spec)
        names = self.positionals(kind)
        if len(values) != len(names):
            raise self.error(spec, f"{kind} takes {len(names)} value(s) ({self._usage(kind)})")
        return self.build(kind, dict(zip(names, values)), spec)

    def parse(self, spec: object) -> Any:
        """Build what a spec string or ``{"kind": ...}`` dict names."""
        return self.build(*self.fields(spec), spec)


# -- the parser registry -----------------------------------------------------


#: kind -> (parser, signature or None)
_REGISTRY: Dict[str, Tuple[Callable, Optional[Callable]]] = {}

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
    _REGISTRY[name] = (parser, signature)


def spec_kinds() -> List[str]:
    """The registered spec kinds (importing the built-in providers)."""
    import importlib

    for module in _BUILTIN_PROVIDERS:
        importlib.import_module(module)
    return sorted(_REGISTRY)


def _resolve(kind: str) -> Tuple[Callable, Optional[Callable]]:
    if kind not in _REGISTRY and kind not in spec_kinds():
        raise UnknownSpecKindError(
            f"unknown spec kind {kind!r} (registered: {', '.join(spec_kinds())})"
        )
    return _REGISTRY[kind]


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
    return _resolve(kind)[0](value)


def spec_signature(kind: str, parsed: Any) -> Any:
    """The canonical JSON-serialisable signature of a parsed ``kind`` spec.

    Uniform across kinds: this is what :class:`~repro.experiments.config.
    ExperimentConfig.signature` embeds and what the sweep store hashes.
    Raises :class:`SpecError` for a kind registered without a signature
    (``balancer``, ``chaos``).
    """
    signature = _resolve(kind)[1]
    if signature is None:
        raise SpecError(f"spec kind {kind!r} has no signature surface")
    return signature(parsed)

