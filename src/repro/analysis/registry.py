"""Experiment registry: one named entry per paper table / figure runner.

Historically every consumer (benchmarks, examples, ad-hoc scripts) imported
the ``run_*`` functions from :mod:`repro.analysis.experiments` directly.
The registry gives them a single name→callable API instead, which is what
lets the scenario sweep engine (:mod:`repro.analysis.sweeps`) fan any
experiment out across a process pool: workers receive only the experiment
*name* plus a JSON scenario and rebuild everything locally.

Runners register themselves with the :func:`experiment` decorator.  A spec
records the callable and a short description.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment runner.

    ``accepted_kwargs`` is derived from the runner's signature and used to
    filter scenario-derived kwargs so that a scenario carrying e.g. a
    bandwidth trace can still drive an experiment that has no use for one.
    """

    name: str
    fn: Callable[..., Any]
    description: str = ""
    accepted_kwargs: frozenset[str] = frozenset()

    def supported(self, kwargs: dict[str, Any]) -> dict[str, Any]:
        """The subset of ``kwargs`` this runner's signature accepts."""
        return {k: v for k, v in kwargs.items() if k in self.accepted_kwargs}

    def run(self, **kwargs: Any) -> Any:
        return self.fn(**self.supported(kwargs))


_REGISTRY: dict[str, ExperimentSpec] = {}


def experiment(
    name: str, description: str = ""
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a runner under ``name``.

    The wrapped function is returned unchanged, so direct imports keep
    working exactly as before the registry existed.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} registered twice")
        params = inspect.signature(fn).parameters
        accepted = frozenset(
            p.name
            for p in params.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            fn=fn,
            description=description or (doc_lines[0] if doc_lines else ""),
            accepted_kwargs=accepted,
        )
        return fn

    return decorate


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment; raises ``KeyError`` with suggestions."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; registered: {known}") from None


def run_experiment(name: str, **kwargs: Any) -> Any:
    """Run a registered experiment with signature-filtered kwargs."""
    return get_experiment(name).run(**kwargs)


def _ensure_registered() -> None:
    """Import the runner module so its decorators have executed.

    Worker processes import this module fresh; touching
    ``repro.analysis.experiments`` populates the registry as a side effect.
    """
    from . import experiments  # reprolint: disable=unused-import
