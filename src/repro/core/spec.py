"""Plain-dict specs for the configuration dataclasses.

Loss models, bandwidth traces, estimators, ABR policies, fault plans and
dispatcher timeouts travel as JSON so sweep cells can be hashed, cached
and shipped to workers.  A family with several classes keeps a
``{kind: cls}`` dict next to them and its specs name the class in
``"kind"``; validation stays in each class's ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import Field, fields
from typing import Any, Mapping, Optional, Union


class ConfigError(ValueError):
    """A spec or configuration violates an invariant."""


def _spec_fields(cls: type) -> dict[str, Field]:
    """The fields a spec may set: constructor fields not named ``_*``."""
    return {f.name: f for f in fields(cls) if f.init and not f.name.startswith("_")}


def from_spec(
    kinds_or_cls: Union[Mapping[str, type], type],
    spec: Mapping[str, Any],
    default_kind: Optional[str] = None,
) -> Any:
    """Build a dataclass from ``spec``.

    With a ``{kind: cls}`` dict, the spec's ``"kind"`` (else
    ``default_kind``) picks the class.  A list becomes a tuple where the
    field's default is one.  Unknown kinds and fields raise ConfigError.
    """
    params = dict(spec)
    if isinstance(kinds_or_cls, Mapping):
        kind = params.pop("kind", default_kind)
        if kind not in kinds_or_cls:
            names = "/".join(cls.__name__ for cls in kinds_or_cls.values())
            raise ConfigError(f"unknown {names} kind {kind!r}, expected one of {sorted(kinds_or_cls)}")
        cls = kinds_or_cls[kind]
    else:
        cls = kinds_or_cls
    known = _spec_fields(cls)
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} field(s): {unknown}")
    for name, value in params.items():
        if isinstance(value, list) and isinstance(known[name].default, tuple):
            params[name] = tuple(value)
    return cls(**params)


def to_spec(obj: Any, kinds: Optional[Mapping[str, type]] = None) -> dict[str, Any]:
    """Inverse of :func:`from_spec`: ``None`` fields are left out, tuples
    become lists, and a callable field (no JSON can carry it) or a class
    missing from ``kinds`` raises ConfigError."""
    cls = type(obj)
    spec: dict[str, Any] = {}
    if kinds is not None:
        kind = next((name for name, member in kinds.items() if member is cls), None)
        if kind is None:
            raise ConfigError(f"{cls.__name__} is not one of the kinds {sorted(kinds)}")
        spec["kind"] = kind
    for name in _spec_fields(cls):
        value = getattr(obj, name)
        if value is None:
            continue
        if callable(value):
            raise ConfigError(
                f"{cls.__name__}.{name} is a callable and cannot be serialised to a spec"
            )
        spec[name] = list(value) if isinstance(value, tuple) else value
    return spec
