"""The one JSON codec: typed values to JSON and back.

Every result, work unit and persisted artifact reaches disk or the wire
through this module.  :func:`to_json` turns a value into JSON-native
data: a dataclass becomes an object of its fields (in declaration
order), a dict with only ``str`` keys an object, any other dict a list
of ``[key, value]`` pairs, a tuple a list.  Dict order is kept, since
what sums over a value's dicts depends on it.  Values typed ``object``
must already be JSON-native.

:func:`decoder` is the inverse, guided by the declared type.  It is
built once per type, as one closure per field, and is strict: the data
comes from outside the program, so anything but exactly the declared
fields with the declared types is an error, and nothing but the
declared dataclasses is ever built.  A number never decodes from a
bool; a ``float`` may hold an int, which is kept as it is, so a decoded
value encodes to the same bytes again.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import typing
from typing import Any, Callable, Union

Decoder = Callable[[Any], Any]


class DecodeError(ValueError):
    """JSON data that is not a value of the declared type."""


#: Types :func:`to_json` passes through without a call per value.
_LEAVES = frozenset((str, int, float, bool, type(None)))


def to_json(value: Any) -> Any:
    """``value`` as JSON-native data (see the module docstring)."""
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {key: to_json(item) for key, item in value.items()}
        return [[to_json(key), to_json(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _LEAVES else to_json(item) for item in value]
    return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}


def dumps(value: Any) -> str:
    """Compact, deterministic JSON text of ``value``."""
    return json.dumps(to_json(value), separators=(",", ":"))


def decode(data: Any, tp: Any) -> Any:
    """The ``tp`` held in JSON-native ``data``, else :class:`DecodeError`.

    Any failure counts, a dataclass's own validation included: the data
    comes from outside the program and may fail arbitrarily.
    """
    try:
        return decoder(tp)(data)
    except Exception as exc:  # noqa: BLE001 - untrusted input fails arbitrarily
        raise DecodeError(f"not a {getattr(tp, '__name__', tp)} ({exc})") from None


def loads(text: Union[str, bytes], tp: Any) -> Any:
    """:func:`decode` of JSON ``text`` (text that is not JSON included)."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise DecodeError(f"not a {getattr(tp, '__name__', tp)} ({exc})") from None
    return decode(data, tp)


#: The exact JSON types a declared scalar may decode from.
_SCALARS = {
    int: frozenset((int,)), float: frozenset((int, float)),
    str: frozenset((str,)), bool: frozenset((bool,)),
}


@functools.lru_cache(maxsize=None)
def decoder(tp: Any) -> Decoder:
    """The function turning :func:`to_json` data back into a ``tp``."""
    if tp in _SCALARS:
        return _scalar(tp)
    if tp is object:
        return _identity
    if dataclasses.is_dataclass(tp):
        return _dataclass(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:
        arms = [arg for arg in args if arg is not type(None)]
        if len(arms) != 1 or len(args) != 2:
            raise DecodeError(f"no decoding for declared type {tp}")
        inner = decoder(arms[0])
        return lambda value: None if value is None else inner(value)
    if origin is dict:
        return _dict(tp, *args)
    if origin is list:
        return _sequence(tp, list, args[0])
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(tp, tuple, args[0])
    if origin is tuple:
        return _fixed_tuple(tp, args)
    raise DecodeError(f"no decoding for declared type {tp}")


def _identity(value: Any) -> Any:
    return value


def _mismatch(tp: Any, value: Any) -> DecodeError:
    return DecodeError(f"expected {tp}, found {type(value).__name__}")


def _scalar(tp: Any) -> Decoder:
    accepted = _SCALARS[tp]

    def decode(value: Any) -> Any:
        if type(value) not in accepted:
            raise _mismatch(tp, value)
        return value

    return decode


def _dataclass(tp: Any) -> Decoder:
    hints = typing.get_type_hints(tp)
    fields = [(f.name, decoder(hints[f.name])) for f in dataclasses.fields(tp)]
    names = {name for name, _ in fields}

    def decode(value: Any) -> Any:
        if type(value) is not dict or value.keys() != names:
            raise DecodeError(f"fields of {tp.__name__} do not match")
        return tp(**{name: field(value[name]) for name, field in fields})

    return decode


def _dict(tp: Any, key_type: Any, item_type: Any) -> Decoder:
    key, item = decoder(key_type), decoder(item_type)

    def decode(value: Any) -> Any:
        if type(value) is dict:
            pairs = value.items()
        elif type(value) is list:
            pairs = value
        else:
            raise _mismatch(tp, value)
        return {key(k): item(v) for k, v in pairs}

    return decode


def _sequence(tp: Any, build: type, item_type: Any) -> Decoder:
    if item_type in _SCALARS:
        accepted = _SCALARS[item_type]

        def decode(value: Any) -> Any:
            # Scalar items need only a type check each: no call per item.
            if type(value) is not list or not accepted.issuperset(map(type, value)):
                raise _mismatch(tp, value)
            return value if build is list else build(value)

        return decode
    item = decoder(item_type)

    def decode(value: Any) -> Any:
        if type(value) is not list:
            raise _mismatch(tp, value)
        decoded = [item(element) for element in value]
        return decoded if build is list else build(decoded)

    return decode


def _fixed_tuple(tp: Any, args: tuple) -> Decoder:
    if all(arg in _SCALARS for arg in args):
        # E.g. a (router, port) key: one check of its item types.
        shapes = set(itertools.product(*(_SCALARS[arg] for arg in args)))

        def decode_scalars(value: Any) -> Any:
            if type(value) is not list or tuple(map(type, value)) not in shapes:
                raise _mismatch(tp, value)
            return tuple(value)

        return decode_scalars
    items = [decoder(arg) for arg in args]

    def decode(value: Any) -> Any:
        if type(value) is not list or len(value) != len(items):
            raise _mismatch(tp, value)
        return tuple(item(element) for item, element in zip(items, value))

    return decode
