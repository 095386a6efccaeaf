"""Tagged-tree JSON interchange for proof terms and strategy realizers.

Every node serializes as {"node": <constructor>, <field>: <value>, ...};
terms, formulas and games are carried as canonical surface strings, so
files stay reviewable and the parser is the single decoder.  Each field
is encoded and decoded by its annotation, read once per class.
"""

from __future__ import annotations

from functools import cache

from . import proofterms as P
from . import realizer as R
from .parser import parse_formula_text, parse_game_text, parse_term_text
from .printer import print_formula, print_game, print_term
from .syntax import FIELDS

# base class name -> its constructors by name
_NODES = {
    base.__name__: {cls.__name__: cls for cls in FIELDS if issubclass(cls, base)}
    for base in (P.ProofTerm, R.Realizer)
}
_LEAVES = {  # annotation -> (encode, decode)
    "str": (str, str),
    "Term": (print_term, parse_term_text),
    "Formula": (print_formula, parse_formula_text),
    "Game": (print_game, parse_game_text),
}


def _codec(ann: str):
    """(encode, decode) for a field annotated `ann`."""
    if ann.startswith("Optional["):
        enc, dec = _codec(ann[len("Optional["):-1])
        return (lambda v: v if v is None else enc(v)), (lambda d: d if d is None else dec(d))
    if ann == "tuple[Game, ...]":
        enc, dec = _LEAVES["Game"]
        return (lambda v: [enc(g) for g in v]), (lambda d: tuple(dec(g) for g in d))
    if ann in _NODES:
        nodes = _NODES[ann]
        return to_json, lambda d: _decode(nodes, d)
    return _LEAVES[ann]


@cache
def _fields(cls) -> tuple:
    """((name, encode, decode), ...) for each field of a node class."""
    return tuple((f, *_codec(ann)) for f, ann in FIELDS[cls])


def to_json(node):
    """The JSON tree of a proof term or a realizer."""
    out = {"node": type(node).__name__}
    for name, enc, _dec in _fields(type(node)):
        out[name] = enc(getattr(node, name))
    return out


def _decode(nodes, data):
    cls = nodes[data["node"]]
    return cls(*[dec(data[name]) for name, _enc, dec in _fields(cls)])


def proof_from_json(data) -> P.ProofTerm:
    return _decode(_NODES["ProofTerm"], data)


def realizer_from_json(data) -> R.Realizer:
    return _decode(_NODES["Realizer"], data)
