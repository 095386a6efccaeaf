"""The one class builder (`syntax.frozen`): every syntax node, realizer,
proof term and engine record behaves as a frozen slotted dataclass would,
and no method of any class in those modules is generated from source."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from cgl import engine as E
from cgl import proofterms as P
from cgl import realizer as R
from cgl import syntax as S

MODULES = (S, R, P, E)

# a value for a field of each annotation the builder's classes use
SAMPLES = {
    "str": "x",
    "Rational": 3,
    "Term": S.Var("x"),
    "Formula": S.TRUE,
    "Game": S.Test(S.TRUE),
    "tuple[Game, ...]": (S.Test(S.TRUE),),
    "Realizer": R.Unit(),
    "ProofTerm": P.PVar("p"),
    "Optional[ProofTerm]": P.PVar("q"),
    "State": S.State({"x": 1}),
    "'Closure'": E.Closure(R.Unit(), {}),
    "object": "outcome",
    "tuple": ("step",),
}


def _classes(module):
    return list(dict.fromkeys(c for c in vars(module).values()
                              if inspect.isclass(c) and c.__module__ == module.__name__))


BUILT = [c for m in MODULES for c in _classes(m) if dataclasses.is_dataclass(c)]
NODES = [c for c in BUILT if issubclass(c, S._Node)]
VALUES = [c for c in BUILT if not issubclass(c, S._Node)]


def _args(cls) -> list:
    return ["<" if f == "rel" else SAMPLES[ann] for f, ann in S.FIELDS[cls]]


def _ids(classes):
    return [c.__name__ for c in classes]


def test_every_node_proof_term_and_record_is_built():
    for base in (S.Term, S.Game, S.Formula, R.Realizer, P.ProofTerm):
        subclasses = {c for m in MODULES for c in _classes(m) if issubclass(c, base) and c is not base}
        assert subclasses and subclasses <= set(BUILT)
    assert {E.Finished, E.AngelViolation, E.DemonViolation, E.FuelOut, E.CounterExample} <= set(BUILT)
    assert set(BUILT) <= set(S.FIELDS)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_method_is_generated_from_source(module):
    for cls in _classes(module):
        for name, attr in vars(cls).items():
            fn = getattr(attr, "__func__", attr)  # a static or class method
            code = getattr(fn, "__code__", None)
            assert code is None or code.co_filename != "<string>", f"{cls.__name__}.{name}"


@pytest.mark.parametrize("cls", BUILT, ids=_ids(BUILT))
def test_fields_frozenness_and_repr(cls):
    x = cls(*_args(cls))
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert names == cls.__match_args__ == tuple(f for f, _ in S.FIELDS[cls])
    assert dataclasses.is_dataclass(x)
    for f in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f)
    if cls not in (S.Lit, S.Var):  # they print their value bare
        inner = ", ".join(f"{f}={getattr(x, f)!r}" for f in names)
        assert repr(x) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("cls", BUILT, ids=_ids(BUILT))
def test_keywords_and_argument_counts(cls):
    args = _args(cls)
    x = cls(*args)
    by_name = cls(**dict(zip(cls.__match_args__, args)))
    mixed = cls(*args[:1], **dict(zip(cls.__match_args__[1:], args[1:])))
    if issubclass(cls, S._Node):
        assert by_name is x and mixed is x
    else:
        assert by_name == x and mixed == x
    assert dataclasses.replace(x) == x
    with pytest.raises(TypeError):
        cls(*args, "extra")
    if args:
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args[:-1], nonsense=1)
        with pytest.raises(TypeError):
            cls(*args, **{cls.__match_args__[0]: args[0]})


@pytest.mark.parametrize("cls", NODES, ids=_ids(NODES))
def test_a_node_copies_and_pickles_as_itself(cls):
    x = cls(*_args(cls))
    assert x == cls(*_args(cls)) and x is cls(*_args(cls))
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x


@pytest.mark.parametrize("cls", VALUES, ids=_ids(VALUES))
def test_a_value_compares_hashes_and_copies_by_its_fields(cls):
    x, twin = cls(*_args(cls)), cls(*_args(cls))
    assert x is not twin and x == twin and not x != twin
    assert hash(x) == hash(twin) == hash(tuple(getattr(x, f) for f in cls.__match_args__))
    assert x != tuple(getattr(x, f) for f in cls.__match_args__)
    copies = [copy.copy(x)]
    if issubclass(cls, P.ProofTerm):  # a record's closure equals only itself
        copies += [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    for y in copies:
        assert type(y) is cls and y == x


def test_a_proof_term_differs_in_any_field():
    m = P.Lam("h", S.TRUE, P.PVar("h"))
    assert m != P.Lam("g", S.TRUE, P.PVar("h"))
    assert m != P.Lam("h", S.FALSE, P.PVar("h"))
    assert m != P.Lam("h", S.TRUE, P.PVar("g"))
    assert m == P.Lam("h", S.TRUE, P.PVar("h"))


def test_post_init_runs_on_the_positional_path():
    with pytest.raises(ValueError):
        S.Cmp(S.Var("x"), "~", S.lit(1))
    with pytest.raises(ValueError):
        S.Cmp(left=S.Var("x"), rel="~", right=S.lit(1))
