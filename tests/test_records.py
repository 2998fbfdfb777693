from fractions import Fraction as F

import pytest

from umbralcalc.expressions import Atom, Call, Dot, Sum
from umbralcalc.parser import Token
from umbralcalc.poly import Poly
from umbralcalc.records import Record
from umbralcalc.sequences import RecurrenceSolution
from umbralcalc.sheffer import ConnectionConstants, PolySequence, ShefferPair
from umbralcalc.umbra import bell_umbra, singleton

a, b = Atom("a"), Atom("b")


def test_equality_is_by_class_and_fields():
    assert Sum(a, b) == Sum(Atom("a"), Atom("b"))
    assert Sum(a, b) != Dot(a, b)
    assert Sum(a, b) != Sum(b, a)
    assert Sum(a, b) != (a, b)


def test_equal_records_hash_equal():
    assert Atom("a") == Atom("a", 0) == Atom(name="a", primes=0)
    assert hash(Atom("a")) == hash(Atom("a", 0)) == hash(("a", 0))
    assert len({Sum(a, b), Sum(Atom("a"), Atom("b")), Dot(a, b)}) == 2


def test_fields_are_frozen():
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(AttributeError):
        del a.primes
    with pytest.raises(AttributeError):
        a.extra = 1  # slotted: no other attribute either
    assert a == Atom("a", 0)


def test_keyword_construction():
    matrix = ((F(1),),)
    cc = ConnectionConstants(matrix, verified=True)
    assert (cc.matrix, cc.verified) == (matrix, True)
    assert cc == ConnectionConstants(matrix=matrix, verified=True)
    assert Token(kind="EOF", lexeme="", offset=3) == Token("EOF", "", 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Atom(),
        lambda: Atom("a", 0, 1),
        lambda: Atom("a", name="b"),
        lambda: Atom("a", prime=1),
    ],
)
def test_construction_refuses_missing_extra_or_repeated_fields(make):
    with pytest.raises(TypeError):
        make()


def test_defaults_are_made_per_instance():
    seq = PolySequence((Poly(1),))
    first, second = RecurrenceSolution("s", seq, ()), RecurrenceSolution("s", seq, ())
    assert first.notes == second.notes == {}
    assert first.notes is not second.notes
    assert Atom("a").primes == 0


def test_post_init_runs():
    seq = PolySequence((1, Poly({(1, 0): 1})))
    assert all(isinstance(p, Poly) for p in seq.polys)
    with pytest.raises(ValueError):
        PolySequence((Poly(2),))
    with pytest.raises(ValueError):
        ShefferPair(bell_umbra(2), singleton(3))


def test_repr_is_the_dataclass_form():
    assert repr(Atom("a")) == "Atom(name='a', primes=0)"
    assert repr(Call("inv", (a,))) == "Call(op='inv', args=(Atom(name='a', primes=0),))"
    assert repr(Token("NAME", "u", 0)) == "Token(kind='NAME', lexeme='u', offset=0)"


def test_fields_come_from_slots_base_first():
    class Base(Record):
        __slots__ = ("p",)

    class Child(Base):
        __slots__ = ("q",)
        _defaults = {"q": list}

    child = Child(1)
    assert (child.p, child.q) == (1, [])
    assert repr(child).endswith("Child(p=1, q=[])")
    assert not hasattr(child, "__dict__")
