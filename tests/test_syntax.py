import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdkripke.errors import ParseError, UsageError
from cdkripke.syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Sequent,
    formula_depth,
    free_vars,
    parse_formula,
    parse_sequent,
    predicate_shape,
    predicates,
    print_formula,
    print_sequent,
)
from cdkripke.truthfn import standard_signature

SIG = standard_signature("and", "or", "implies", "nand", "xor", "not", "top")


class TestFreeVars:
    def test_atom(self):
        assert free_vars(Atom("p", ("x", "y"))) == {"x", "y"}

    def test_binder_removes_variable(self):
        assert free_vars(Forall("x", Atom("p", ("x", "y")))) == {"y"}

    def test_union_clause(self):
        # c(p(x), exists x. q(x)) keeps the x free in the first argument
        f = Conn("and", (Atom("p", ("x",)), Exists("x", Atom("q", ("x",)))))
        assert free_vars(f) == {"x"}

    def test_sequent_free_vars(self):
        s = Sequent([Atom("p", ("x",))], [Exists("y", Atom("q", ("y",)))])
        assert free_vars(s) == {"x"}


class TestPropositional:
    def test_zero_ary_connective_formula(self):
        assert predicate_shape(Conn("and", (Atom("p"), Atom("q"))))[1]

    def test_unary_predicate_is_not(self):
        assert not predicate_shape(Atom("p", ("x",)))[1]

    def test_quantifier_over_propositional_body_is_not(self):
        assert not predicate_shape(Forall("x", Atom("p")))[1]


class TestParser:
    def test_connective_application(self):
        assert parse_formula("nand(p, q)", SIG) == Conn("nand", (Atom("p"), Atom("q")))

    def test_quantifier(self):
        assert parse_formula("forall x. P(x)", SIG) == Forall("x", Atom("P", ("x",)))

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_formula("nand(p)", SIG)

    def test_zero_ary_connective(self):
        assert parse_formula("top", SIG) == Conn("top", ())

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("nand(p,  ?)", SIG)
        assert err.value.position == 9

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("p q", SIG)

    def test_predicate_arity_consistency(self):
        with pytest.raises(ParseError):
            parse_sequent("P(x) => P(x, y)", SIG)

    def test_connective_cannot_be_variable(self):
        with pytest.raises(ParseError):
            parse_formula("P(nand)", SIG)

    def test_sequent_sides_optional(self):
        s = parse_sequent("=> p", SIG)
        assert not s.antecedent and s.succedent == frozenset({Atom("p")})
        s = parse_sequent("p =>", SIG)
        assert not s.succedent
        s = parse_sequent("=>", SIG)
        assert not s.antecedent and not s.succedent

    def test_sequent_sides_are_sets(self):
        assert parse_sequent("p, q => r", SIG) == parse_sequent("q, p, q => r", SIG)

    def test_print_parse_identity_up_to_whitespace(self):
        text = "nand(  nand(p ,p),nand( p,p) )"
        f = parse_formula(text, SIG)
        assert parse_formula(print_formula(f), SIG) == f
        assert print_formula(f) == "nand(nand(p, p), nand(p, p))"


formula_strategy = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Atom("P", ("x",)), Atom("Qn", ("x", "y"))]),
        st.builds(lambda f: Conn("not", (f,)), formula_strategy),
        st.builds(lambda f, g: Conn("and", (f, g)), formula_strategy, formula_strategy),
        st.builds(lambda f, g: Conn("xor", (f, g)), formula_strategy, formula_strategy),
        st.builds(lambda f: Forall("x", f), formula_strategy),
        st.builds(lambda f: Exists("y", f), formula_strategy),
    )
)


class TestRoundTrip:
    @given(formula_strategy)
    def test_parse_print_round_trip(self, f):
        assert parse_formula(print_formula(f), SIG) == f

    @given(st.lists(formula_strategy, max_size=2), st.lists(formula_strategy, max_size=2))
    def test_sequent_round_trip(self, gamma, delta):
        s = Sequent(gamma, delta)
        assert parse_sequent(print_sequent(s), SIG) == s


class TestMisc:
    def test_depth(self):
        assert formula_depth(Atom("p")) == 1
        assert formula_depth(Conn("and", (Atom("p"), Atom("q")))) == 2
        assert formula_depth(Forall("x", Conn("not", (Atom("P", ("x",)),)))) == 3

    def test_predicates_map(self):
        s = parse_sequent("P(x), p => exists y. Qn(x, y)", SIG)
        assert predicates(s) == {"P": 1, "p": 0, "Qn": 2}

    def test_predicates_arity_clash(self):
        f = Conn("and", (Atom("p"), Atom("p", ("x",))))
        with pytest.raises(UsageError):
            predicates(f)

    def test_structural_equality_and_hash(self):
        f = Conn("and", (Atom("p"), Atom("q")))
        g = Conn("and", (Atom("p"), Atom("q")))
        assert f == g and hash(f) == hash(g)
        assert f != Conn("and", (Atom("q"), Atom("p")))
