import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdkripke.errors import ParseError, UsageError
from cdkripke.truthfn import (
    TruthTable,
    all_tables,
    classify_case,
    eval_table,
    index_vector,
    invert,
    leq_vec,
    monotonicity_witness,
    parse_signature,
    relative_invert,
    signature_text,
    standard_signature,
    standard_table,
    vector_index,
)

vectors = st.lists(st.sampled_from([0, 1]), min_size=0, max_size=6).map(tuple)


def all_vectors(n):
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=n)]


class TestOrder:
    def test_leq_examples(self):
        assert leq_vec((0, 0), (1, 0))
        assert not leq_vec((1, 0), (0, 1))
        assert leq_vec((0, 1, 0), (0, 1, 0))

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            leq_vec((0,), (0, 1))

    @pytest.mark.parametrize("n", range(5))
    def test_partial_order(self, n):
        vs = all_vectors(n)
        for a in vs:
            assert leq_vec(a, a)
        for a in vs:
            for b in vs:
                if leq_vec(a, b) and leq_vec(b, a):
                    assert a == b
        if n <= 3:
            for a in vs:
                for b in vs:
                    for c in vs:
                        if leq_vec(a, b) and leq_vec(b, c):
                            assert leq_vec(a, c)


class TestInversion:
    def test_invert_example(self):
        assert invert((0, 1, 0)) == (1, 0, 1)

    def test_invert_empty(self):
        assert invert(()) == ()

    @given(vectors)
    def test_involution(self, a):
        assert invert(invert(a)) == a

    def test_relative_invert_examples(self):
        assert relative_invert((0, 0), (1, 0)) == (0, 1)
        assert relative_invert((0, 0), (0, 0)) == (1, 1)
        assert relative_invert((1, 1), (1, 1)) == (1, 1)

    def test_relative_invert_requires_leq(self):
        with pytest.raises(UsageError):
            relative_invert((1, 0), (0, 1))

    @pytest.mark.parametrize("n", range(5))
    def test_relative_invert_matches_two_clause_definition(self, n):
        # independent oracle: the two-clause definition written out directly
        for a in all_vectors(n):
            for b in all_vectors(n):
                if not leq_vec(a, b):
                    continue
                expected = tuple(
                    0 if (a[i] == 0 and b[i] == 1) else 1 for i in range(n)
                )
                got = relative_invert(a, b)
                assert got == expected
                assert leq_vec(a, got)


class TestTables:
    def test_eval_examples(self):
        nand = standard_table("nand")
        assert eval_table(nand, (1, 1)) == 0
        assert eval_table(nand, (0, 0)) == 1
        assert eval_table(standard_table("and"), (0, 1)) == 0

    def test_eval_arity_mismatch(self):
        with pytest.raises(UsageError):
            eval_table(standard_table("nand"), (1,))

    def test_row_encoding_first_argument_most_significant(self):
        implies = standard_table("implies")
        # rows in order (0,0), (0,1), (1,0), (1,1) -> bits 1101
        assert [implies.value(v) for v in all_vectors(2)] == [1, 1, 0, 1]
        assert vector_index((1, 0)) == 2
        assert index_vector(2, 2) == (1, 0)

    def test_bad_outputs_rejected(self):
        with pytest.raises(UsageError):
            TruthTable("c", 2, (0, 1, 1))
        with pytest.raises(UsageError):
            TruthTable("c", 1, (0, 2))

    def test_zero_arity_tables(self):
        top = standard_table("top")
        assert top.arity == 0
        assert eval_table(top, ()) == 1
        assert monotonicity_witness(top) is None
        assert classify_case(top) == "d"
        assert classify_case(standard_table("bot")) == "a"


def witness_oracle(table):
    """Exhaustive scan in the documented order: ascending row index of a,
    then ascending row index of b."""
    n = table.arity
    for i, a in enumerate(all_vectors(n)):
        for j, b in enumerate(all_vectors(n)):
            if leq_vec(a, b) and table.value(a) == 1 and table.value(b) == 0:
                return a, b
    return None


class TestMonotonicity:
    def test_and_is_monotone(self):
        assert monotonicity_witness(standard_table("and")) is None

    def test_implies_witness(self):
        assert monotonicity_witness(standard_table("implies")) == ((0, 0), (1, 0))

    def test_xor_witness(self):
        assert monotonicity_witness(standard_table("xor")) == ((0, 1), (1, 1))

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    def test_witness_matches_oracle_exhaustively(self, arity):
        for table in all_tables(arity):
            assert monotonicity_witness(table) == witness_oracle(table)

    def test_witness_iff_order_preserving_arity_4_sample(self):
        import random

        rng = random.Random(42)
        for _ in range(120):
            bits = tuple(rng.randint(0, 1) for _ in range(16))
            table = TruthTable("c", 4, bits)
            preserved = all(
                table.value(a) <= table.value(b)
                for a in all_vectors(4)
                for b in all_vectors(4)
                if leq_vec(a, b)
            )
            assert (monotonicity_witness(table) is None) == preserved


    def test_witness_matches_oracle_arity_4_sample(self):
        import random

        rng = random.Random(43)
        for code in rng.sample(range(2 ** 16), 300):
            table = TruthTable.from_bits("c", 4, format(code, "016b"))
            assert monotonicity_witness(table) == witness_oracle(table)

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    def test_rows_by_output(self, arity):
        for table in all_tables(arity):
            rows = [(index_vector(i, arity), out) for i, out in enumerate(table.outputs)]
            ones = [v for v, out in rows if out]
            zeros = [v for v, out in rows if not out]
            conjunctive, terms = table.lane_terms
            assert conjunctive == (len(ones) > len(zeros))
            assert terms == tuple((tuple(i for i in range(arity) if v[i]),
                                   tuple(i for i in range(arity) if not v[i]))
                                  for v in (zeros if conjunctive else ones))


class TestClassify:
    def test_examples(self):
        assert classify_case(standard_table("xor")) == "a"
        assert classify_case(standard_table("nand")) == "c"
        assert classify_case(standard_table("implies")) == "d"
        assert classify_case(standard_table("and")) == "b"


class TestSignatureFiles:
    def test_parse_and_round_trip(self):
        text = "# comment\nconn nand 2 1110\n\nconn top 0 1\n"
        sig = parse_signature(text)
        assert set(sig.names()) == {"nand", "top"}
        assert sig.arity("nand") == 2
        again = parse_signature(signature_text(sig))
        assert again.connectives == sig.connectives

    def test_bad_bits_length(self):
        with pytest.raises(ParseError):
            parse_signature("conn nand 2 111\n")

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_signature("nand 2 1110\n")

    def test_duplicate_names(self):
        with pytest.raises(ParseError):
            parse_signature("conn a 1 10\nconn a 1 01\n")

    def test_unknown_connective_lookup(self):
        sig = standard_signature("and")
        with pytest.raises(UsageError):
            sig.table("nor")
