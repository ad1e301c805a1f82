"""Hamiltonian spec text format: grammar, diagnostics, build, round trips."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqsl import (
    ArgOutOfRangeError,
    Coefficient,
    HSpecAst,
    HSpecSyntaxError,
    OpRef,
    PauliOnQuditError,
    Term,
    UnknownLabelError,
    build,
    builtin_pair,
    direct_optimal,
    format_ast,
    parse,
    parse_file,
)

GOLDEN = Path(__file__).parent / "golden"


def _build_text(text):
    return build(parse(text)).matrix


class TestGrammar:
    def test_minimal_spec(self):
        ast = parse("system A:2; H = X(A);")
        assert ast.declarations == (("A", 2),)
        assert len(ast.terms) == 1
        m = _build_text("system A:2; H = X(A);")
        np.testing.assert_array_equal(m, [[0, 1], [1, 0]])

    def test_whitespace_and_comments(self):
        text = """
        # a mediated pair
        system A:2;   # qubit
        system C:3
            ;
        H =
           0.5 * Z(A)   # direct field
           + GX(C,1) @ GX(C,2)  # mediator ladder product
           - P(C,0);
        """
        ast = parse(text)
        assert ast.layout.dims == (2, 3)
        assert len(ast.terms) == 3

    def test_coefficient_forms(self):
        m = _build_text("system A:2; H = 1/sqrt(2)*X(A) + 0.5*Z(A);")
        expected = np.array([[0.5, 1 / np.sqrt(2)], [1 / np.sqrt(2), -0.5]])
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_leading_minus(self):
        m = _build_text("system A:2; H = -Z(A) + X(A);")
        np.testing.assert_allclose(m, [[-1, 1], [1, 1]], atol=1e-15)

    def test_tensor_product_across_labels(self):
        m = _build_text("system A:2; system B:2; H = X(A)@X(B);")
        x = np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(m, np.kron(x, x), atol=1e-15)

    def test_same_label_factors_multiply_in_order(self):
        # X then Z on one qubit is anti-Hermitian, i(XZ - ZX)/2i... the
        # builder must reject it rather than silently symmetrize
        with pytest.raises(Exception, match="[Hh]ermit"):
            build(parse("system A:2; H = X(A)@Z(A);"))
        # a Hermitian same-label product is fine: P(0) then P(0)
        m = _build_text("system A:3; H = P(A,0)@P(A,0);")
        np.testing.assert_allclose(m, np.diag([1.0, 0, 0]), atol=1e-15)

    def test_projector_and_ladders(self):
        m = _build_text("system A:3; H = GY(A,2);")
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = -1j
        expected[2, 0] = 1j
        np.testing.assert_allclose(m, expected, atol=1e-15)


class TestErrors:
    def test_unknown_label_position(self):
        with pytest.raises(UnknownLabelError) as exc:
            parse("system A:2; H = X(B);")
        assert exc.value.line == 1
        assert exc.value.col == 17  # anchored at the operator reference
        assert "B" in str(exc.value)
        diag = exc.value.diagnostic()
        assert "^" in diag
        assert "system A:2; H = X(B);" in diag

    def test_pauli_on_qudit(self):
        with pytest.raises(PauliOnQuditError) as exc:
            parse("system C:3; H = X(C);")
        assert exc.value.line == 1

    def test_arg_out_of_range(self):
        with pytest.raises(ArgOutOfRangeError):
            parse("system C:3; H = GX(C,3);")
        with pytest.raises(ArgOutOfRangeError):
            parse("system C:3; H = GX(C,0);")
        with pytest.raises(ArgOutOfRangeError):
            parse("system C:3; H = P(C,3);")
        # P accepts the full range 0..d-1
        parse("system C:3; H = P(C,0) + P(C,2);")

    def test_arg_on_pauli_rejected(self):
        with pytest.raises(ArgOutOfRangeError):
            parse("system A:2; H = X(A,1);")

    def test_missing_arg_on_ladder(self):
        with pytest.raises(ArgOutOfRangeError):
            parse("system C:3; H = GX(C);")

    def test_syntax_errors_carry_position(self):
        cases = [
            "system A:2 H = X(A);",       # missing semicolon
            "system A:2; H = ;",          # empty sum
            "system A:2;",                # no H statement
            "system A:2; H = X(A); H = Z(A);",  # two H statements
            "system A:2; system A:3; H = Z(A);",  # duplicate label
            "system A:0; H = I(A);",      # dimension below 1
            "H = X(A); system A:2;",      # stray ham before decl is fine...
            "system A:2; H = 1/2*X(A);",  # division only by sqrt
            "system A:2; H = X(A) +;",    # dangling operator
            "garbage",
        ]
        # the "H before system" line is actually allowed by the grammar
        # (statements in any order), so pull it out of the failure set
        ok = cases.pop(6)
        parse(ok)
        for text in cases:
            with pytest.raises(HSpecSyntaxError) as exc:
                parse(text)
            assert exc.value.line is not None, text
            assert exc.value.col is not None, text

    def test_unknown_operator_name(self):
        with pytest.raises(HSpecSyntaxError, match="operator"):
            parse("system A:2; H = Q(A);")

    def test_source_size_cap(self):
        big = "system A:2; H = X(A);" + " " * (1 << 20)
        with pytest.raises(HSpecSyntaxError, match="1 MB"):
            parse(big)

    def test_total_dimension_cap(self):
        with pytest.raises(HSpecSyntaxError, match="cap") as exc:
            parse("system A:2;\nsystem B:64; system C:33;\nH = X(A);")
        assert (exc.value.line, exc.value.col) == (2, 23)
        with pytest.raises(HSpecSyntaxError, match="cap") as exc:
            parse("system A:100000; H = I(A);")
        assert (exc.value.line, exc.value.col) == (1, 10)

    def test_bad_token(self):
        with pytest.raises(HSpecSyntaxError) as exc:
            parse("system A:2; H = X(A) $ Z(A);")
        assert exc.value.col == 22


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "stem,pair",
        [
            ("cmi-product", "cmi-product"),
            ("cmi-entangled", "cmi-entangled"),
            ("cmi-classical", "cmi-classical"),
            ("open-system", "open-system"),
        ],
    )
    def test_builtin_pairs_reproduced(self, stem, pair):
        ast = parse_file(GOLDEN / f"{stem}.hspec")
        h_ref, _ = builtin_pair(pair)
        np.testing.assert_allclose(build(ast).matrix, h_ref.matrix, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_direct_optimal_reproduced(self, d):
        ast = parse_file(GOLDEN / f"direct-optimal-d{d}.hspec")
        np.testing.assert_allclose(
            build(ast).matrix, direct_optimal(d).matrix, atol=1e-12
        )

    def test_golden_files_format_stable(self):
        for path in sorted(GOLDEN.glob("*.hspec")):
            text = path.read_text()
            assert format_ast(parse(text)) == text


class TestCanonicalForm:
    def test_term_order_is_immaterial(self):
        a = "system A:2; system B:2; H = X(A)@X(B) + 0.5*Z(A);"
        b = "system A:2; system B:2; H = 0.5*Z(A) + X(A)@X(B);"
        assert parse(a) == parse(b)
        assert format_ast(parse(a)) == format_ast(parse(b))
        np.testing.assert_allclose(
            _build_text(a), _build_text(b), atol=1e-15
        )

    def test_unit_coefficient_omitted(self):
        out = format_ast(parse("system A:2; H = 1*X(A);"))
        assert "1*" not in out
        assert "X(A)" in out

    def test_negative_first_term(self):
        out = format_ast(parse("system A:2; H = -X(A);"))
        assert "H = -X(A);" in out

    def test_roundtrip_parse_format(self):
        text = format_ast(
            parse("system A:2; system C:3; H = GX(C,1) - 2*Z(A)@P(C,2);")
        )
        assert format_ast(parse(text)) == text
        assert parse(text) == parse(format_ast(parse(text)))


_labels = st.sampled_from(["A", "B", "C"])


@st.composite
def _ast(draw):
    dims = {
        "A": draw(st.integers(2, 4)),
        "B": draw(st.integers(2, 4)),
        "C": draw(st.integers(2, 4)),
    }
    used = draw(st.lists(_labels, min_size=1, max_size=3, unique=True))
    decls = tuple((lab, dims[lab]) for lab in sorted(used))

    def _opref(label):
        d = dims[label]
        names = ["I", "GX", "GY", "P"] + (["X", "Y", "Z"] if d == 2 else [])
        name = draw(st.sampled_from(names))
        if name in ("GX", "GY"):
            arg = draw(st.integers(1, d - 1))
        elif name == "P":
            arg = draw(st.integers(0, d - 1))
        else:
            arg = None
        return OpRef(name, label, arg)

    n_terms = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        labs = draw(
            st.lists(st.sampled_from(sorted(used)), min_size=1, max_size=2,
                     unique=True)
        )
        num = draw(st.sampled_from([1.0, -1.0, 2.0, 0.5, -3.0]))
        root = draw(st.sampled_from([None, 2, 3, 8]))
        terms.append(Term(Coefficient(num, root), tuple(_opref(x) for x in labs)))
    return HSpecAst(decls, tuple(terms))


class TestPropertyRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_ast())
    def test_format_then_parse_is_identity(self, ast):
        text = format_ast(ast)
        again = parse(text)
        assert again == ast
        assert format_ast(again) == text
