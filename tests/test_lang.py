import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import count_nodes, count_statements
from splcsp import lang
from splcsp.lang import (
    Break,
    Continue,
    EmptyInputError,
    Epsilon,
    If,
    ProgramSyntaxError,
    Seq,
    While,
    check_closed,
    parse_program,
    pretty_print,
)

GCD = """\
x := 1;
while x >= 1 do
  if x >= y then
    x := x - y;
    break
  else
    y := y - x;
    continue
  fi
od
"""


def test_parse_single_statement():
    tree = parse_program("x := x - y")
    assert tree == Epsilon("x := x - y")
    assert tree.span == (1, 1)


def test_parse_seq_left_associated():
    tree = parse_program("a; b; c")
    assert tree == Seq(Seq(Epsilon("a"), Epsilon("b")), Epsilon("c"))


def test_parse_if_and_while():
    tree = parse_program("if x < 1 then a else b fi")
    assert tree == If("x < 1", Epsilon("a"), Epsilon("b"))
    tree = parse_program("while x < 1 do a; break od")
    assert tree == While("x < 1", Seq(Epsilon("a"), Break()))


def test_parse_gcd_shape():
    tree = parse_program(GCD)
    assert isinstance(tree, Seq)
    assert tree.left == Epsilon("x := 1")
    loop = tree.right
    assert isinstance(loop, While)
    assert loop.guard == "x >= 1"
    branch = loop.body
    assert isinstance(branch, If)
    assert branch.then_branch == Seq(Epsilon("x := x - y"), Break())
    assert branch.else_branch == Seq(Epsilon("y := y - x"), Continue())


def test_atoms_swallow_token_runs():
    assert parse_program("a b c d") == Epsilon("a b c d")
    # keywords end the run
    assert parse_program("a b; break") == Seq(Epsilon("a b"), Break())


def test_keywords_only_match_whole_tokens():
    # "fix" contains "fi" but is a plain atom
    tree = parse_program("if x then fix else oddo fi")
    assert tree == If("x", Epsilon("fix"), Epsilon("oddo"))


def test_comments_and_blank_lines():
    src = "# leading comment\n\na := 1; # trailing\n# another\nb := 2\n"
    assert parse_program(src) == Seq(Epsilon("a := 1"), Epsilon("b := 2"))
    assert parse_program("a#b; c") == Epsilon("a")


def test_semicolon_needs_no_whitespace():
    assert parse_program("a;b") == Seq(Epsilon("a"), Epsilon("b"))


def test_spans_point_into_the_source():
    tree = parse_program("a;\n  while p do\n    b\n  od")
    assert tree.right.span == (2, 3)
    assert tree.right.body.span == (3, 5)


def test_spans_do_not_affect_equality():
    a = parse_program("a;\nb")
    b = parse_program("a; b")
    assert a == b
    assert a.right.span != b.right.span


@pytest.mark.parametrize(
    "src",
    [
        "",
        "   \n# only a comment\n",
    ],
)
def test_empty_input(src):
    with pytest.raises(EmptyInputError):
        parse_program(src)


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("if x then a fi", 1, 13, "expected 'else', got 'fi'"),  # missing else
        # missing fi: points at the last token
        ("if x then a else b", 1, 18, "expected 'fi', got end of input"),
        ("while x do a", 1, 12, "expected 'od', got end of input"),  # missing od
        ("a;; b", 1, 3, "unexpected ';'"),  # stray separator
        ("fi", 1, 1, "unexpected 'fi'"),
        ("a; else", 1, 4, "unexpected 'else'"),
        ("if then a else b fi", 1, 4, "empty guard"),
        ("while do a od", 1, 7, "empty guard"),
        # separator inside guard
        ("if x; y then a else b fi", 1, 5, "expected 'then' after guard, got ';'"),
        ("a extra; fi", 1, 10, "unexpected 'fi'"),
        ("while x", 1, 7, "expected 'do' after guard, got end of input"),
        ("a;", 1, 2, "expected a statement, got end of input"),
        ("if x then a else b fi fi", 1, 23, "unexpected 'fi' after program"),
        # a comment cuts the token it starts in
        ("a#b; c\nfi", 2, 1, "unexpected 'fi' after program"),
        ("a; b#c\n;", 2, 1, "expected a statement, got end of input"),
        ("if x then\r\n  a#b\r\nelse c fi fi", 3, 11, "unexpected 'fi' after program"),
        ("while x do a\r\n", 1, 12, "expected 'od', got end of input"),
        # NBSP is whitespace, as str.isspace has it
        ("a\xa0b;\xa0fi", 1, 6, "unexpected 'fi'"),
    ],
)
def test_syntax_errors_carry_positions(src, line, col, message):
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program(src)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


def test_counts():
    tree = parse_program(GCD)
    assert count_statements(tree) == 7
    assert count_nodes(tree) == 10  # three sequencing nodes


def test_check_closed_accepts_loops():
    assert check_closed(parse_program(GCD)).is_closed


def test_check_closed_flags_top_level_jumps():
    report = check_closed(parse_program("a;\nbreak;\ncontinue"))
    assert not report.is_closed
    assert report.violations == ((2, 1), (3, 1))


def test_check_closed_if_does_not_shield():
    report = check_closed(parse_program("if p then break else a fi"))
    assert not report.is_closed
    # but a while around it does
    assert check_closed(parse_program("while q do if p then break else a fi od")).is_closed


def test_pretty_print_canonical_form():
    tree = parse_program("a ;   b;while p do c;continue od")
    assert pretty_print(tree) == "a;\nb;\nwhile p do\n  c;\n  continue\nod\n"


def test_pretty_print_round_trip_gcd():
    tree = parse_program(GCD)
    assert pretty_print(tree) == GCD
    assert parse_program(pretty_print(tree)) == tree


def _shape(tree):
    # flat preorder listing: comparing deep trees with == would recurse
    return [
        (type(node).__name__, getattr(node, "guard", getattr(node, "text", None)))
        for node in lang.walk(tree)
    ]


def test_deep_while_nesting_round_trips():
    depth = 2000
    text = (
        "".join("  " * k + f"while p{k} do\n" for k in range(depth))
        + "  " * depth
        + "a\n"
        + "".join("  " * k + "od\n" for k in reversed(range(depth)))
    )
    tree = parse_program(text)
    assert pretty_print(tree) == text
    assert count_nodes(tree) == depth + 1


def test_deep_if_nesting_round_trips():
    tree = Epsilon("a")
    for k in range(2000):
        inner = Seq(tree, Break()) if k % 3 == 0 else tree
        if k % 2:
            tree = If(f"q{k}", inner, Epsilon("b"))
        else:
            tree = If(f"q{k}", Continue(), inner)
    text = pretty_print(tree)
    parsed = parse_program(text)
    assert _shape(parsed) == _shape(tree)
    assert pretty_print(parsed) == text


def _nest(depth, leaf):
    tree = leaf
    for _ in range(depth):
        tree = While("c", tree)
    return tree


def test_deep_trees_compare_hash_and_print():
    depth = 2000
    tree = _nest(depth, Epsilon("x"))
    parsed = parse_program("while c do " * depth + "x" + " od" * depth)
    assert parsed == tree and not parsed != tree
    assert hash(parsed) == hash(tree)
    assert tree != _nest(depth, Epsilon("y"))
    assert tree != _nest(depth, Break())
    assert tree != _nest(depth - 1, Epsilon("x"))
    assert {tree: 1}[parsed] == 1
    assert repr(tree) == (
        "While(span=(1, 1), guard='c', body=" * depth
        + "Epsilon(span=(1, 1), text='x')"
        + ")" * depth
    )
    # the same hash and text as the generated dataclass methods give,
    # checked where those do not recurse too deep
    shallow = _nest(3, Seq(Epsilon("x"), If("g", Break(), Continue(span=(2, 5)))))
    assert hash(shallow) == hash(("c", _nest(2, shallow.body.body.body)))
    assert repr(shallow.body.body.body) == (
        "Seq(span=(1, 1), left=Epsilon(span=(1, 1), text='x'), right=If(span=(1, 1), "
        "guard='g', then_branch=Break(span=(1, 1)), else_branch=Continue(span=(2, 5))))"
    )


# ---------------------------------------------------------------------------
# properties

WORD = st.text(alphabet="abcdxyz01:=<+-", min_size=1, max_size=4).filter(
    lambda w: w not in lang.KEYWORDS
)
ATOM = st.lists(WORD, min_size=1, max_size=3).map(" ".join)


def _fold(items):
    node = items[0]
    for item in items[1:]:
        node = Seq(node, item)
    return node


SEQUENCES = st.deferred(
    lambda: st.lists(STATEMENTS, min_size=1, max_size=3).map(_fold)
)
STATEMENTS = st.deferred(
    lambda: st.one_of(
        ATOM.map(Epsilon),
        st.just(Break()),
        st.just(Continue()),
        st.builds(If, ATOM, SEQUENCES, SEQUENCES),
        st.builds(While, ATOM, SEQUENCES),
    )
)


@settings(max_examples=150)
@given(SEQUENCES)
def test_pretty_parse_round_trip(tree):
    assert parse_program(pretty_print(tree)) == tree


@settings(max_examples=100)
@given(SEQUENCES)
def test_pretty_print_idempotent(tree):
    text = pretty_print(tree)
    assert pretty_print(parse_program(text)) == text


@settings(max_examples=100)
@given(SEQUENCES)
def test_closedness_matches_reference(tree):
    def reference(node, in_loop):
        if isinstance(node, (Break, Continue)):
            return [] if in_loop else [node.span]
        out = []
        for child in lang.children(node):
            out.extend(reference(child, in_loop or isinstance(node, While)))
        return out

    report = check_closed(tree)
    assert report.is_closed == (not reference(tree, False))


@settings(max_examples=100)
@given(SEQUENCES)
def test_counts_consistent(tree):
    nodes = list(lang.walk(tree))
    assert count_nodes(tree) == len(nodes)
    seqs = sum(1 for n in nodes if isinstance(n, Seq))
    assert count_statements(tree) == len(nodes) - seqs


# token soups: keywords, separators, atoms, comments and Unicode
# whitespace, including the separators str.splitlines breaks lines at
SOUP = st.lists(
    st.sampled_from(
        sorted(lang.KEYWORDS)
        + [";", "a", "x1", ":=", "#", "# c"]
        + [" ", "\t", "\n", "\r\n", "\xa0", "\u3000", "\x1c", "\x1f", "\x85", "\u2028"]
    ),
    max_size=30,
).map("".join)


def _token_starts(source):
    starts = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        code = line.split("#", 1)[0]
        for i, ch in enumerate(code):
            if not ch.isspace() and (
                ch == ";" or i == 0 or code[i - 1].isspace() or code[i - 1] == ";"
            ):
                starts.add((lineno, i + 1))
    return starts


@settings(max_examples=400, deadline=None)
@given(SOUP)
def test_parse_returns_a_tree_or_points_at_a_token(source):
    try:
        tree = parse_program(source)
    except EmptyInputError:
        assert not _token_starts(source)
    except ProgramSyntaxError as err:
        assert (err.line, err.col) in _token_starts(source)
    else:
        assert parse_program(pretty_print(tree)) == tree
