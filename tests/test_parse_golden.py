"""Golden lexer and parser outcomes over a seeded text corpus.

Every text below — the regression-corpus specs, the six registry
specs, seeded fuzz specs, seeded mutations of all of these and random
expression soups — must reproduce its line of
``tests/golden/parse_outcomes.txt``:

    <name> <text digest> <token digest> <outcome>

The token digest covers every token's kind, text, line and column (or
is ``lex-error`` when ``tokenize`` raises).  The outcome is ``ok`` and
the digest of the printed specification (or of the expression's tree),
or the exact error: type, line, column and message.  The text digest
tells a changed input (a generator change) from a changed outcome.

Refresh with ``pytest tests/test_parse_golden.py --update-golden``
only when a language change is intended.
"""

import hashlib
import random
from pathlib import Path

from repro.apps.workloads import default_registry
from repro.errors import ParseError
from repro.fuzz.generator import generate_case
from repro.lang.lexer import tokenize
from repro.lang.parser import parse, parse_expression
from repro.lang.printer import print_specification

GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.txt"
CORPUS = Path(__file__).parent / "corpus"

FUZZ_SEEDS = range(48)
MUTANTS_PER_TEXT = 36
EXPRESSION_SOUPS = 600

#: Characters a mutation may insert: the language's own alphabet,
#: characters it rejects, and Unicode letters and digits that
#: ``str.isalpha``/``isalnum``/``isdigit`` accept.
_INSERTS = (
    list("abzAZ_09 \t\r\n'-:=<>/()[];,+*")
    + list("@$!?.{}#\"\\`~^&|%")
    + ["é", "ß", "ñ", "Ω", "中", "٣", "²", "Ⅻ", " ", "​", "--", "'a'"]
)

#: Hand-written cases: Unicode identifiers and digits, comments at the
#: end of input, and every lexer error.
HAND_TEXTS = (
    ("unicode-ident", "specification Ünï is behavior b is leaf begin "
                      "çà := 1; end behavior; end specification;"),
    ("unicode-digit", "x := ٣٤ + 1"),
    ("superscript-digit", "x²"),
    ("roman-numeral", "Ⅻ"),
    ("cjk-ident", "中文_1 := 2;"),
    ("nbsp", "a b"),
    ("trailing-comment", "specification s is behavior b is leaf begin "
                         "null; end behavior; end specification; -- bye"),
    ("trailing-comment-newline", "x -- one\n-- two\n"),
    ("comment-only", "-- nothing else"),
    ("comment-then-spaces", "   -- c"),
    ("dash-dash-dash", "a---b"),
    ("tabs-and-cr", "a\t\r\tb\r\n  c"),
    ("unterminated-char", "x := 'abc"),
    ("char-across-line", "x := 'ab\ncd'"),
    ("empty-char", "x := ''"),
    ("bad-char", "x := a @ b"),
    ("bad-unicode-symbol", "x := a → b"),
    ("empty", ""),
    ("multi-symbols", ":=<=>=/=-><>=:"),
    ("keyword-case", "SPECIFICATION Spec IS BEHAVIOR b IS LEAF BEGIN "
                     "NULL; END BEHAVIOR; END SPECIFICATION;"),
)

_EXPRESSION_ATOMS = (
    "a", "b", "x1", "arr", "0", "1", "255", "'red'", "true", "false",
    "(", ")", "[", "]", ",", "-", "+", "*", "/", "mod", "and", "or",
    "not", "abs", "=", "/=", "<", "<=", ">", ">=", ":=", ";", "--", "\n",
)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _token_digest(text):
    try:
        tokens = tokenize(text)
    except ParseError:
        return "lex-error"
    rows = "\n".join(
        f"{t.kind.value}\t{t.text!r}\t{t.line}\t{t.column}" for t in tokens
    )
    return _digest(rows)


def _outcome(build):
    try:
        rendered = build()
    except ParseError as exc:
        return f"ParseError {exc.line}:{exc.column} {str(exc)!r}"
    except Exception as exc:  # noqa: BLE001 — the type is the outcome
        return f"{type(exc).__name__} {str(exc)!r}"
    return f"ok {_digest(rendered)}"


def _mutate(text, rng):
    for _ in range(rng.randint(1, 3)):
        if not text:
            return rng.choice(_INSERTS)
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(6)
        if op == 0:
            text = text[:at] + text[at + rng.randint(1, 8):]
        elif op == 1:
            text = text[:at] + rng.choice(_INSERTS) + text[at:]
        elif op == 2:
            text = text[:at] + text[at:at + rng.randint(1, 12)] + text[at:]
        elif op == 3:
            text = text[:at]
        elif op == 4:
            span = rng.randint(1, 20)
            text = text[:at] + text[at:at + span].upper() + text[at + span:]
        else:
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def _soup(rng):
    return " ".join(
        rng.choice(_EXPRESSION_ATOMS) for _ in range(rng.randint(1, 14))
    )


def corpus_texts():
    """``(name, text, kind)`` triples; kind is ``spec`` or ``expr``."""
    bases = [
        (f"corpus/{path.stem}", path.read_text())
        for path in sorted(CORPUS.glob("*.spec"))
    ]
    bases += [
        (f"registry/{name}", print_specification(default_registry().get(name).spec()))
        for name in default_registry().names()
    ]
    bases += [
        (f"fuzz/{seed}", print_specification(generate_case(seed).spec))
        for seed in FUZZ_SEEDS
    ]
    texts = [(name, text, "spec") for name, text in bases]
    texts += [(f"hand/{name}", text, "spec") for name, text in HAND_TEXTS]
    for base_index, (name, text) in enumerate(bases):
        rng = random.Random(f"mutate/{base_index}")
        texts += [
            (f"{name}~{m}", _mutate(text, rng), "spec")
            for m in range(MUTANTS_PER_TEXT)
        ]
    rng = random.Random("soup")
    texts += [(f"soup/{n}", _soup(rng), "expr") for n in range(EXPRESSION_SOUPS)]
    texts += [(f"hand-expr/{name}", text, "expr") for name, text in HAND_TEXTS]
    return texts


def render_parse_outcomes():
    lines = []
    for name, text, kind in corpus_texts():
        if kind == "spec":
            outcome = _outcome(lambda: print_specification(parse(text)))
        else:
            outcome = _outcome(lambda: repr(parse_expression(text)))
        lines.append(f"{name} {_digest(text)} {_token_digest(text)} {outcome}")
    return "\n".join(lines) + "\n"


def test_parse_outcomes_reproduce_golden(request):
    rendered = render_parse_outcomes()
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(rendered)
        return
    expected = GOLDEN.read_text().splitlines()
    actual = rendered.splitlines()
    assert len(actual) == len(expected)
    drifted = [
        (want, got) for want, got in zip(expected, actual) if want != got
    ]
    assert not drifted, (
        f"{len(drifted)} parse outcomes drifted from "
        f"tests/golden/parse_outcomes.txt; first: {drifted[0]}"
    )


def test_corpus_is_large_and_mixed():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) >= 2000
    outcomes = [line.split(" ", 3)[3] for line in lines]
    assert sum(o.startswith("ok ") for o in outcomes) >= 100
    assert sum(o.startswith("ParseError ") for o in outcomes) >= 1000
    assert sum(" lex-error " in line for line in lines) >= 50
