"""Recursive-descent parser: textual SpecCharts-like source -> IR.

The grammar is exactly what :mod:`repro.lang.printer` emits, so
``parse(print_specification(s))`` round-trips any valid specification.

Grammar sketch (EBNF, ``{}`` repetition, ``[]`` optional)::

    spec        = "specification" IDENT "is" {typedecl} {decl}
                  {procedure} behavior "end" "specification" ";"
    typedecl    = "type" IDENT "is" "(" CHAR {"," CHAR} ")" ";"
    decl        = ["input"|"output"] ("variable"|"signal")
                  IDENT ":" type [":=" literal] ";"
    type        = "boolean" | ("integer"|"natural"|"bits") "<" INT ">"
                | "array" "<" type "," INT ">" | IDENT
    procedure   = "procedure" IDENT "(" [param {"," param}] ")" "is"
                  {decl} "begin" {stmt} "end" "procedure" ";"
    param       = IDENT ":" ("in"|"out"|"inout") type
    behavior    = "behavior" IDENT "is"
                  ( "leaf" {decl} "begin" {stmt} "end" "behavior" ";"
                  | ("sequential"|"concurrent") {decl} ["initial" IDENT ";"]
                    ["transitions" {trans}] {behavior} "end" "behavior" ";" )
    trans       = IDENT [":" "(" expr ")"] "->" (IDENT|"complete") ";"
    stmt        = lvalue ":=" expr ";" | lvalue "<=" expr ";"
                | IDENT "(" [expr {"," expr}] ")" ";"
                | "if" expr "then" {stmt} {"elsif" expr "then" {stmt}}
                  ["else" {stmt}] "end" "if" ";"
                | "while" expr ["expect" INT] "loop" {stmt} "end" "loop" ";"
                | "for" IDENT "in" expr "to" expr "loop" {stmt}
                  "end" "loop" ";"
                | "wait" ("until" expr | "on" IDENT {"," IDENT}
                          | "for" INT) ";"
                | "null" ";"
    expr        = or-expr with VHDL-ish precedence
                  (or < and < comparison < additive < multiplicative
                   < unary < primary)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.spec.behavior import (
    Behavior,
    CompositeBehavior,
    CompositionMode,
    LeafBehavior,
    Transition,
)
from repro.spec.expr import BinOp, Const, Expr, Index, UnaryOp, VarRef
from repro.spec.specification import Specification
from repro.spec.stmt import (
    Assign,
    CallStmt,
    For,
    If,
    Null,
    SignalAssign,
    Stmt,
    Wait,
    While,
    body as make_body,
)
from repro.spec.subprogram import Direction, Param, Subprogram
from repro.spec.types import (
    ArrayType,
    BitVectorType,
    BoolType,
    DataType,
    EnumType,
    IntType,
)
from repro.spec.variable import Role, StorageClass, Variable

__all__ = ["parse", "parse_expression"]

_IDENT = TokenKind.IDENT
_INT = TokenKind.INT
_CHAR = TokenKind.CHAR
_KEYWORD = TokenKind.KEYWORD
_SYMBOL = TokenKind.SYMBOL
_EOF = TokenKind.EOF

#: Binary operators by precedence level, loosest first.  Every level is
#: left-associative except the comparisons, which take one operator.
_BINARY_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 3, "/=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "mod": 5,
}
_COMPARISON = 3
_TIGHTEST = 5

_DECLARATION_WORDS = ("variable", "signal", "input", "output")


def parse(source: str) -> Specification:
    """Parse a complete specification from source text."""
    return _Parser(tokenize(source)).parse_specification()


def parse_expression(source: str) -> Expr:
    """Parse a standalone expression (handy in tests and the CLI)."""
    parser = _Parser(tokenize(source))
    expr = parser._expression()
    parser._expect_eof()
    return expr


class _Parser:
    """Token-stream cursor with one-token lookahead.

    ``_tok`` is the current token and ``_next`` yields the one after
    it.  The token list ends with EOF, which the cursor never moves
    past: only a matched, hence non-EOF, token is stepped over.
    """

    def __init__(self, tokens: List[Token]):
        self._next = iter(tokens).__next__
        self._tok = self._next()
        self._enums: Dict[str, EnumType] = {}

    # -- cursor helpers ----------------------------------------------------

    def _advance(self) -> Token:
        token = self._tok
        if token.kind is not _EOF:
            self._tok = self._next()
        return token

    def _error(self, message: str) -> ParseError:
        token = self._tok
        return ParseError(f"{message}, found {token}", token.line, token.column)

    def _accept(self, kind: TokenKind, text: str) -> Optional[Token]:
        token = self._tok
        if token.text == text and token.kind is kind:
            self._tok = self._next()
            return token
        return None

    def _expect(self, kind: TokenKind, text: str = None) -> Token:
        token = self._tok
        if token.kind is kind and (text is None or token.text == text):
            return self._advance()
        wanted = text if text is not None else kind.value
        raise self._error(f"expected {wanted!r}")

    def _name(self) -> str:
        token = self._tok
        if token.kind is _IDENT:
            self._tok = self._next()
            return token.text
        raise self._error("expected 'ident'")

    def _int(self) -> int:
        return int(self._expect(_INT).text)

    def _keyword(self, word: str) -> None:
        token = self._tok
        if token.text != word or token.kind is not _KEYWORD:
            raise self._error(f"expected {word!r}")
        self._tok = self._next()

    def _symbol(self, sym: str) -> None:
        token = self._tok
        if token.text != sym or token.kind is not _SYMBOL:
            raise self._error(f"expected {sym!r}")
        self._tok = self._next()

    def _at_keyword(self, *words: str) -> bool:
        token = self._tok
        return token.kind is _KEYWORD and token.text in words

    def _at_symbol(self, sym: str) -> bool:
        token = self._tok
        return token.kind is _SYMBOL and token.text == sym

    def _expect_eof(self) -> None:
        if self._tok.kind is not _EOF:
            raise self._error("expected end of input")

    # -- top level -----------------------------------------------------------

    def parse_specification(self) -> Specification:
        self._keyword("specification")
        name = self._name()
        self._keyword("is")

        while self._at_keyword("type"):
            self._type_declaration()

        variables = self._declarations()

        subprograms: List[Subprogram] = []
        while self._at_keyword("procedure"):
            subprograms.append(self._procedure())

        top = self._behavior()
        self._keyword("end")
        self._keyword("specification")
        self._symbol(";")
        self._expect_eof()
        return Specification(name, top, variables, subprograms)

    def _type_declaration(self) -> None:
        self._keyword("type")
        name = self._name()
        self._keyword("is")
        self._symbol("(")
        literals = [self._expect(_CHAR).text]
        while self._accept(_SYMBOL, ","):
            literals.append(self._expect(_CHAR).text)
        self._symbol(")")
        self._symbol(";")
        if name in self._enums:
            raise self._error(f"type {name!r} declared twice")
        self._enums[name] = EnumType(name, tuple(literals))

    # -- declarations ----------------------------------------------------------

    def _declarations(self) -> List[Variable]:
        decls: List[Variable] = []
        while self._at_keyword(*_DECLARATION_WORDS):
            decls.append(self._declaration())
        return decls

    def _declaration(self) -> Variable:
        role = Role.INTERNAL
        if self._accept(_KEYWORD, "input"):
            role = Role.INPUT
        elif self._accept(_KEYWORD, "output"):
            role = Role.OUTPUT
        if self._accept(_KEYWORD, "signal"):
            kind = StorageClass.SIGNAL
        else:
            self._keyword("variable")
            kind = StorageClass.VARIABLE
        name = self._name()
        self._symbol(":")
        dtype = self._type()
        init = None
        if self._accept(_SYMBOL, ":="):
            init = self._literal()
        self._symbol(";")
        return Variable(name, dtype, init=init, kind=kind, role=role)

    def _type(self) -> DataType:
        token = self._tok
        if token.kind is _KEYWORD:
            word = token.text
            if word == "boolean":
                self._advance()
                return BoolType()
            if word in ("integer", "natural", "bits"):
                self._advance()
                self._symbol("<")
                width = self._int()
                self._symbol(">")
                if word == "bits":
                    return BitVectorType(width=width)
                return IntType(width=width, signed=word == "integer")
            if word == "array":
                self._advance()
                self._symbol("<")
                element = self._type()
                self._symbol(",")
                length = self._int()
                self._symbol(">")
                return ArrayType(element=element, length=length)
        elif token.kind is _IDENT:
            self._advance()
            enum = self._enums.get(token.text)
            if enum is None:
                raise ParseError(
                    f"unknown type {token.text!r}", token.line, token.column
                )
            return enum
        raise self._error("expected a type")

    def _literal(self):
        if self._accept(_KEYWORD, "true"):
            return True
        if self._accept(_KEYWORD, "false"):
            return False
        minus = self._accept(_SYMBOL, "-")
        token = self._tok
        if token.kind is _INT:
            self._advance()
            return -int(token.text) if minus else int(token.text)
        if minus:
            raise self._error("expected an integer after '-'")
        if token.kind is _CHAR:
            self._advance()
            return token.text
        if self._accept(_SYMBOL, "("):
            items = [self._literal()]
            while self._accept(_SYMBOL, ","):
                items.append(self._literal())
            self._symbol(")")
            return tuple(items)
        raise self._error("expected a literal")

    # -- subprograms ----------------------------------------------------------------

    def _procedure(self) -> Subprogram:
        self._keyword("procedure")
        name = self._name()
        self._symbol("(")
        params: List[Param] = []
        if not self._at_symbol(")"):
            params.append(self._param())
            while self._accept(_SYMBOL, ","):
                params.append(self._param())
        self._symbol(")")
        self._keyword("is")
        decls = self._declarations()
        self._keyword("begin")
        stmts = self._statements_until(("end",))
        self._keyword("end")
        self._keyword("procedure")
        self._symbol(";")
        return Subprogram(name, params, stmts, decls)

    def _param(self) -> Param:
        name = self._name()
        self._symbol(":")
        # direction words are contextual, not reserved (variables may
        # legitimately be named "out" or "in")
        if self._accept(_IDENT, "inout"):
            direction = Direction.INOUT
        elif self._accept(_IDENT, "out"):
            direction = Direction.OUT
        else:
            self._expect(_IDENT, "in")
            direction = Direction.IN
        dtype = self._type()
        return Param(name, dtype, direction)

    # -- behaviors ----------------------------------------------------------------------

    def _behavior(self) -> Behavior:
        self._keyword("behavior")
        name = self._name()
        self._keyword("is")
        daemon = self._accept(_KEYWORD, "daemon") is not None
        if self._accept(_KEYWORD, "leaf"):
            decls = self._declarations()
            self._keyword("begin")
            stmts = self._statements_until(("end",))
            self._keyword("end")
            self._keyword("behavior")
            self._symbol(";")
            leaf_behavior = LeafBehavior(name, stmts, decls)
            leaf_behavior.daemon = daemon
            return leaf_behavior

        if self._accept(_KEYWORD, "sequential"):
            mode = CompositionMode.SEQUENTIAL
        else:
            self._keyword("concurrent")
            mode = CompositionMode.CONCURRENT

        decls = self._declarations()

        initial: Optional[str] = None
        if self._accept(_KEYWORD, "initial"):
            initial = self._name()
            self._symbol(";")

        transitions: List[Transition] = []
        if self._accept(_KEYWORD, "transitions"):
            while self._tok.kind is _IDENT:
                transitions.append(self._transition())

        subs: List[Behavior] = []
        while self._at_keyword("behavior"):
            subs.append(self._behavior())
        self._keyword("end")
        self._keyword("behavior")
        self._symbol(";")
        composite = CompositeBehavior(
            name, subs, mode=mode, transitions=transitions, initial=initial,
            decls=decls,
        )
        composite.daemon = daemon
        return composite

    def _transition(self) -> Transition:
        source = self._name()
        condition: Optional[Expr] = None
        if self._accept(_SYMBOL, ":"):
            self._symbol("(")
            condition = self._expression()
            self._symbol(")")
        self._symbol("->")
        if self._accept(_KEYWORD, "complete"):
            target: Optional[str] = None
        else:
            target = self._name()
        self._symbol(";")
        return Transition(source, condition, target)

    # -- statements --------------------------------------------------------------------------

    _STMT_TERMINATORS = ("end", "elsif", "else")

    def _statements_until(self, stop_keywords: Tuple[str, ...]) -> tuple:
        stmts: List[Stmt] = []
        while True:
            token = self._tok
            if token.kind is _KEYWORD:
                if token.text in stop_keywords:
                    return make_body(stmts)
                compound = self._COMPOUND.get(token.text)
                if compound is not None:
                    stmts.append(compound(self))
                    continue
            elif token.kind is _EOF:
                raise self._error(f"expected one of {stop_keywords}")
            stmts.append(self._simple_statement())

    def _null_statement(self) -> Null:
        self._advance()
        self._symbol(";")
        return Null()

    def _if_statement(self) -> If:
        self._keyword("if")
        cond = self._expression()
        self._keyword("then")
        then_body = self._statements_until(self._STMT_TERMINATORS)
        elifs: List[Tuple[Expr, tuple]] = []
        while self._accept(_KEYWORD, "elsif"):
            arm_cond = self._expression()
            self._keyword("then")
            arm_body = self._statements_until(self._STMT_TERMINATORS)
            elifs.append((arm_cond, arm_body))
        else_body: tuple = ()
        if self._accept(_KEYWORD, "else"):
            else_body = self._statements_until(("end",))
        self._keyword("end")
        self._keyword("if")
        self._symbol(";")
        return If(cond, then_body, tuple(elifs), else_body)

    def _while_statement(self) -> While:
        self._keyword("while")
        cond = self._expression()
        expected: Optional[int] = None
        if self._accept(_KEYWORD, "expect"):
            expected = self._int()
        self._keyword("loop")
        loop_body = self._statements_until(("end",))
        self._keyword("end")
        self._keyword("loop")
        self._symbol(";")
        return While(cond, loop_body, expected_iterations=expected)

    def _for_statement(self) -> For:
        self._keyword("for")
        variable = self._name()
        self._expect(_IDENT, "in")
        start = self._expression()
        self._keyword("to")
        stop = self._expression()
        self._keyword("loop")
        loop_body = self._statements_until(("end",))
        self._keyword("end")
        self._keyword("loop")
        self._symbol(";")
        return For(variable, start, stop, loop_body)

    def _wait_statement(self) -> Wait:
        self._keyword("wait")
        if self._accept(_KEYWORD, "until"):
            cond = self._expression()
            self._symbol(";")
            return Wait(until=cond)
        if self._accept(_IDENT, "on"):
            names = [self._name()]
            while self._accept(_SYMBOL, ","):
                names.append(self._name())
            self._symbol(";")
            return Wait(on=tuple(names))
        self._keyword("for")
        delay = self._int()
        self._symbol(";")
        return Wait(delay=delay)

    #: statements that open with a keyword, by that keyword
    _COMPOUND = {
        "null": _null_statement,
        "if": _if_statement,
        "while": _while_statement,
        "for": _for_statement,
        "wait": _wait_statement,
    }

    def _simple_statement(self) -> Stmt:
        name = self._name()
        # call statement: IDENT '(' ... ') ;'
        if self._accept(_SYMBOL, "("):
            args: List[Expr] = []
            if not self._at_symbol(")"):
                args.append(self._expression())
                while self._accept(_SYMBOL, ","):
                    args.append(self._expression())
            self._symbol(")")
            self._symbol(";")
            return CallStmt(name, tuple(args))
        # assignment: lvalue (':='|'<=') expr ';'
        target: Expr = VarRef(name)
        if self._accept(_SYMBOL, "["):
            index = self._expression()
            self._symbol("]")
            target = Index(target, index)
        if self._accept(_SYMBOL, ":="):
            value = self._expression()
            self._symbol(";")
            return Assign(target, value)
        if self._accept(_SYMBOL, "<="):
            value = self._expression()
            self._symbol(";")
            return SignalAssign(target, value)
        raise self._error("expected ':=', '<=' or '(' after identifier")

    # -- expressions ------------------------------------------------------------------------------

    def _expression(self) -> Expr:
        return self._binary(1)

    def _binary(self, loosest: int) -> Expr:
        """Precedence climbing over the operators of ``loosest`` and
        tighter levels.  After an operator of level ``p`` the loop
        takes only level ``p`` again (left-associative) or looser; after
        a comparison, only looser — a second comparison is left to the
        caller, which rejects it as the recursive-descent grammar does."""
        left = self._unary()
        tightest = _TIGHTEST
        while True:
            token = self._tok
            level = _BINARY_PRECEDENCE.get(token.text)
            if (level is None or not loosest <= level <= tightest
                    or token.kind is _CHAR):
                return left
            self._tok = self._next()
            if level == _TIGHTEST:
                right = self._unary()
            else:
                right = self._binary(level + 1)
            left = BinOp(token.text, left, right)
            tightest = level - 1 if level == _COMPARISON else level

    def _unary(self) -> Expr:
        token = self._tok
        if token.kind is _SYMBOL:
            if token.text == "-":
                self._advance()
                operand = self._tok
                if operand.kind is _INT:
                    # fold '- INT' into a negative literal so that
                    # printing and re-parsing a negative Const is the
                    # identity
                    self._advance()
                    return Const(-int(operand.text))
                return UnaryOp("-", self._unary())
        elif token.kind is _KEYWORD and token.text in ("not", "abs"):
            self._advance()
            return UnaryOp(token.text, self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._tok
        kind = token.kind
        if kind is _IDENT:
            self._advance()
            expr: Expr = VarRef(token.text)
            while self._accept(_SYMBOL, "["):
                index = self._expression()
                self._symbol("]")
                expr = Index(expr, index)
            return expr
        if kind is _INT:
            self._advance()
            return Const(int(token.text))
        if kind is _KEYWORD:
            if token.text == "true":
                self._advance()
                return Const(True)
            if token.text == "false":
                self._advance()
                return Const(False)
        elif kind is _CHAR:
            self._advance()
            return Const(token.text)
        elif kind is _SYMBOL and token.text == "(":
            self._advance()
            expr = self._expression()
            if self._at_symbol(","):
                items = [self._aggregate_element(expr)]
                while self._accept(_SYMBOL, ","):
                    items.append(self._aggregate_element(self._expression()))
                self._symbol(")")
                return Const(tuple(items))
            self._symbol(")")
            return expr
        raise self._error("expected an expression")

    def _aggregate_element(self, expr: Expr):
        """Fold one element of an aggregate literal ``(e1, e2, ...)``
        down to its constant value (the printer only ever emits
        literal elements)."""
        if isinstance(expr, Const):
            return expr.value
        if (
            isinstance(expr, UnaryOp)
            and expr.op == "-"
            and isinstance(expr.operand, Const)
            and isinstance(expr.operand.value, int)
            and not isinstance(expr.operand.value, bool)
        ):
            return -expr.operand.value
        raise self._error("aggregate elements must be literals")
