"""Recursive-descent parser for the hint-extended Thrift IDL (Fig. 7).

Accepts the standard Thrift document grammar (namespaces, includes, consts,
typedefs, enums, structs/unions/exceptions, services with extends) plus the
HatRPC hint extension:

* ``HintGroup* Function*`` inside a service body (service-level hints),
* ``[' HintGroup* ']`` after a function's argument list / throws clause
  (function-level hints),
* ``HintGroup ::= ('hint' | 's_hint' | 'c_hint') ':' HintList ';'``,
* ``Hint ::= key '=' value | key '(' (param '=' value)* ')'`` with integer,
  float, string, identifier, size-suffixed (``64KB``) and time-suffixed
  (``200us``) values; the parameterized form (e.g.
  ``cacheable(ttl = 200us)``) yields a dict-valued hint.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.idl.lexer import Lexer, Token, TokenKind
from repro.idl.nodes import (
    ConstNode,
    Document,
    EnumNode,
    Field,
    FunctionNode,
    Hint,
    HintGroup,
    ServiceNode,
    StructNode,
    TypedefNode,
    TypeRef,
)

__all__ = ["ParseError", "Parser", "parse"]

_BASE_TYPES = {"bool", "byte", "i8", "i16", "i32", "i64", "double",
               "string", "binary"}
_HINT_SIDES = {"hint": "shared", "s_hint": "server", "c_hint": "client"}
_SIZE_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3,
               "K": 1024, "M": 1024**2, "G": 1024**3}
# Durations normalise to float seconds (the sim clock's unit).
_TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


class ParseError(SyntaxError):
    pass


class Parser:
    def __init__(self, source: str, filename: str = "<idl>"):
        self.filename = filename
        self._tokens = list(Lexer(source, filename).tokens())
        self._i = 0

    # -- token plumbing ------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        i = min(self._i + ahead, len(self._tokens) - 1)
        return self._tokens[i]

    def _next(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind is not TokenKind.EOF:
            self._i += 1
        return tok

    def _error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(
            f"{self.filename}:{tok.line}:{tok.col}: {msg} (got {tok.value!r})")

    def _accept(self, kind: TokenKind, value: Optional[str] = None) -> Optional[Token]:
        tok = self._peek()
        if tok.kind is kind and (value is None or tok.value == value):
            return self._next()
        return None

    def _expect(self, kind: TokenKind, value: Optional[str] = None) -> Token:
        tok = self._accept(kind, value)
        if tok is None:
            want = value or kind.value
            raise self._error(f"expected {want!r}")
        return tok

    def _accept_symbol(self, sym: str) -> bool:
        return self._accept(TokenKind.SYMBOL, sym) is not None

    def _expect_symbol(self, sym: str) -> None:
        self._expect(TokenKind.SYMBOL, sym)

    def _list_separator(self) -> bool:
        return self._accept_symbol(",") or self._accept_symbol(";")

    def _identifier(self) -> str:
        tok = self._peek()
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            # Thrift allows keywords in a few identifier positions; be
            # permissive for field/arg names.
            return self._next().value
        raise self._error("expected identifier")

    # -- entry point ------------------------------------------------------------
    def parse(self) -> Document:
        doc = Document()
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.EOF:
                return doc
            if tok.kind is not TokenKind.KEYWORD:
                raise self._error("expected a definition keyword")
            kw = tok.value
            if kw == "include":
                self._next()
                doc.includes.append(self._expect(TokenKind.STRING).value)
            elif kw == "namespace":
                self._next()
                scope = self._identifier()
                doc.namespaces[scope] = self._identifier()
            elif kw == "typedef":
                self._next()
                ty = self._type()
                doc.typedefs.append(TypedefNode(self._identifier(), ty))
                self._list_separator()
            elif kw == "const":
                self._next()
                ty = self._type()
                name = self._identifier()
                self._expect_symbol("=")
                doc.consts.append(ConstNode(name, ty, self._const_value()))
                self._list_separator()
            elif kw == "enum":
                doc.enums.append(self._enum())
            elif kw in ("struct", "union", "exception"):
                doc.structs.append(self._struct(kw))
            elif kw == "service":
                doc.services.append(self._service())
            else:
                raise self._error(f"unexpected keyword {kw!r} at top level")

    # -- types --------------------------------------------------------------------
    def _type(self) -> TypeRef:
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD and tok.value in _BASE_TYPES:
            self._next()
            return TypeRef(tok.value)
        if tok.kind is TokenKind.KEYWORD and tok.value in ("list", "set"):
            self._next()
            self._expect_symbol("<")
            elem = self._type()
            self._expect_symbol(">")
            return TypeRef(tok.value, (elem,))
        if tok.kind is TokenKind.KEYWORD and tok.value == "map":
            self._next()
            self._expect_symbol("<")
            k = self._type()
            self._expect_symbol(",")
            v = self._type()
            self._expect_symbol(">")
            return TypeRef("map", (k, v))
        if tok.kind is TokenKind.IDENT:
            self._next()
            return TypeRef(tok.value)
        raise self._error("expected a type")

    # -- const values -----------------------------------------------------------------
    def _const_value(self) -> Any:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._next()
            return int(tok.value, 0)
        if tok.kind is TokenKind.DOUBLE:
            self._next()
            return float(tok.value)
        if tok.kind is TokenKind.STRING:
            self._next()
            return tok.value
        if tok.kind is TokenKind.IDENT:
            self._next()
            if tok.value == "true":
                return True
            if tok.value == "false":
                return False
            return tok.value  # reference to another const / enum member
        if self._accept_symbol("["):
            items = []
            while not self._accept_symbol("]"):
                items.append(self._const_value())
                self._list_separator()
            return items
        if self._accept_symbol("{"):
            mapping = {}
            while not self._accept_symbol("}"):
                k = self._const_value()
                self._expect_symbol(":")
                mapping[k] = self._const_value()
                self._list_separator()
            return mapping
        raise self._error("expected a constant value")

    # -- enums ----------------------------------------------------------------------------
    def _enum(self) -> EnumNode:
        self._expect(TokenKind.KEYWORD, "enum")
        node = EnumNode(self._identifier())
        self._expect_symbol("{")
        next_value = 0
        while not self._accept_symbol("}"):
            name = self._identifier()
            if self._accept_symbol("="):
                value = int(self._expect(TokenKind.INT).value, 0)
            else:
                value = next_value
            next_value = value + 1
            node.members.append((name, value))
            self._list_separator()
        return node

    # -- structs ---------------------------------------------------------------------------
    def _struct(self, kind: str) -> StructNode:
        self._expect(TokenKind.KEYWORD, kind)
        node = StructNode(self._identifier(), kind=kind)
        self._expect_symbol("{")
        while not self._accept_symbol("}"):
            node.fields.append(self._field())
        return node

    def _field(self) -> Field:
        tok = self._expect(TokenKind.INT)
        fid = int(tok.value, 0)
        self._expect_symbol(":")
        required = None
        nxt = self._peek()
        if nxt.kind is TokenKind.KEYWORD and nxt.value in ("required",
                                                           "optional"):
            required = self._next().value
        ty = self._type()
        name = self._identifier()
        default = None
        if self._accept_symbol("="):
            default = self._const_value()
        self._list_separator()
        return Field(fid, name, ty, required, default)

    # -- hints (the Figure 7 extension) -----------------------------------------------------
    def _hint_groups(self) -> List[HintGroup]:
        groups: List[HintGroup] = []
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.value in _HINT_SIDES:
                self._next()
                self._expect_symbol(":")
                group = HintGroup(_HINT_SIDES[tok.value])
                while True:
                    group.hints.append(self._hint())
                    if not self._accept_symbol(","):
                        break
                self._expect_symbol(";")
                groups.append(group)
            else:
                return groups

    def _hint(self) -> Hint:
        tok = self._peek()
        key = self._identifier()
        if self._accept_symbol("("):
            # Parameterized hint: key '(' (param '=' value (',' ...))* ')'
            params: dict = {}
            while not self._accept_symbol(")"):
                pname = self._identifier()
                self._expect_symbol("=")
                params[pname] = self._hint_value()
                if not self._accept_symbol(","):
                    self._expect_symbol(")")
                    break
            return Hint(key, params, line=tok.line)
        self._expect_symbol("=")
        return Hint(key, self._hint_value(), line=tok.line)

    def _hint_value(self) -> Any:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._next()
            value = int(tok.value, 0)
            unit = self._peek()
            if unit.kind is TokenKind.IDENT and unit.value in _SIZE_UNITS:
                self._next()
                return value * _SIZE_UNITS[unit.value]
            if unit.kind is TokenKind.IDENT and unit.value in _TIME_UNITS:
                self._next()
                return value * _TIME_UNITS[unit.value]
            return value
        if tok.kind is TokenKind.DOUBLE:
            self._next()
            value = float(tok.value)
            unit = self._peek()
            if unit.kind is TokenKind.IDENT and unit.value in _TIME_UNITS:
                self._next()
                return value * _TIME_UNITS[unit.value]
            return value
        if tok.kind is TokenKind.STRING:
            self._next()
            return tok.value
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            self._next()
            if tok.value == "true":
                return True
            if tok.value == "false":
                return False
            return tok.value
        raise self._error("expected a hint value")

    # -- services -------------------------------------------------------------------------------
    def _service(self) -> ServiceNode:
        self._expect(TokenKind.KEYWORD, "service")
        name = self._identifier()
        extends = None
        if self._accept(TokenKind.KEYWORD, "extends"):
            extends = self._identifier()
        node = ServiceNode(name, extends=extends)
        self._expect_symbol("{")
        node.hint_groups = self._hint_groups()
        while not self._accept_symbol("}"):
            node.functions.append(self._function())
        return node

    def _function(self) -> FunctionNode:
        oneway = self._accept(TokenKind.KEYWORD, "oneway") is not None
        if self._accept(TokenKind.KEYWORD, "void"):
            ret = TypeRef("void")
        else:
            ret = self._type()
        name = self._identifier()
        self._expect_symbol("(")
        args = []
        while not self._accept_symbol(")"):
            args.append(self._field())
        throws: List[Field] = []
        if self._accept(TokenKind.KEYWORD, "throws"):
            self._expect_symbol("(")
            while not self._accept_symbol(")"):
                throws.append(self._field())
        self._list_separator()
        hint_groups: List[HintGroup] = []
        if self._accept_symbol("["):
            hint_groups = self._hint_groups()
            self._expect_symbol("]")
        self._list_separator()
        return FunctionNode(name, ret, args, throws, oneway, hint_groups)


def parse(source: str, filename: str = "<idl>") -> Document:
    """Parse IDL source into a Document AST."""
    return Parser(source, filename).parse()
