"""Verilog front-end: lexer, parser, typed AST, unparser.

This package is the stand-in for the ANTLR4 grammar + parse tree the paper
uses: it produces an abstract syntax tree over which the alignment rules
(:mod:`repro.nl`), the mutation engine (:mod:`repro.core.mutation`) and the
simulator (:mod:`repro.sim`) all operate.
"""

from . import ast_nodes as ast
from .errors import (VerilogError, VerilogLexError, VerilogSemanticError,
                     VerilogSyntaxError)
from .lexer import tokenize
from .parser import Parser, parse, parse_module
from .tokens import KEYWORDS, Token, TokenKind
from .unparser import Unparser, unparse

__all__ = [
    "ast", "parse", "parse_module", "Parser", "tokenize",
    "unparse", "Unparser", "Token", "TokenKind", "KEYWORDS",
    "VerilogError", "VerilogLexError", "VerilogSyntaxError",
    "VerilogSemanticError",
]
