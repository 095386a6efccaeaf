"""Surface syntax for `.cgl` proof scripts.

A script is a sequence of named definitions:

    game    Nim  = { ... }
    formula Inv  = c > 0 & c mod 4 = 1
    theorem dNim : c > 0 -> [Nim*] c mod 4 = 1 = \\nz : c > 0. ...

Game and formula names elaborate inline (definitions are acyclic by
construction: names must be defined before use).  The printer module
inverts this grammar exactly; `parse(print(ast)) == ast`.  The printer's
two tables are the one source of precedence: binary operators are read
from `printer.OPERATORS` by precedence climbing, and the proof forms that
a keyword or bracket opens from `printer.PROOF_FORMS`, whose templates the
printer fills in.

All errors carry line/column positions and the expected-token set.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from . import proofterms as P
from . import syntax as S
from .printer import _BARE_ARGS, APP, ATOM, CASE, FORM_OF, OPERATORS, PREFIX
from .rational import parse_rational

KEYWORDS = {
    "game", "formula", "theorem", "tt", "ff", "forall", "exists", "div",
    "mod", "abs", "min", "max", "succ", "cap", "case", "rcase", "fp", "of",
    "rep", "for", "roll", "unroll", "stop", "go", "mon", "ghost", "unpack",
    "wit", "asgnd", "asgnb", "seqd", "seqb", "yieldd", "yieldb", "pi1",
    "pi2", "inl", "inr", "split", "FO", "Dec", "Q", "as",
}

_PUNCT = [
    "<->", "->", "++", ":=", "<=", ">=", "!=", "^d", "(", ")", "{", "}",
    "[", "]", "<", ">", "=", ",", ";", ".", ":", "?", "*", "+", "-", "&",
    "|", "!", "\\", "@", "/",
]


class Token(NamedTuple):
    kind: str  # 'ident', 'number', 'punct', 'keyword', 'eof'
    text: str
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{line}:{col}: {message}{exp}")


_UNICODE_ALIASES = {
    "⟨": "<", "⟩": ">", "∪": "++", "∧": "&",
    "∨": "|", "→": "->", "¬": "!", "≤": "<=",
    "≥": ">=", "≠": "!=", "↔": "<->",
}

# one token after optional blanks, or the end; `\d` is a decimal digit and
# `\w` a letter, digit or `_` (`str.isalnum`), in any script
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>//[^\n]*)|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<word>\w+)|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")"
    r"|(?P<alias>[" + "".join(_UNICODE_ALIASES) + r"])|(?P<stray>.)|\Z)"
)


def tokenize(text: str) -> list:
    """The tokens of `text`, the last one `eof`; a stray character or a
    digit that is not a decimal one is a ParseError at its position."""
    toks, line, bol = [], 1, 0  # bol: where the current line begins
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, bol = line + 1, m.end()
            continue
        if kind is None:
            break
        word = m[kind]
        col = m.start(kind) - bol + 1
        if kind == "word":
            c = word[0]
            if c.isalpha() or c == "_":
                kind = "keyword" if word in KEYWORDS else "ident"
            elif c.isdigit():  # a digit that is not a decimal one, such as '²'
                raise ParseError(f"non-decimal digit {c!r} in a number", line, col)
            else:
                raise ParseError(f"stray character {c!r}", line, col)
        elif kind == "alias":
            kind, word = "punct", _UNICODE_ALIASES[word]
        elif kind == "stray":
            raise ParseError(f"stray character {word!r}", line, col)
        elif kind == "comment":
            continue
        toks.append(Token(kind, word, line, col))
    # a comment on the last line ends the input at its first column
    end = text.find("//", bol)
    toks.append(Token("eof", "", line, (len(text) if end < 0 else end) - bol + 1))
    return toks


@S.frozen
class ProofScript:
    """Named games, formula abbreviations, and theorems, in file order."""

    games: dict
    formulas: dict
    theorems: dict  # name -> (Formula, ProofTerm)
    order: list  # [(kind, name)]

    def items_in_order(self):
        for kind, name in self.order:
            if kind == "game":
                yield kind, name, self.games[name]
            elif kind == "formula":
                yield kind, name, self.formulas[name]
            else:
                yield kind, name, self.theorems[name]


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.toks.append(self.toks[-1])  # what `peek(1)` sees at the end
        self.pos = 0
        self.games: dict = {}
        self.formulas: dict = {}
        self.used_names = {t.text for t in self.toks if t.kind == "ident"}
        self._auto = 0

    # -- token plumbing -------------------------------------------------------

    def peek(self, k=0) -> Token:
        return self.toks[self.pos + k]

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def at(self, text: str, k=0) -> bool:
        t = self.toks[self.pos + k]
        return t.text == text and t.kind in ("punct", "keyword")

    def eat(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise ParseError(f"found {t.text!r}", t.line, t.col, (repr(text),))
        return self.next()

    def ident(self, what="identifier") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"found {t.text!r}", t.line, t.col, (what,))
        return self.next().text

    def fresh_ghost(self, base: str) -> str:
        while True:
            self._auto += 1
            cand = f"{base}{self._auto}"
            if cand not in self.used_names:
                self.used_names.add(cand)
                return cand

    # -- scripts ----------------------------------------------------------------

    def script(self) -> ProofScript:
        theorems = {}
        order = []
        while not self.peek().kind == "eof":
            t = self.peek()
            if self.at("game"):
                self.next()
                name = self.ident("game name")
                self._unique(name)
                self.eat("=")
                self.games[name] = self.game()
                order.append(("game", name))
            elif self.at("formula"):
                self.next()
                name = self.ident("formula name")
                self._unique(name)
                self.eat("=")
                self.formulas[name] = self.formula()
                order.append(("formula", name))
            elif self.at("theorem"):
                self.next()
                name = self.ident("theorem name")
                self._unique(name)
                self.eat(":")
                phi = self.formula()
                self.eat("=")
                proof = self.proof()
                theorems[name] = (phi, proof)
                order.append(("theorem", name))
            else:
                raise ParseError(
                    f"found {t.text!r}", t.line, t.col,
                    ("game", "formula", "theorem"),
                )
        return ProofScript(self.games, self.formulas, theorems, order)

    def _unique(self, name):
        if name in self.games or name in self.formulas:
            t = self.peek()
            raise ParseError(f"duplicate definition {name}", t.line, t.col)

    # -- operators ----------------------------------------------------------------

    def _binary(self, ops: dict, operand, level: int):
        """An operand and the operators of `ops` after it whose precedence is
        at least `level`, read by precedence climbing (`printer.OPERATORS`).
        A run of right-associative operators of one precedence is collected
        and folded from the right, so its length costs no frames."""
        left = operand(self)
        while True:
            t = self.peek()
            op = ops.get(t.text)
            if op is None or op[1] < level:
                return left
            # a '*' not followed by a term is game repetition, not product
            if t.text == "*" and self._star_is_postfix():
                return left
            self.next()
            build, prec, right = op
            if right > prec:  # left-associative
                left = build(left, self._binary(ops, operand, right))
                continue
            run = [(left, build)]
            left = self._binary(ops, operand, prec + 1)
            while (op := ops.get(self.peek().text)) is not None and op[1] == prec:
                self.next()
                run.append((left, op[0]))
                left = self._binary(ops, operand, prec + 1)
            for a, build in reversed(run):
                left = build(a, left)

    # -- terms --------------------------------------------------------------------

    def term(self) -> S.Term:
        return self._binary(_OPERATORS["term"], Parser.term_unary, 0)

    def _star_is_postfix(self) -> bool:
        nxt = self.peek(1)
        return nxt.kind not in ("number", "ident") and nxt.text not in (
            "(", "abs", "min", "max", "-",
        )

    def term_unary(self) -> S.Term:
        if self.at("-"):
            self.next()
            # a minus sign directly on a number literal is a negative
            # literal; anything else stays a negation node
            if self.peek().kind == "number":
                lit = self.term_atom()
                return S.Lit(-lit.value)
            return S.Neg(self.term_unary())
        return self.term_atom()

    def term_atom(self) -> S.Term:
        t = self.peek()
        if t.kind == "number":
            self.next()
            if self.at("/") and self.peek(1).kind == "number":
                self.next()
                den = self.next().text
                if "." in t.text or "." in den:
                    raise ParseError(f"{t.text}/{den}: a fraction's parts are integers", t.line, t.col)
                if not int(den):
                    raise ParseError(f"{t.text}/{den}: denominator 0", t.line, t.col)
                return S.Lit(parse_rational(f"{t.text}/{den}"))
            return S.Lit(parse_rational(t.text))
        if self.at("abs") or self.at("min") or self.at("max"):
            fn = self.next().text
            self.eat("(")
            a = self.term()
            if fn == "abs":
                self.eat(")")
                return S.Abs(a)
            self.eat(",")
            b = self.term()
            self.eat(")")
            return S.Min(a, b) if fn == "min" else S.Max(a, b)
        if self.at("("):
            self.next()
            inner = self.term()
            self.eat(")")
            return inner
        if t.kind == "ident":
            return S.Var(self.next().text)
        raise ParseError(f"found {t.text!r}", t.line, t.col, ("term",))

    # -- formulas --------------------------------------------------------------------

    def formula(self, level=0) -> S.Formula:
        return self._binary(_OPERATORS["formula"], Parser.formula_prefix, level)

    def formula_prefix(self) -> S.Formula:
        t = self.peek()
        if self.at("tt"):
            self.next()
            return S.TRUE
        if self.at("ff"):
            self.next()
            return S.FALSE
        if self.at("!"):
            self.next()
            return S.Not(self.formula_prefix())
        if self.at("forall") or self.at("exists"):
            q = self.next().text
            x = self.ident("bound variable")
            body = self.formula_prefix()
            return S.Forall(x, body) if q == "forall" else S.Exists(x, body)
        if self.at("<"):
            self.next()
            g = self.game()
            self.eat(">")
            return S.Diamond(g, self.formula_prefix())
        if self.at("["):
            self.next()
            g = self.game()
            self.eat("]")
            return S.Box(g, self.formula_prefix())
        if self.at("("):
            # '(' opens either a formula or the left term of a comparison;
            # try the formula reading and fall back on failure
            save = self.pos
            try:
                self.next()
                inner = self.formula()
                self.eat(")")
                return inner
            except ParseError as e:
                self.pos = save
                try:
                    return self.comparison()
                except ParseError as e2:
                    # both readings fail: report the one that got further
                    raise e if (e.line, e.col) > (e2.line, e2.col) else e2 from None
        if t.kind == "ident" and t.text in self.formulas:
            # formula abbreviations shadow program variables by name
            return self.formulas[self.next().text]
        return self.comparison()

    def comparison(self) -> S.Formula:
        t = self.peek()
        left = self.term()
        if self.at("succ"):
            self.next()
            right = self.term()
            from .checker import succ_formula

            return succ_formula(left, right)
        for rel in ("<=", "<", "=", "!=", ">", ">="):
            if self.at(rel):
                self.next()
                return S.Cmp(left, rel, self.term())
        raise ParseError(
            f"found {self.peek().text!r} after term", t.line, t.col,
            ("comparison operator",),
        )

    # -- games --------------------------------------------------------------------------

    def game(self) -> S.Game:
        return self._binary(_OPERATORS["game"], Parser.game_postfix, 0)

    def game_postfix(self) -> S.Game:
        g = self.game_atom()
        while self.at("*") or self.at("^d"):
            g = S.Repeat(g) if self.next().text == "*" else S.Dual(g)
        return g

    def game_atom(self) -> S.Game:
        t = self.peek()
        if self.at("?"):
            self.next()
            return S.Test(self.formula(2))  # a test's formula ends at `<->`
        if self.at("{"):
            self.next()
            inner = self.game()
            self.eat("}")
            return inner
        if t.kind == "ident":
            if self.peek(1).text == ":=":
                x = self.next().text
                self.eat(":=")
                if self.at("*"):
                    self.next()
                    return S.AssignAny(x)
                return S.Assign(x, self.term())
            if t.text in self.games:
                return self.games[self.next().text]
            raise ParseError(f"unknown game {t.text!r}", t.line, t.col)
        raise ParseError(f"found {t.text!r}", t.line, t.col, ("game",))

    # -- proofs --------------------------------------------------------------------------

    def proof(self, level=CASE) -> P.ProofTerm:
        """A proof at `level`: a lambda (at CASE only), a form of the proof
        table whose precedence is at least `level`, or a variable or a
        parenthesized proof, followed up to APP by application arguments."""
        t = self.peek()
        if t.text == "\\" and level == CASE:
            self.next()
            x = self.ident("binder")
            self.eat(":")
            if self.at("Q"):
                self.next()
                ghost = None
                if self.at("as"):
                    self.next()
                    ghost = self.ident("ghost name")
                self.eat(".")
                body = self.proof()
                return P.NumLam(x, ghost or self.fresh_ghost(x), body)
            ann = self.formula()
            self.eat(".")
            return P.Lam(x, ann, self.proof())
        form = _FORMS.get(t.text)
        if form is not None and form[3] >= level:
            m = self._form(form)
            if form[3] < APP:  # a case or prefix form extends as far right as it can
                return m
        elif t.text == "(":
            self.next()
            m = self.proof()
            self.eat(")")
        elif t.kind == "ident":
            m = P.PVar(self.next().text)
        else:
            raise ParseError(f"found {t.text!r}", t.line, t.col, ("proof term",))
        while level <= APP:
            t = self.peek()
            if self.at("@"):
                self.next()
                m = P.NumApp(m, self.term_atom())
            elif t.kind == "ident" or t.text in _ARG_OPENERS:
                m = P.App(m, self.proof(ATOM))
            else:
                break
        return m

    def _form(self, form) -> P.ProofTerm:
        """The proof table's `form`, read field by field."""
        cls, flavor, pieces, _ = form
        vals = {} if flavor is None else {"flavor": flavor}
        for piece in pieces:
            if type(piece) is str:
                self.eat(piece)
                continue
            name, kind, sub, optional = piece
            if optional:  # `{ghost,}`
                if self.peek().kind == "ident" and self.at(",", 1):
                    vals[name] = self.next().text
                    self.next()
                else:
                    vals[name] = self.fresh_ghost(vals["var"])
            elif kind == "str":
                vals[name] = self.ident(_NAMED.get(name, "binder"))
            elif kind == "ProofTerm":
                # a case in a left branch is read too; only the printer
                # puts it in parentheses
                vals[name] = self.proof(PREFIX if sub == PREFIX else CASE)
            elif kind == "Term":
                vals[name] = self.term()
            elif kind == "Formula":
                vals[name] = self.formula()
            else:
                vals[name] = self._payload()
        return cls(*[vals[f] for f in cls.__match_args__])

    def _payload(self) -> Optional[P.ProofTerm]:
        if self.at(")"):
            return None
        parts = [self.proof()]
        while self.at(","):
            self.next()
            parts.append(self.proof())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = P.DPair(p, out)
        return out


# what a name field is called in an error's expected set
_NAMED = {
    "var": "variable", "ghost": "ghost", "hyp": "hypothesis",
    "mhyp": "metric hypothesis", "m0": "metric snapshot",
}


def _lexed(pieces: tuple) -> tuple:
    """Template pieces with each literal text split into its tokens' texts."""
    return tuple(x for p in pieces for x in (
        [t.text for t in tokenize(p)[:-1]] if type(p) is str else [p]))


# the proof table's forms by the token that opens them
_FORMS = {
    lexed[0]: (cls, flavor, lexed, prec)
    for (cls, flavor), (pieces, prec) in FORM_OF.items()
    if (lexed := _lexed(pieces))
}

# besides a variable, the tokens that open an application's argument
_ARG_OPENERS = {"("} | {tok for tok, form in _FORMS.items() if form[0] in _BARE_ARGS}

# sort -> token -> (constructor, precedence, level of the right operand)
_OPERATORS = {
    sort: {tok: (build, prec, prec + (assoc == "left")) for tok, build, _, prec, assoc, _, _ in rows}
    for sort, rows in OPERATORS.items()
}


def parse_script(text: str) -> ProofScript:
    return Parser(text).script()


def _parse_text(text: str, read):
    """read(Parser(text)), which must consume the whole text."""
    p = Parser(text)
    out = read(p)
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return out


def parse_formula_text(text: str) -> S.Formula:
    return _parse_text(text, Parser.formula)


def parse_term_text(text: str) -> S.Term:
    return _parse_text(text, Parser.term)


def parse_game_text(text: str) -> S.Game:
    return _parse_text(text, Parser.game)


def parse_proof_text(text: str) -> P.ProofTerm:
    return _parse_text(text, Parser.proof)
