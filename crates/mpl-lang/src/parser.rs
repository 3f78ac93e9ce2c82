//! Recursive-descent parser for MPL.
//!
//! Grammar (EBNF):
//!
//! ```text
//! program  := stmt*
//! stmt     := "if" expr "then" stmt* ("else" stmt*)? "end"
//!           | "while" expr "do" stmt* "end"
//!           | "for" IDENT ":=" expr "to" expr "do" stmt* "end"
//!           | IDENT ":=" expr ";"
//!           | "send" expr "->" expr ";"
//!           | "recv" IDENT "<-" expr ";"
//!           | "print" expr ";"
//!           | "assume" expr ";"
//!           | "skip" ";"
//! expr     := or
//! or       := and ("or" and)*
//! and      := not ("and" not)*
//! not      := "not" not | cmp
//! cmp      := sum (("="|"!="|"<"|"<="|">"|">=") sum)?
//! sum      := term (("+"|"-") term)*
//! term     := unary (("*"|"/"|"%") unary)*
//! unary    := "-" unary | atom
//! atom     := INT | IDENT | "id" | "np" | "true" | "false" | "(" expr ")"
//! ```
//!
//! For-loop headers also accept `=` in place of `:=` so the paper's
//! `for i=1 to np-1` parses verbatim.
//!
//! Nesting — parenthesised and unary sub-expressions plus `if`/`while`/
//! `for` bodies, counted together — is capped at [`MAX_NESTING`], and the
//! height of an expression tree at [`MAX_EXPR_HEIGHT`], so a hostile input
//! is a [`ParseError`] rather than a stack overflow here or in the
//! recursive passes (CFG build, analysis, rendering) downstream.

use std::error::Error;
use std::fmt;

use crate::ast::{BinOp, Expr, Program, Stmt, StmtKind, UnOp};
use crate::lexer::{tokenize, LexError};
use crate::token::{Span, Token, TokenKind};

/// An error produced while parsing MPL source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Location of the offending token.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            message: e.message,
        }
    }
}

/// The deepest nesting [`parse_program`] accepts. A program exactly at
/// the cap still parses, analyzes and renders on a thread with the
/// default 2 MiB stack (an `mpl serve` connection) with twice the depth
/// to spare: an unoptimized build runs out near 260 nested `if`s or 310
/// nested parentheses.
pub const MAX_NESTING: usize = 128;

/// The tallest expression tree [`parse_program`] accepts, counted in
/// operators on the longest root-to-leaf path: the flat chain
/// `1 + 1 + … + 1` of `k` terms has height `k − 1`. Nesting alone does
/// not bound this — such a chain parses iteratively at nesting 0 — but
/// every pass after the parser recurses over the tree. An unoptimized
/// build on a 2 MiB stack runs out near height 1660 (the simulator's
/// evaluator; analysis, rendering and the other commands near 2090), with
/// or without 120 enclosing `if`s; the cap leaves more than half of that
/// to spare.
pub const MAX_EXPR_HEIGHT: usize = 512;

/// An expression with its height (see [`MAX_EXPR_HEIGHT`]).
type Measured = (Expr, usize);

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nested sub-expressions and blocks open around `pos`.
    depth: usize,
}

impl Parser {
    /// Runs `f` one nesting level deeper, failing at [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error_here(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.error_here(&format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.bump();
                let TokenKind::Ident(name) = t.kind else {
                    unreachable!()
                };
                Ok((name, t.span))
            }
            other => {
                let msg = format!("expected identifier, found {}", other.describe());
                Err(self.error_here(&msg))
            }
        }
    }

    fn error_here(&self, message: &str) -> ParseError {
        ParseError {
            span: self.peek().span,
            message: message.to_owned(),
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let stmts = self.parse_block(&[TokenKind::Eof])?;
        self.expect(&TokenKind::Eof)?;
        Ok(Program::new(stmts))
    }

    /// Parses statements until one of `stop` tokens is at the front
    /// (the stop token is not consumed).
    fn parse_block(&mut self, stop: &[TokenKind]) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while !stop.iter().any(|k| self.at(k)) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        // Compound statements recurse through a frame of their own, so
        // the simple statements' locals stay off the nesting path.
        let kind = match self.peek().kind {
            TokenKind::If | TokenKind::While | TokenKind::For => {
                self.nested(Parser::parse_compound)?
            }
            _ => self.parse_simple()?,
        };
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Stmt {
            kind,
            span: start.merge(end),
        })
    }

    /// Parses a statement that contains no block.
    fn parse_simple(&mut self) -> Result<StmtKind, ParseError> {
        Ok(match self.peek().kind.clone() {
            TokenKind::Send => {
                self.bump();
                let value = self.parse_expr()?;
                self.expect(&TokenKind::Arrow)?;
                let dest = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Send { value, dest }
            }
            TokenKind::Recv => {
                self.bump();
                let (var, _) = self.expect_ident()?;
                self.expect(&TokenKind::BackArrow)?;
                let src = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Recv { var, src }
            }
            TokenKind::Print => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Print(e)
            }
            TokenKind::Assume => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Assume(e)
            }
            TokenKind::Skip => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                StmtKind::Skip
            }
            TokenKind::Ident(_) => {
                let (name, _) = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.parse_expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Assign { name, value }
            }
            other => {
                return Err(
                    self.error_here(&format!("expected a statement, found {}", other.describe()))
                )
            }
        })
    }

    /// Parses an `if`, `while` or `for` statement, body included.
    fn parse_compound(&mut self) -> Result<StmtKind, ParseError> {
        Ok(match self.bump().kind {
            TokenKind::If => {
                let cond = self.parse_expr()?;
                self.expect(&TokenKind::Then)?;
                let then_branch = self.parse_block(&[TokenKind::Else, TokenKind::End])?;
                let else_branch = if self.eat(&TokenKind::Else) {
                    self.parse_block(&[TokenKind::End])?
                } else {
                    Vec::new()
                };
                self.expect(&TokenKind::End)?;
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            }
            TokenKind::While => {
                let cond = self.parse_expr()?;
                self.expect(&TokenKind::Do)?;
                let body = self.parse_block(&[TokenKind::End])?;
                self.expect(&TokenKind::End)?;
                StmtKind::While { cond, body }
            }
            // `for`: the only other compound statement.
            _ => {
                let (var, _) = self.expect_ident()?;
                // Accept both `:=` and `=` in for headers.
                if !self.eat(&TokenKind::Assign) {
                    self.expect(&TokenKind::Eq)?;
                }
                let from = self.parse_expr()?;
                self.expect(&TokenKind::To)?;
                let to = self.parse_expr()?;
                self.expect(&TokenKind::Do)?;
                let body = self.parse_block(&[TokenKind::End])?;
                self.expect(&TokenKind::End)?;
                StmtKind::For {
                    var,
                    from,
                    to,
                    body,
                }
            }
        })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.parse_or()?.0)
    }

    /// `e` one operator taller than its tallest operand (of height `h`),
    /// failing past [`MAX_EXPR_HEIGHT`].
    fn taller(&self, e: Expr, h: usize) -> Result<Measured, ParseError> {
        if h >= MAX_EXPR_HEIGHT {
            return Err(self.error_here(&format!(
                "expression taller than {MAX_EXPR_HEIGHT} operators"
            )));
        }
        Ok((e, h + 1))
    }

    fn binary(
        &self,
        op: BinOp,
        (l, hl): Measured,
        (r, hr): Measured,
    ) -> Result<Measured, ParseError> {
        self.taller(Expr::binary(op, l, r), hl.max(hr))
    }

    fn parse_or(&mut self) -> Result<Measured, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            let rhs = self.parse_and()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Measured, ParseError> {
        let mut lhs = self.parse_not()?;
        while self.eat(&TokenKind::And) {
            let rhs = self.parse_not()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Measured, ParseError> {
        if self.eat(&TokenKind::Not) {
            let (e, h) = self.nested(Parser::parse_not)?;
            self.taller(Expr::Unary(UnOp::Not, Box::new(e)), h)
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Measured, ParseError> {
        let lhs = self.parse_sum()?;
        let op = match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_sum()?;
        self.binary(op, lhs, rhs)
    }

    fn parse_sum(&mut self) -> Result<Measured, ParseError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_term()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
    }

    fn parse_term(&mut self) -> Result<Measured, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
    }

    fn parse_unary(&mut self) -> Result<Measured, ParseError> {
        if self.eat(&TokenKind::Minus) {
            let (e, h) = self.nested(Parser::parse_unary)?;
            // Constant-fold negative literals so `-1` is `Int(-1)`.
            if let Expr::Int(n) = e {
                return Ok((Expr::Int(-n), 0));
            }
            self.taller(Expr::Unary(UnOp::Neg, Box::new(e)), h)
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Measured, ParseError> {
        let leaf = match self.peek().kind.clone() {
            TokenKind::Int(n) => Expr::Int(n),
            TokenKind::True => Expr::Bool(true),
            TokenKind::False => Expr::Bool(false),
            TokenKind::Ident(name) => Expr::Var(name),
            TokenKind::Id => Expr::Id,
            TokenKind::Np => Expr::Np,
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(Parser::parse_or)?;
                self.expect(&TokenKind::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(self.error_here(&format!(
                    "expected an expression, found {}",
                    other.describe()
                )))
            }
        };
        self.bump();
        Ok((leaf, 0))
    }
}

/// Parses MPL source into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] (with line/column information) on malformed
/// input.
///
/// ```
/// let p = mpl_lang::parse_program("x := np - 1; send x -> (id + 1) % np;")?;
/// assert_eq!(p.stmts.len(), 2);
/// # Ok::<(), mpl_lang::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, StmtKind};

    #[test]
    fn parses_assignment_with_precedence() {
        let p = parse_program("x := 1 + 2 * 3;").unwrap();
        let StmtKind::Assign { value, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(
            *value,
            Expr::binary(
                BinOp::Add,
                Expr::Int(1),
                Expr::binary(BinOp::Mul, Expr::Int(2), Expr::Int(3))
            )
        );
    }

    #[test]
    fn parses_parenthesized_grouping() {
        let p = parse_program("x := (1 + 2) * 3;").unwrap();
        let StmtKind::Assign { value, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(
            *value,
            Expr::binary(
                BinOp::Mul,
                Expr::binary(BinOp::Add, Expr::Int(1), Expr::Int(2)),
                Expr::Int(3)
            )
        );
    }

    #[test]
    fn parses_if_else() {
        let p = parse_program("if id = 0 then x := 1; else x := 2; end").unwrap();
        let StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } = &p.stmts[0].kind
        else {
            panic!()
        };
        assert_eq!(*cond, Expr::binary(BinOp::Eq, Expr::Id, Expr::Int(0)));
        assert_eq!(then_branch.len(), 1);
        assert_eq!(else_branch.len(), 1);
    }

    #[test]
    fn parses_if_without_else() {
        let p = parse_program("if id < np then skip; end").unwrap();
        let StmtKind::If { else_branch, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert!(else_branch.is_empty());
    }

    #[test]
    fn parses_for_with_paper_syntax() {
        // The paper writes `for i=1 to np-1`.
        let p = parse_program("for i = 1 to np - 1 do send 0 -> i; end").unwrap();
        let StmtKind::For {
            var,
            from,
            to,
            body,
        } = &p.stmts[0].kind
        else {
            panic!()
        };
        assert_eq!(var, "i");
        assert_eq!(*from, Expr::Int(1));
        assert_eq!(*to, Expr::binary(BinOp::Sub, Expr::Np, Expr::Int(1)));
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn parses_send_recv() {
        let p = parse_program("send x + 1 -> id + 1; recv y <- id - 1;").unwrap();
        assert!(matches!(p.stmts[0].kind, StmtKind::Send { .. }));
        let StmtKind::Recv { var, src } = &p.stmts[1].kind else {
            panic!()
        };
        assert_eq!(var, "y");
        assert_eq!(*src, Expr::binary(BinOp::Sub, Expr::Id, Expr::Int(1)));
    }

    #[test]
    fn parses_nested_control_flow() {
        let src = "
            for i = 0 to 3 do
                if i % 2 = 0 then
                    while x < i do x := x + 1; end
                end
            end";
        let p = parse_program(src).unwrap();
        assert_eq!(p.stmts.len(), 1);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn parses_negative_literals() {
        let p = parse_program("x := -5;").unwrap();
        let StmtKind::Assign { value, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(*value, Expr::Int(-5));
    }

    #[test]
    fn parses_logical_operators() {
        let p = parse_program("if id = 0 or id = np - 1 and not (x < 2) then skip; end").unwrap();
        let StmtKind::If { cond, .. } = &p.stmts[0].kind else {
            panic!()
        };
        // `and` binds tighter than `or`.
        let Expr::Binary(BinOp::Or, _, rhs) = cond else {
            panic!("expected or at top")
        };
        assert!(matches!(**rhs, Expr::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn parses_assume() {
        let p = parse_program("assume np = nrows * ncols;").unwrap();
        assert!(matches!(p.stmts[0].kind, StmtKind::Assume(_)));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse_program("x := 1").unwrap_err();
        assert!(err.message.contains("`;`"), "{}", err.message);
    }

    #[test]
    fn error_on_missing_end() {
        let err = parse_program("if id = 0 then x := 1;").unwrap_err();
        assert!(err.message.contains("statement") || err.message.contains("`end`"));
    }

    #[test]
    fn error_on_chained_comparison() {
        // `a < b < c` is not allowed (cmp is non-associative).
        assert!(parse_program("if 1 < 2 < 3 then skip; end").is_err());
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse_program("x := 1;\ny := ;").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn empty_program_parses() {
        assert!(parse_program("").unwrap().is_empty());
    }

    #[test]
    fn nesting_is_capped() {
        let parens = |k: usize| format!("x := {}1{};", "(".repeat(k), ")".repeat(k));
        let negs = |k: usize| format!("x := {}y;", "- ".repeat(k));
        let ifs = |k: usize| format!("{}skip;{}", "if x then ".repeat(k), " end".repeat(k));
        let fors = |k: usize| {
            format!(
                "{}skip;{}",
                "for i := 0 to 1 do ".repeat(k),
                " end".repeat(k)
            )
        };
        for nest in [parens, negs, ifs, fors] {
            assert!(parse_program(&nest(MAX_NESTING)).is_ok());
            let err = parse_program(&nest(MAX_NESTING + 1)).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{err}");
            // Far past the cap: an error, not a stack overflow.
            assert!(parse_program(&nest(200_000)).is_err());
        }
        // Sub-expressions and blocks count towards one shared depth.
        let half = MAX_NESTING / 2;
        let mixed = |k: usize| {
            format!(
                "{}{}{}",
                "while x do ".repeat(half),
                parens(k),
                " end".repeat(half)
            )
        };
        assert!(parse_program(&mixed(MAX_NESTING - half)).is_ok());
        assert!(parse_program(&mixed(MAX_NESTING - half + 1)).is_err());
    }

    #[test]
    fn expression_height_is_capped() {
        // A flat chain of `k` operators is `k` tall at nesting 0.
        let chain = |op: &str, k: usize| vec!["1"; k + 1].join(op);
        let assign = |op: &str, k: usize| format!("x := {};", chain(op, k));
        for op in [" + ", " - ", " * ", " and ", " or "] {
            assert!(parse_program(&assign(op, MAX_EXPR_HEIGHT)).is_ok(), "{op}");
            let err = parse_program(&assign(op, MAX_EXPR_HEIGHT + 1)).unwrap_err();
            assert!(
                err.message.contains("expression taller than"),
                "{op}: {err}"
            );
            // Far past the cap: an error, not a stack overflow later.
            assert!(parse_program(&assign(op, 100_000)).is_err(), "{op}");
        }
        // Height adds up through parentheses, comparisons and unary
        // operators, which nest the chain without flattening it.
        let half = MAX_EXPR_HEIGHT / 2;
        let nested = |k: usize| format!("x := ({}) + {};", chain(" * ", half), chain(" + ", k));
        assert!(parse_program(&nested(MAX_EXPR_HEIGHT - half - 1)).is_ok());
        assert!(parse_program(&nested(MAX_EXPR_HEIGHT - half)).is_err());
        let compared = |k: usize| format!("if {} < 2 then skip; end", chain(" + ", k));
        assert!(parse_program(&compared(MAX_EXPR_HEIGHT - 1)).is_ok());
        assert!(parse_program(&compared(MAX_EXPR_HEIGHT)).is_err());
        let negated = |k: usize| format!("x := -({});", chain(" + ", k));
        assert!(parse_program(&negated(MAX_EXPR_HEIGHT - 1)).is_ok());
        assert!(parse_program(&negated(MAX_EXPR_HEIGHT)).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ast::{BinOp, Expr, Program, Stmt, StmtKind};
    use mpl_rng::Rng64;

    /// A random identifier avoiding MPL keywords (`or`, `do`, …) —
    /// reserved words cannot round-trip as variable names.
    fn gen_ident(rng: &mut Rng64) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvw";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        const KEYWORDS: &[&str] = &[
            "if", "then", "else", "end", "while", "do", "for", "to", "send", "recv", "receive",
            "print", "assume", "assert", "skip", "id", "me", "np", "and", "or", "not", "true",
            "false",
        ];
        let mut name = String::new();
        name.push(*rng.pick(FIRST) as char);
        for _ in 0..rng.index(7) {
            name.push(*rng.pick(REST) as char);
        }
        if KEYWORDS.contains(&name.as_str()) {
            format!("v_{name}")
        } else {
            name
        }
    }

    fn gen_expr(rng: &mut Rng64, depth: u32) -> Expr {
        if depth > 0 && rng.index(3) == 0 {
            let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]);
            let l = gen_expr(rng, depth - 1);
            let r = gen_expr(rng, depth - 1);
            return Expr::binary(op, l, r);
        }
        match rng.index(4) {
            0 => Expr::Int(rng.i64_in(-1000, 1000)),
            1 => Expr::Id,
            2 => Expr::Np,
            _ => Expr::Var(gen_ident(rng)),
        }
    }

    fn gen_stmts(rng: &mut Rng64, depth: u32, max: usize) -> Vec<Stmt> {
        (0..rng.index(max + 1))
            .map(|_| gen_stmt(rng, depth))
            .collect()
    }

    fn gen_stmt(rng: &mut Rng64, depth: u32) -> Stmt {
        let leaf = |rng: &mut Rng64| match rng.index(4) {
            0 => Stmt::synthetic(StmtKind::Assign {
                name: gen_ident(rng),
                value: gen_expr(rng, 4),
            }),
            1 => Stmt::synthetic(StmtKind::Send {
                value: gen_expr(rng, 4),
                dest: gen_expr(rng, 4),
            }),
            2 => Stmt::synthetic(StmtKind::Recv {
                var: gen_ident(rng),
                src: gen_expr(rng, 4),
            }),
            _ => Stmt::synthetic(StmtKind::Print(gen_expr(rng, 4))),
        };
        if depth == 0 {
            return leaf(rng);
        }
        // 3:1:1 odds of leaf : if : while, as in the original strategy.
        match rng.index(5) {
            0 => {
                let cond = Expr::binary(BinOp::Le, gen_expr(rng, 4), gen_expr(rng, 4));
                Stmt::synthetic(StmtKind::If {
                    cond,
                    then_branch: gen_stmts(rng, depth - 1, 2),
                    else_branch: gen_stmts(rng, depth - 1, 2),
                })
            }
            1 => {
                let cond = Expr::binary(BinOp::Le, gen_expr(rng, 4), gen_expr(rng, 4));
                Stmt::synthetic(StmtKind::While {
                    cond,
                    body: gen_stmts(rng, depth - 1, 2),
                })
            }
            _ => leaf(rng),
        }
    }

    /// Display ∘ parse is the identity on printed programs: any AST we
    /// can build pretty-prints to something that parses back to the
    /// same printed form.
    #[test]
    fn display_parse_round_trip() {
        let mut rng = Rng64::seed_from_u64(0x5EED_1234);
        for case in 0..128 {
            let stmts: Vec<Stmt> = (0..1 + rng.index(5))
                .map(|_| gen_stmt(&mut rng, 2))
                .collect();
            let program = Program::new(stmts);
            let printed = program.to_string();
            let reparsed =
                parse_program(&printed).unwrap_or_else(|e| panic!("case {case}: {e}\n{printed}"));
            assert_eq!(printed, reparsed.to_string(), "case {case}");
        }
    }
}
