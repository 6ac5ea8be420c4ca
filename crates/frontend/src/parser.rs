//! Recursive-descent parser lowering PhloemC directly to [`Function`]s.
//!
//! Supported subset (everything the paper's kernels use):
//!
//! * `void f(long n, double a, int* restrict xs, ...)` — scalars are
//!   `long`/`int` (64-bit) or `double`; pointers are arrays and **must**
//!   be `restrict`-qualified (Sec. IV-A: "the programmer must provide
//!   precise aliasing information").
//! * declarations with optional initializers, assignments, `op=`
//!   compound assignments, `x++`;
//! * `if`/`else`, `while`, `break`, and canonical counted `for` loops
//!   (`for (long i = e1; i < e2; i++)`);
//! * expressions with C precedence. `&&`/`||` lower to bitwise ops over
//!   0/1 values (no short-circuit — conditions must be side-effect
//!   free, which the grammar already guarantees).

use crate::lexer::{lex, Tok, Token};
use phloem_ir::{
    ArrayDecl, ArrayId, BinOp, Expr, Function, FunctionBuilder, LoadId, Ty, UnOp, VarId,
};
use std::collections::HashMap;
use std::fmt;

/// Pragma annotations attached to a function (Table II).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pragmas {
    /// `#pragma phloem`: mark for automatic pipeline parallelization.
    pub phloem: bool,
    /// `#pragma replicate(N)`: replicate the pipeline N times.
    pub replicate: Option<usize>,
    /// `#pragma distribute`: insert a data-centric distribute boundary.
    pub distribute: bool,
    /// Loads marked by `#pragma decouple` (forced cut points).
    pub decouple_loads: Vec<LoadId>,
}

/// A parsed function plus its pragmas.
#[derive(Clone, Debug)]
pub struct CFunction {
    /// The lowered IR function.
    pub func: Function,
    /// Its pragma annotations.
    pub pragmas: Pragmas,
}

/// Parse error with a line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Message.
    pub msg: String,
    /// 1-based source line (0 = end of input).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Copy)]
enum Sym {
    Var(VarId),
    Array(ArrayId),
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    scopes: Vec<HashMap<String, Sym>>,
    pending_decouple: bool,
    pragmas: Pragmas,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            msg: msg.into(),
            line: self.toks.get(self.pos).map(|t| t.line).unwrap_or(0),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.check_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn check_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        if self.check_punct(p) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {:?}", self.peek()))
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<Sym> {
        for scope in self.scopes.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Some(*s);
            }
        }
        None
    }

    fn define(&mut self, name: &str, sym: Sym) {
        self.scopes
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), sym);
    }

    // -- types ---------------------------------------------------------

    /// Parses a scalar type keyword if present: long/int -> I64,
    /// double/float -> F64.
    fn scalar_type(&mut self) -> Option<Ty> {
        for (kw, ty) in [
            ("long", Ty::I64),
            ("int", Ty::I64),
            ("double", Ty::F64),
            ("float", Ty::F64),
        ] {
            if self.eat_ident(kw) {
                return Some(ty);
            }
        }
        None
    }

    // -- expressions ----------------------------------------------------

    fn primary(&mut self, b: &mut FunctionBuilder) -> PResult<Expr> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::i64(v)),
            Some(Tok::Float(v)) => Ok(Expr::f64(v)),
            Some(Tok::Punct("(")) => {
                let e = self.expr(b)?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.check_punct("(") {
                    return self.err(format!(
                        "function calls are not supported in PhloemC (`{name}`)"
                    ));
                }
                match self.lookup(&name) {
                    Some(Sym::Var(v)) => Ok(Expr::var(v)),
                    Some(Sym::Array(a)) => {
                        self.expect_punct("[")?;
                        let idx = self.expr(b)?;
                        self.expect_punct("]")?;
                        if self.pending_decouple {
                            self.pending_decouple = false;
                            self.pragmas.decouple_loads.push(b.peek_next_load_id());
                        }
                        Ok(b.load(a, idx))
                    }
                    None => self.err(format!("undeclared identifier `{name}`")),
                }
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected expression, found {other:?}"))
            }
        }
    }

    fn unary(&mut self, b: &mut FunctionBuilder) -> PResult<Expr> {
        if self.eat_punct("-") {
            return Ok(Expr::un(UnOp::Neg, self.unary(b)?));
        }
        if self.eat_punct("!") {
            return Ok(Expr::un(UnOp::Not, self.unary(b)?));
        }
        if self.eat_punct("~") {
            return Ok(Expr::un(UnOp::BitNot, self.unary(b)?));
        }
        self.primary(b)
    }

    fn binary(&mut self, b: &mut FunctionBuilder, min_level: usize) -> PResult<Expr> {
        // Precedence levels, loosest first.
        const LEVELS: &[&[(&str, BinOp)]] = &[
            &[("||", BinOp::Or)],
            &[("&&", BinOp::And)],
            &[("|", BinOp::Or)],
            &[("^", BinOp::Xor)],
            &[("&", BinOp::And)],
            &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            &[("<<", BinOp::Shl), (">>", BinOp::Shr)],
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Rem)],
        ];
        if min_level >= LEVELS.len() {
            return self.unary(b);
        }
        let mut lhs = self.binary(b, min_level + 1)?;
        'outer: loop {
            for (p, op) in LEVELS[min_level] {
                if self.check_punct(p) {
                    self.pos += 1;
                    let rhs = self.binary(b, min_level + 1)?;
                    lhs = Expr::bin(*op, lhs, rhs);
                    continue 'outer;
                }
            }
            break;
        }
        Ok(lhs)
    }

    fn expr(&mut self, b: &mut FunctionBuilder) -> PResult<Expr> {
        self.binary(b, 0)
    }

    // -- statements -----------------------------------------------------

    fn block(&mut self, b: &mut FunctionBuilder) -> PResult<()> {
        self.expect_punct("{")?;
        self.scopes.push(HashMap::new());
        while !self.check_punct("}") {
            if self.peek().is_none() {
                return self.err("unexpected end of input in block");
            }
            self.stmt(b)?;
        }
        self.scopes.pop();
        self.expect_punct("}")
    }

    fn compound_op(p: &str) -> Option<BinOp> {
        match p {
            "+=" => Some(BinOp::Add),
            "-=" => Some(BinOp::Sub),
            "*=" => Some(BinOp::Mul),
            "/=" => Some(BinOp::Div),
            "|=" => Some(BinOp::Or),
            "&=" => Some(BinOp::And),
            "^=" => Some(BinOp::Xor),
            _ => None,
        }
    }

    fn stmt(&mut self, b: &mut FunctionBuilder) -> PResult<()> {
        // Pragmas inside bodies: only `decouple` is meaningful here.
        if let Some(Tok::Pragma(p)) = self.peek() {
            let p = p.clone();
            self.pos += 1;
            if p.trim() == "decouple" {
                self.pending_decouple = true;
                return self.stmt(b);
            }
            return self.err(format!("unexpected `#pragma {p}` inside a body"));
        }
        // Declaration.
        let save = self.pos;
        if let Some(ty) = self.scalar_type() {
            let name = self.expect_ident()?;
            let v = b.var(name.clone(), ty);
            self.define(&name, Sym::Var(v));
            if self.eat_punct("=") {
                let e = self.expr(b)?;
                b.assign(v, e);
            }
            return self.expect_punct(";");
        }
        self.pos = save;

        if self.eat_ident("if") {
            self.expect_punct("(")?;
            let cond = self.expr(b)?;
            self.expect_punct(")")?;
            if !self.peek_is_block() {
                return self.err("if body must be a `{ ... }` block");
            }
            b.push_scope();
            self.block(b)?;
            let then_body = b.pop_scope();
            let else_body = if self.eat_ident("else") {
                if !self.peek_is_block() {
                    return self.err("else body must be a `{ ... }` block");
                }
                b.push_scope();
                self.block(b)?;
                b.pop_scope()
            } else {
                Vec::new()
            };
            let id = b.new_branch();
            b.stmt(phloem_ir::Stmt::If {
                id,
                cond,
                then_body,
                else_body,
            });
            return Ok(());
        }
        if self.eat_ident("while") {
            self.expect_punct("(")?;
            let cond = self.expr(b)?;
            self.expect_punct(")")?;
            if !self.peek_is_block() {
                return self.err("while body must be a `{ ... }` block");
            }
            b.push_scope();
            self.block(b)?;
            let body = b.pop_scope();
            let id = b.new_branch();
            b.stmt(phloem_ir::Stmt::While { id, cond, body });
            return Ok(());
        }
        if self.eat_ident("for") {
            return self.for_stmt(b);
        }
        if self.eat_ident("break") {
            b.break_out(1);
            return self.expect_punct(";");
        }

        // Assignment / compound assignment / increment.
        let name = self.expect_ident()?;
        match self.lookup(&name) {
            Some(Sym::Var(v)) => {
                if self.eat_punct("++") {
                    b.assign(v, Expr::add(Expr::var(v), Expr::i64(1)));
                } else if let Some(Tok::Punct(p)) = self.peek() {
                    if let Some(op) = Self::compound_op(p) {
                        self.pos += 1;
                        let e = self.expr(b)?;
                        b.assign(v, Expr::bin(op, Expr::var(v), e));
                    } else {
                        self.expect_punct("=")?;
                        let e = self.expr(b)?;
                        b.assign(v, e);
                    }
                } else {
                    return self.err("expected assignment");
                }
                self.expect_punct(";")
            }
            Some(Sym::Array(a)) => {
                self.expect_punct("[")?;
                let idx = self.expr(b)?;
                self.expect_punct("]")?;
                if let Some(Tok::Punct(p)) = self.peek() {
                    if let Some(op) = Self::compound_op(p) {
                        // arr[i] op= e  =>  arr[i] = arr[i] op e
                        self.pos += 1;
                        let e = self.expr(b)?;
                        let cur = b.load(a, idx.clone());
                        b.store(a, idx, Expr::bin(op, cur, e));
                        return self.expect_punct(";");
                    }
                }
                self.expect_punct("=")?;
                let e = self.expr(b)?;
                b.store(a, idx, e);
                self.expect_punct(";")
            }
            None => self.err(format!("undeclared identifier `{name}`")),
        }
    }

    fn peek_is_block(&self) -> bool {
        self.check_punct("{")
    }

    /// Canonical counted loop:
    /// `for (long i = e1; i < e2; i++) { ... }` (or an existing `i`).
    fn for_stmt(&mut self, b: &mut FunctionBuilder) -> PResult<()> {
        self.expect_punct("(")?;
        let declared_ty = self.scalar_type();
        let name = self.expect_ident()?;
        let var = match declared_ty {
            Some(ty) => {
                let v = b.var(name.clone(), ty);
                self.define(&name, Sym::Var(v));
                v
            }
            None => match self.lookup(&name) {
                Some(Sym::Var(v)) => v,
                _ => return self.err(format!("`{name}` is not a scalar variable")),
            },
        };
        self.expect_punct("=")?;
        let start = self.expr(b)?;
        self.expect_punct(";")?;
        let cname = self.expect_ident()?;
        if cname != name {
            return self.err("for-loop condition must test the induction variable");
        }
        self.expect_punct("<")?;
        let end = self.expr(b)?;
        self.expect_punct(";")?;
        let iname = self.expect_ident()?;
        if iname != name {
            return self.err("for-loop increment must bump the induction variable");
        }
        if !self.eat_punct("++") {
            self.expect_punct("+=")?;
            match self.bump() {
                Some(Tok::Int(1)) => {}
                _ => return self.err("only unit-stride for loops are supported"),
            }
        }
        self.expect_punct(")")?;
        if !self.peek_is_block() {
            return self.err("for body must be a `{ ... }` block");
        }
        b.push_scope();
        self.block(b)?;
        let body = b.pop_scope();
        let id = b.new_branch();
        b.stmt(phloem_ir::Stmt::For {
            id,
            var,
            start,
            end,
            body,
        });
        Ok(())
    }

    // -- functions ------------------------------------------------------

    fn function(&mut self) -> PResult<CFunction> {
        self.pragmas = Pragmas::default();
        while let Some(Tok::Pragma(p)) = self.peek() {
            let p = p.clone();
            self.pos += 1;
            let p = p.trim().to_string();
            if p == "phloem" {
                self.pragmas.phloem = true;
            } else if p == "distribute" {
                self.pragmas.distribute = true;
            } else if let Some(rest) = p.strip_prefix("replicate") {
                let n = rest
                    .trim()
                    .trim_start_matches('(')
                    .trim_end_matches(')')
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| ParseError {
                        msg: format!("bad replicate count in `#pragma {p}`"),
                        line: self.toks.get(self.pos).map(|t| t.line).unwrap_or(0),
                    })?;
                self.pragmas.replicate = Some(n);
            } else {
                return self.err(format!("unknown `#pragma {p}`"));
            }
        }
        if !self.eat_ident("void") {
            return self.err("functions must return void");
        }
        let name = self.expect_ident()?;
        let mut b = FunctionBuilder::new(name);
        self.scopes.push(HashMap::new());
        self.expect_punct("(")?;
        if !self.check_punct(")") {
            loop {
                self.parse_param(&mut b)?;
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        self.block(&mut b)?;
        self.scopes.pop();
        let func = b.build();
        func.validate().map_err(|e| ParseError {
            msg: format!("internal lowering error: {e}"),
            line: 0,
        })?;
        Ok(CFunction {
            func,
            pragmas: std::mem::take(&mut self.pragmas),
        })
    }

    fn parse_param(&mut self, b: &mut FunctionBuilder) -> PResult<()> {
        self.eat_ident("const");
        let base = match self.scalar_type() {
            Some(t) => t,
            None => return self.err("expected parameter type"),
        };
        // Remember whether this was a 4-byte int for array widths.
        let was_int = matches!(
            self.toks.get(self.pos - 1),
            Some(Token {
                kind: Tok::Ident(s),
                ..
            }) if s == "int" || s == "float"
        );
        if self.eat_punct("*") {
            if !self.eat_ident("restrict") {
                return self.err(
                    "pointer parameters must be `restrict`-qualified \
                     (Phloem requires precise aliasing information)",
                );
            }
            let name = self.expect_ident()?;
            let decl = match (base, was_int) {
                (Ty::I64, true) => ArrayDecl::i32(name.clone()),
                (Ty::I64, false) => ArrayDecl::i64(name.clone()),
                (Ty::F64, _) => ArrayDecl::f64(name.clone()),
            };
            let a = b.array(decl);
            self.define(&name, Sym::Array(a));
        } else {
            let name = self.expect_ident()?;
            let v = match base {
                Ty::I64 => b.param_i64(name.clone()),
                Ty::F64 => b.param_f64(name.clone()),
            };
            self.define(&name, Sym::Var(v));
        }
        Ok(())
    }
}

/// Parses a PhloemC translation unit (one or more functions).
///
/// # Errors
/// Returns a [`ParseError`] with a source line on malformed input.
pub fn parse_program(src: &str) -> Result<Vec<CFunction>, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        msg: e.msg,
        line: e.line,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        scopes: vec![HashMap::new()],
        pending_decouple: false,
        pragmas: Pragmas::default(),
    };
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.function()?);
    }
    if out.is_empty() {
        return Err(ParseError {
            msg: "no functions found".into(),
            line: 0,
        });
    }
    Ok(out)
}
