//! Parser for tensor-index expressions in Taco's concrete syntax,
//! e.g. `y(i) = A(i,j) * x(j)` or `A(i,j) = B(i,j) * C(i,k) * D(k,j)`.

use std::fmt;

/// One tensor access, e.g. `A(i,j)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Tensor name.
    pub tensor: String,
    /// Index variable names.
    pub indices: Vec<String>,
}

/// A multiplicative factor.
#[derive(Clone, Debug, PartialEq)]
pub enum Factor {
    /// Tensor access.
    Access(Access),
    /// Named scalar (bound at runtime), e.g. `alpha`.
    Scalar(String),
    /// Literal constant.
    Const(f64),
}

/// A product of factors with a sign.
#[derive(Clone, Debug, PartialEq)]
pub struct Term {
    /// +1.0 or -1.0.
    pub sign: f64,
    /// Factors multiplied together.
    pub factors: Vec<Factor>,
}

/// A parsed assignment `lhs = term ± term ± ...`.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorAssign {
    /// Left-hand-side access.
    pub lhs: Access,
    /// Right-hand-side sum of terms.
    pub terms: Vec<Term>,
}

/// Parse error with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    LParen,
    RParen,
    Comma,
    Eq,
    Plus,
    Minus,
    Star,
}

fn lex(src: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' => {
                chars.next();
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            '=' => {
                chars.next();
                toks.push(Tok::Eq);
            }
            '+' => {
                chars.next();
                toks.push(Tok::Plus);
            }
            '-' => {
                chars.next();
                toks.push(Tok::Minus);
            }
            '*' => {
                chars.next();
                toks.push(Tok::Star);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(s));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v: f64 = s
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{s}`")))?;
                toks.push(Tok::Num(v));
            }
            other => return Err(ParseError(format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if *t == want => Ok(()),
            other => Err(ParseError(format!("expected {want:?}, got {other:?}"))),
        }
    }

    fn access_or_scalar(&mut self) -> Result<Factor, ParseError> {
        match self.next() {
            Some(Tok::Num(v)) => Ok(Factor::Const(*v)),
            Some(Tok::Ident(name)) => {
                let name = name.clone();
                if matches!(self.peek(), Some(Tok::LParen)) {
                    self.expect(Tok::LParen)?;
                    let mut indices = Vec::new();
                    loop {
                        match self.next() {
                            Some(Tok::Ident(i)) => indices.push(i.clone()),
                            other => {
                                return Err(ParseError(format!(
                                    "expected index variable, got {other:?}"
                                )))
                            }
                        }
                        match self.next() {
                            Some(Tok::Comma) => continue,
                            Some(Tok::RParen) => break,
                            other => {
                                return Err(ParseError(format!(
                                    "expected `,` or `)`, got {other:?}"
                                )))
                            }
                        }
                    }
                    Ok(Factor::Access(Access {
                        tensor: name,
                        indices,
                    }))
                } else {
                    Ok(Factor::Scalar(name))
                }
            }
            other => Err(ParseError(format!("expected factor, got {other:?}"))),
        }
    }

    fn term(&mut self, sign: f64) -> Result<Term, ParseError> {
        let mut factors = vec![self.access_or_scalar()?];
        while matches!(self.peek(), Some(Tok::Star)) {
            self.next();
            factors.push(self.access_or_scalar()?);
        }
        Ok(Term { sign, factors })
    }
}

/// Parses a tensor assignment.
///
/// # Errors
/// Returns a [`ParseError`] for malformed input.
pub fn parse(src: &str) -> Result<TensorAssign, ParseError> {
    let mut p = P {
        toks: lex(src)?,
        pos: 0,
    };
    let Factor::Access(lhs) = p.access_or_scalar()? else {
        return Err(ParseError("left-hand side must be a tensor access".into()));
    };
    p.expect(Tok::Eq)?;
    let mut terms = vec![p.term(1.0)?];
    loop {
        match p.peek() {
            Some(Tok::Plus) => {
                p.next();
                terms.push(p.term(1.0)?);
            }
            Some(Tok::Minus) => {
                p.next();
                terms.push(p.term(-1.0)?);
            }
            None => break,
            other => return Err(ParseError(format!("unexpected token {other:?}"))),
        }
    }
    Ok(TensorAssign { lhs, terms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spmv() {
        let a = parse("y(i) = A(i,j) * x(j)").unwrap();
        assert_eq!(a.lhs.tensor, "y");
        assert_eq!(a.lhs.indices, vec!["i"]);
        assert_eq!(a.terms.len(), 1);
        assert_eq!(a.terms[0].factors.len(), 2);
    }

    #[test]
    fn parses_mtmul_with_scalars_and_signs() {
        let a = parse("y(j) = alpha * A(i,j) * x(i) + beta * z(j)").unwrap();
        assert_eq!(a.terms.len(), 2);
        assert_eq!(a.terms[0].sign, 1.0);
        assert!(matches!(a.terms[0].factors[0], Factor::Scalar(_)));
        let r = parse("y(i) = b(i) - A(i,j) * x(j)").unwrap();
        assert_eq!(r.terms[1].sign, -1.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("y(i = A(i,j)").is_err());
        assert!(parse("= A(i,j)").is_err());
        assert!(parse("y(i) = A(i,1)").is_err());
    }
}
