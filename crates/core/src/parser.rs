//! Lexer and recursive-descent parser for SciSPARQL.
//!
//! Covers the SPARQL 1.1 subset described in thesis ch. 3 (SELECT /
//! ASK / CONSTRUCT, OPTIONAL, UNION, FILTER, BIND, VALUES, property
//! paths, aggregation, solution modifiers, INSERT/DELETE DATA) plus the
//! SciSPARQL extensions of ch. 4: array dereference `?a[i, lo:stride:hi]`
//! (1-based, negative-from-end), array arithmetic in expressions,
//! `DEFINE FUNCTION` parameterized views, function references and
//! partial application (`fn(1, ?_)`) producing lexical closures.
//!
//! One deliberate restriction: prefixed names require a non-empty
//! prefix (`ex:p`, not `:p`), because a bare leading colon is claimed
//! by the array range syntax `?a[1:3]`.

use ssdm_array::Num;
use ssdm_rdf::{Namespaces, RdfError, Term, RDF_TYPE};

use crate::ast::*;
use crate::dataset::QueryError;

/// Parse one SciSPARQL statement.
pub fn parse(text: &str) -> Result<Statement, QueryError> {
    let mut p = Parser::new(text)?;
    let stmt = p.parse_statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// A statement parsed ahead of its execution, with how long the parse
/// took: what an `EXPLAIN ANALYZE` profile and the slow-query log
/// report as the parse phase, wherever the parse ran.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub stmt: Statement,
    pub parse_micros: u64,
}

impl Prepared {
    /// [`parse`], timed.
    pub fn parse(text: &str) -> Result<Prepared, QueryError> {
        let start = std::time::Instant::now();
        let stmt = parse(text)?;
        Ok(Prepared {
            stmt,
            parse_micros: start.elapsed().as_micros() as u64,
        })
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Var(String),
    Iri(String),
    PName { prefix: String, local: String },
    BlankLabel(String),
    Str(String),
    LangTag(String),
    Integer(i64),
    Double(f64),
    Name(String), // bare word: keyword or function name
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Dot,
    Colon,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    DoubleCaret,
    Pipe,
    Question,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> QueryError {
        QueryError::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, k: usize) -> Option<u8> {
        self.src.get(self.pos + k).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn next(&mut self) -> Result<(Tok, usize, usize), QueryError> {
        self.skip_ws();
        let line = self.line;
        let col = self.col;
        let tok = self.next_inner()?;
        Ok((tok, line, col))
    }

    fn next_inner(&mut self) -> Result<Tok, QueryError> {
        let Some(c) = self.peek() else {
            return Ok(Tok::Eof);
        };
        match c {
            b'{' => {
                self.bump();
                Ok(Tok::LBrace)
            }
            b'}' => {
                self.bump();
                Ok(Tok::RBrace)
            }
            b'(' => {
                self.bump();
                Ok(Tok::LParen)
            }
            b')' => {
                self.bump();
                Ok(Tok::RParen)
            }
            b'[' => {
                self.bump();
                Ok(Tok::LBracket)
            }
            b']' => {
                self.bump();
                Ok(Tok::RBracket)
            }
            b',' => {
                self.bump();
                Ok(Tok::Comma)
            }
            b';' => {
                self.bump();
                Ok(Tok::Semicolon)
            }
            b':' => {
                self.bump();
                Ok(Tok::Colon)
            }
            b'.' => {
                if self.peek_at(1).map(|n| n.is_ascii_digit()).unwrap_or(false) {
                    self.lex_number()
                } else {
                    self.bump();
                    Ok(Tok::Dot)
                }
            }
            b'?' | b'$' => {
                // Variable, or a bare '?' (path zero-or-one operator).
                if self
                    .peek_at(1)
                    .map(|n| n.is_ascii_alphanumeric() || n == b'_')
                    .unwrap_or(false)
                {
                    self.bump();
                    let mut name = String::new();
                    while let Some(n) = self.peek() {
                        if n.is_ascii_alphanumeric() || n == b'_' {
                            name.push(self.bump().unwrap() as char);
                        } else {
                            break;
                        }
                    }
                    Ok(Tok::Var(name))
                } else {
                    self.bump();
                    Ok(Tok::Question)
                }
            }
            b'<' => {
                // IRI or comparison operator.
                let nxt = self.peek_at(1);
                match nxt {
                    Some(b'=') => {
                        self.bump();
                        self.bump();
                        Ok(Tok::Le)
                    }
                    Some(n)
                        if n.is_ascii_alphanumeric()
                            || n == b'h'
                            || n == b'_'
                            || n == b'/'
                            || n == b'>' =>
                    {
                        // Treat as IRI if a '>' appears before whitespace.
                        let mut k = 1;
                        let mut is_iri = false;
                        while let Some(ch) = self.peek_at(k) {
                            if ch == b'>' {
                                is_iri = true;
                                break;
                            }
                            if ch.is_ascii_whitespace() {
                                break;
                            }
                            k += 1;
                        }
                        if is_iri {
                            self.lex_iri()
                        } else {
                            self.bump();
                            Ok(Tok::Lt)
                        }
                    }
                    _ => {
                        self.bump();
                        Ok(Tok::Lt)
                    }
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Tok::Ge)
                } else {
                    Ok(Tok::Gt)
                }
            }
            b'=' => {
                self.bump();
                Ok(Tok::Eq)
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Tok::Ne)
                } else {
                    Ok(Tok::Bang)
                }
            }
            b'&' => {
                self.bump();
                if self.peek() == Some(b'&') {
                    self.bump();
                    Ok(Tok::AndAnd)
                } else {
                    Err(self.err("expected '&&'"))
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    Ok(Tok::OrOr)
                } else {
                    Ok(Tok::Pipe)
                }
            }
            b'+' => {
                self.bump();
                Ok(Tok::Plus)
            }
            b'-' => {
                self.bump();
                Ok(Tok::Minus)
            }
            b'*' => {
                self.bump();
                Ok(Tok::Star)
            }
            b'/' => {
                self.bump();
                Ok(Tok::Slash)
            }
            b'^' => {
                self.bump();
                if self.peek() == Some(b'^') {
                    self.bump();
                    Ok(Tok::DoubleCaret)
                } else {
                    Ok(Tok::Caret)
                }
            }
            b'"' | b'\'' => self.lex_string(),
            b'_' if self.peek_at(1) == Some(b':') => self.lex_blank(),
            b'@' => {
                self.bump();
                let mut tag = String::new();
                while let Some(n) = self.peek() {
                    if n.is_ascii_alphanumeric() || n == b'-' {
                        tag.push(self.bump().unwrap() as char);
                    } else {
                        break;
                    }
                }
                if tag.is_empty() {
                    Err(self.err("empty language tag"))
                } else {
                    Ok(Tok::LangTag(tag))
                }
            }
            c if c.is_ascii_digit() => self.lex_number(),
            c if c.is_ascii_alphabetic() || c == b'_' => self.lex_word(),
            other => Err(self.err(format!("unexpected character '{}'", other as char))),
        }
    }

    fn lex_iri(&mut self) -> Result<Tok, QueryError> {
        self.bump(); // <
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'>') => return Ok(Tok::Iri(out)),
                Some(c) => out.push(c as char),
                None => return Err(self.err("unterminated IRI")),
            }
        }
    }

    fn lex_blank(&mut self) -> Result<Tok, QueryError> {
        self.bump(); // _
        self.bump(); // :
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                out.push(self.bump().unwrap() as char);
            } else {
                break;
            }
        }
        if out.is_empty() {
            Err(self.err("empty blank node label"))
        } else {
            Ok(Tok::BlankLabel(out))
        }
    }

    fn lex_string(&mut self) -> Result<Tok, QueryError> {
        let quote = self.bump().unwrap();
        let mut out = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.err("unterminated string"));
            };
            if c == quote {
                break;
            }
            if c == b'\\' {
                let Some(e) = self.bump() else {
                    return Err(self.err("unterminated escape"));
                };
                match e {
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'"' => out.push('"'),
                    b'\'' => out.push('\''),
                    b'\\' => out.push('\\'),
                    other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                }
                continue;
            }
            if c < 0x80 {
                out.push(c as char);
            } else {
                let mut buf = vec![c];
                while self.peek().map(|b| b & 0xC0 == 0x80).unwrap_or(false) {
                    buf.push(self.bump().unwrap());
                }
                out.push_str(std::str::from_utf8(&buf).map_err(|_| self.err("invalid UTF-8"))?);
            }
        }
        Ok(Tok::Str(out))
    }

    fn lex_number(&mut self) -> Result<Tok, QueryError> {
        let start = self.pos;
        let mut is_real = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
            } else if c == b'.' && self.peek_at(1).map(|n| n.is_ascii_digit()).unwrap_or(false) {
                is_real = true;
                self.bump();
            } else if c == b'e' || c == b'E' {
                // Exponent only if followed by digit or sign+digit.
                let k1 = self.peek_at(1);
                let exp = match k1 {
                    Some(d) if d.is_ascii_digit() => true,
                    Some(b'+') | Some(b'-') => {
                        self.peek_at(2).map(|d| d.is_ascii_digit()).unwrap_or(false)
                    }
                    _ => false,
                };
                if !exp {
                    break;
                }
                is_real = true;
                self.bump();
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.bump();
                }
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_real {
            text.parse::<f64>()
                .map(Tok::Double)
                .map_err(|_| self.err(format!("bad number '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Tok::Integer)
                .map_err(|_| self.err(format!("bad number '{text}'")))
        }
    }

    #[allow(clippy::if_same_then_else)]
    fn lex_word(&mut self) -> Result<Tok, QueryError> {
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                word.push(self.bump().unwrap() as char);
            } else {
                break;
            }
        }
        // A ':' right after a word makes it a prefixed name.
        if self.peek() == Some(b':') {
            self.bump();
            let mut local = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                    local.push(self.bump().unwrap() as char);
                } else if c == b'.'
                    && self
                        .peek_at(1)
                        .map(|n| n.is_ascii_alphanumeric() || n == b'_')
                        .unwrap_or(false)
                {
                    local.push(self.bump().unwrap() as char);
                } else {
                    break;
                }
            }
            return Ok(Tok::PName {
                prefix: word,
                local,
            });
        }
        Ok(Tok::Name(word))
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    line: usize,
    col: usize,
    ns: Namespaces,
    fresh: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Result<Self, QueryError> {
        let mut p = Parser {
            lexer: Lexer::new(text),
            tok: Tok::Eof,
            line: 1,
            col: 1,
            ns: Namespaces::new(),
            fresh: 0,
        };
        p.advance()?;
        Ok(p)
    }

    fn advance(&mut self) -> Result<(), QueryError> {
        let (tok, line, col) = self.lexer.next()?;
        self.tok = tok;
        self.line = line;
        self.col = col;
        Ok(())
    }

    fn err(&self, msg: impl Into<String>) -> QueryError {
        QueryError::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), QueryError> {
        if self.tok == tok {
            self.advance()
        } else {
            Err(self.err(format!("expected {tok:?}, found {:?}", self.tok)))
        }
    }

    fn expect_eof(&mut self) -> Result<(), QueryError> {
        if self.tok == Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.tok)))
        }
    }

    /// Case-insensitive keyword check on the current token.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.tok, Tok::Name(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> Result<bool, QueryError> {
        if self.at_kw(kw) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn require_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_kw(kw)? {
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}', found {:?}", self.tok)))
        }
    }

    /// True when the current token is `{` and the next token is SELECT
    /// (detected by probing a clone of the lexer state).
    fn peek_is_select(&mut self) -> bool {
        if self.tok != Tok::LBrace {
            return false;
        }
        let mut probe = Lexer {
            src: self.lexer.src,
            pos: self.lexer.pos,
            line: self.lexer.line,
            col: self.lexer.col,
        };
        matches!(probe.next(), Ok((Tok::Name(w), _, _)) if w.eq_ignore_ascii_case("SELECT"))
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("_anon{}", self.fresh)
    }

    fn expand(&self, prefix: &str, local: &str) -> Result<String, QueryError> {
        self.ns.expand(prefix, local).map_err(|e| match e {
            RdfError::UnknownPrefix(p) => self.err(format!("unknown prefix '{p}:'")),
            other => self.err(other.to_string()),
        })
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement, QueryError> {
        self.parse_prologue()?;
        if self.at_kw("SELECT") {
            Ok(Statement::Select(self.parse_select()?))
        } else if self.at_kw("ASK") {
            self.advance()?;
            self.eat_kw("WHERE")?;
            let pattern = self.parse_group()?;
            Ok(Statement::Ask(AskQuery { pattern }))
        } else if self.at_kw("CONSTRUCT") {
            self.advance()?;
            self.expect(Tok::LBrace)?;
            let template = self.parse_triples_block(Tok::RBrace)?;
            self.expect(Tok::RBrace)?;
            self.require_kw("WHERE")?;
            let pattern = self.parse_group()?;
            let mut limit = None;
            if self.eat_kw("LIMIT")? {
                limit = Some(self.parse_usize()?);
            }
            Ok(Statement::Construct(ConstructQuery {
                template,
                pattern,
                limit,
            }))
        } else if self.at_kw("EXPLAIN") {
            self.advance()?;
            let analyze = self.eat_kw("ANALYZE")?;
            self.parse_prologue()?;
            if !self.at_kw("SELECT") {
                return Err(self.err("EXPLAIN expects a SELECT query"));
            }
            let q = Box::new(self.parse_select()?);
            Ok(if analyze {
                Statement::ExplainAnalyze(q)
            } else {
                Statement::Explain(q)
            })
        } else if self.at_kw("DESCRIBE") {
            self.advance()?;
            let mut targets = Vec::new();
            loop {
                match self.tok.clone() {
                    Tok::Iri(u) => {
                        self.advance()?;
                        targets.push(Term::uri(self.ns.resolve(&u)));
                    }
                    Tok::PName { prefix, local } => {
                        self.advance()?;
                        targets.push(Term::uri(self.expand(&prefix, &local)?));
                    }
                    _ => break,
                }
            }
            if targets.is_empty() {
                return Err(self.err("DESCRIBE needs at least one IRI"));
            }
            Ok(Statement::Describe(targets))
        } else if self.at_kw("DEFINE") {
            self.advance()?;
            self.require_kw("FUNCTION")?;
            let name = self.parse_function_name()?;
            self.expect(Tok::LParen)?;
            let mut params = Vec::new();
            while let Tok::Var(v) = self.tok.clone() {
                params.push(v);
                self.advance()?;
                if self.tok == Tok::Comma {
                    self.advance()?;
                }
            }
            self.expect(Tok::RParen)?;
            self.require_kw("AS")?;
            self.parse_prologue()?;
            if !self.at_kw("SELECT") {
                return Err(self.err("function body must be a SELECT query"));
            }
            let body = self.parse_select()?;
            Ok(Statement::DefineFunction(FunctionDef {
                name,
                params,
                body,
            }))
        } else if self.at_kw("INSERT") {
            self.advance()?;
            if self.at_kw("DATA") {
                self.advance()?;
                return Ok(Statement::InsertData(self.parse_ground_block()?));
            }
            // INSERT { template } WHERE { pattern }
            self.expect(Tok::LBrace)?;
            let insert = self.parse_triples_block(Tok::RBrace)?;
            self.expect(Tok::RBrace)?;
            self.require_kw("WHERE")?;
            let pattern = self.parse_group()?;
            Ok(Statement::Modify {
                delete: Vec::new(),
                insert,
                pattern,
            })
        } else if self.at_kw("DELETE") {
            self.advance()?;
            if self.at_kw("DATA") {
                self.advance()?;
                return Ok(Statement::DeleteData(self.parse_ground_block()?));
            }
            if self.at_kw("WHERE") {
                // DELETE WHERE { pattern }: the pattern is the template.
                self.advance()?;
                let pattern = self.parse_group()?;
                let delete: Vec<TriplePattern> = pattern
                    .elems
                    .iter()
                    .filter_map(|e| match e {
                        PatternElem::Triple(t) => Some(t.clone()),
                        _ => None,
                    })
                    .collect();
                if delete.len() != pattern.elems.len() {
                    return Err(self.err("DELETE WHERE only allows plain triple patterns"));
                }
                return Ok(Statement::Modify {
                    delete,
                    insert: Vec::new(),
                    pattern,
                });
            }
            // DELETE { template } [INSERT { template }] WHERE { pattern }
            self.expect(Tok::LBrace)?;
            let delete = self.parse_triples_block(Tok::RBrace)?;
            self.expect(Tok::RBrace)?;
            let insert = if self.at_kw("INSERT") {
                self.advance()?;
                self.expect(Tok::LBrace)?;
                let t = self.parse_triples_block(Tok::RBrace)?;
                self.expect(Tok::RBrace)?;
                t
            } else {
                Vec::new()
            };
            self.require_kw("WHERE")?;
            let pattern = self.parse_group()?;
            Ok(Statement::Modify {
                delete,
                insert,
                pattern,
            })
        } else {
            Err(self.err(format!(
                "expected SELECT, ASK, CONSTRUCT, DEFINE, INSERT or DELETE, found {:?}",
                self.tok
            )))
        }
    }

    fn parse_prologue(&mut self) -> Result<(), QueryError> {
        loop {
            if self.at_kw("PREFIX") {
                self.advance()?;
                let Tok::PName { prefix, local } = self.tok.clone() else {
                    return Err(self.err("expected prefix name"));
                };
                if !local.is_empty() {
                    return Err(self.err("prefix declaration must end with ':'"));
                }
                self.advance()?;
                let Tok::Iri(uri) = self.tok.clone() else {
                    return Err(self.err("expected IRI after prefix"));
                };
                self.advance()?;
                self.ns.declare(prefix, uri);
            } else if self.at_kw("BASE") {
                self.advance()?;
                let Tok::Iri(uri) = self.tok.clone() else {
                    return Err(self.err("expected IRI after BASE"));
                };
                self.advance()?;
                self.ns.set_base(uri);
            } else {
                return Ok(());
            }
        }
    }

    fn parse_function_name(&mut self) -> Result<String, QueryError> {
        match self.tok.clone() {
            Tok::Name(n) => {
                self.advance()?;
                Ok(n)
            }
            Tok::PName { prefix, local } => {
                self.advance()?;
                self.expand(&prefix, &local)
            }
            other => Err(self.err(format!("expected function name, found {other:?}"))),
        }
    }

    fn parse_usize(&mut self) -> Result<usize, QueryError> {
        match self.tok {
            Tok::Integer(i) if i >= 0 => {
                self.advance()?;
                Ok(i as usize)
            }
            _ => Err(self.err("expected a non-negative integer")),
        }
    }

    // -----------------------------------------------------------------
    // SELECT
    // -----------------------------------------------------------------

    fn parse_select(&mut self) -> Result<SelectQuery, QueryError> {
        self.require_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT")?;
        let projection = if self.tok == Tok::Star {
            self.advance()?;
            Projection::All
        } else {
            let mut items = Vec::new();
            loop {
                match self.tok.clone() {
                    Tok::Var(v) => {
                        self.advance()?;
                        // Allow array dereference on projected vars:
                        // SELECT ?a[2] — implicit alias.
                        if self.tok == Tok::LBracket {
                            let expr = self.parse_postfix_from(Expr::Var(v.clone()))?;
                            items.push(ProjectionItem {
                                expr,
                                alias: Some(v),
                            });
                        } else {
                            items.push(ProjectionItem {
                                expr: Expr::Var(v),
                                alias: None,
                            });
                        }
                    }
                    Tok::LParen => {
                        self.advance()?;
                        let expr = self.parse_expr()?;
                        self.require_kw("AS")?;
                        let Tok::Var(v) = self.tok.clone() else {
                            return Err(self.err("expected variable after AS"));
                        };
                        self.advance()?;
                        self.expect(Tok::RParen)?;
                        items.push(ProjectionItem {
                            expr,
                            alias: Some(v),
                        });
                    }
                    _ => break,
                }
            }
            if items.is_empty() {
                return Err(self.err("empty SELECT projection"));
            }
            Projection::Items(items)
        };
        let mut from: Option<String> = None;
        let mut from_named: Vec<String> = Vec::new();
        while self.at_kw("FROM") {
            self.advance()?;
            let named = self.eat_kw("NAMED")?;
            let uri = match self.tok.clone() {
                Tok::Iri(u) => {
                    self.advance()?;
                    self.ns.resolve(&u)
                }
                Tok::PName { prefix, local } => {
                    self.advance()?;
                    self.expand(&prefix, &local)?
                }
                other => return Err(self.err(format!("expected IRI after FROM, found {other:?}"))),
            };
            if named {
                from_named.push(uri);
            } else if from.is_none() {
                from = Some(uri);
            } else {
                return Err(self.err("at most one FROM graph is supported"));
            }
        }
        self.eat_kw("WHERE")?;
        let pattern = self.parse_group()?;

        let mut group_by = Vec::new();
        let mut having = None;
        let mut order_by = Vec::new();
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.at_kw("GROUP") {
                self.advance()?;
                self.require_kw("BY")?;
                loop {
                    match self.tok.clone() {
                        Tok::Var(v) => {
                            self.advance()?;
                            group_by.push(Expr::Var(v));
                        }
                        Tok::LParen => {
                            self.advance()?;
                            let e = self.parse_expr()?;
                            self.expect(Tok::RParen)?;
                            group_by.push(e);
                        }
                        _ => break,
                    }
                }
                if group_by.is_empty() {
                    return Err(self.err("empty GROUP BY"));
                }
            } else if self.at_kw("HAVING") {
                self.advance()?;
                self.expect(Tok::LParen)?;
                having = Some(self.parse_expr()?);
                self.expect(Tok::RParen)?;
            } else if self.at_kw("ORDER") {
                self.advance()?;
                self.require_kw("BY")?;
                loop {
                    if self.at_kw("ASC") || self.at_kw("DESC") {
                        let asc = self.at_kw("ASC");
                        self.advance()?;
                        self.expect(Tok::LParen)?;
                        let e = self.parse_expr()?;
                        self.expect(Tok::RParen)?;
                        order_by.push(OrderKey {
                            expr: e,
                            ascending: asc,
                        });
                    } else if let Tok::Var(v) = self.tok.clone() {
                        self.advance()?;
                        order_by.push(OrderKey {
                            expr: Expr::Var(v),
                            ascending: true,
                        });
                    } else {
                        break;
                    }
                }
                if order_by.is_empty() {
                    return Err(self.err("empty ORDER BY"));
                }
            } else if self.at_kw("LIMIT") {
                self.advance()?;
                limit = Some(self.parse_usize()?);
            } else if self.at_kw("OFFSET") {
                self.advance()?;
                offset = Some(self.parse_usize()?);
            } else {
                break;
            }
        }
        Ok(SelectQuery {
            distinct,
            projection,
            from,
            from_named,
            pattern,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    // -----------------------------------------------------------------
    // Graph patterns
    // -----------------------------------------------------------------

    fn parse_group(&mut self) -> Result<GroupPattern, QueryError> {
        self.expect(Tok::LBrace)?;
        let mut elems: Vec<PatternElem> = Vec::new();
        loop {
            if self.tok == Tok::RBrace {
                self.advance()?;
                break;
            }
            if self.at_kw("OPTIONAL") {
                self.advance()?;
                elems.push(PatternElem::Optional(self.parse_group()?));
            } else if self.at_kw("FILTER") {
                self.advance()?;
                let e = if self.at_kw("EXISTS") || self.at_kw("NOT") {
                    self.parse_exists()?
                } else {
                    self.expect(Tok::LParen)?;
                    let e = self.parse_expr()?;
                    self.expect(Tok::RParen)?;
                    e
                };
                elems.push(PatternElem::Filter(e));
            } else if self.at_kw("BIND") {
                self.advance()?;
                self.expect(Tok::LParen)?;
                let expr = self.parse_expr()?;
                self.require_kw("AS")?;
                let Tok::Var(v) = self.tok.clone() else {
                    return Err(self.err("expected variable after AS"));
                };
                self.advance()?;
                self.expect(Tok::RParen)?;
                elems.push(PatternElem::Bind { expr, var: v });
            } else if self.at_kw("VALUES") {
                self.advance()?;
                elems.push(self.parse_values()?);
            } else if self.at_kw("GRAPH") {
                self.advance()?;
                let name = match self.tok.clone() {
                    Tok::Var(v) => {
                        self.advance()?;
                        TermPattern::Var(v)
                    }
                    Tok::Iri(u) => {
                        self.advance()?;
                        TermPattern::Term(Term::uri(self.ns.resolve(&u)))
                    }
                    Tok::PName { prefix, local } => {
                        self.advance()?;
                        TermPattern::Term(Term::uri(self.expand(&prefix, &local)?))
                    }
                    other => return Err(self.err(format!("bad GRAPH name: {other:?}"))),
                };
                let pattern = self.parse_group()?;
                elems.push(PatternElem::Graph { name, pattern });
            } else if self.at_kw("MINUS") {
                self.advance()?;
                elems.push(PatternElem::Minus(self.parse_group()?));
            } else if self.tok == Tok::LBrace {
                // Subquery, nested group, or UNION chain.
                if self.peek_is_select() {
                    self.advance()?; // {
                    let sub = self.parse_select()?;
                    self.expect(Tok::RBrace)?;
                    elems.push(PatternElem::SubSelect(Box::new(sub)));
                    while self.tok == Tok::Dot {
                        self.advance()?;
                    }
                    continue;
                }
                let first = self.parse_group()?;
                if self.at_kw("UNION") {
                    let mut branches = vec![first];
                    while self.eat_kw("UNION")? {
                        branches.push(self.parse_group()?);
                    }
                    elems.push(PatternElem::Union(branches));
                } else {
                    elems.push(PatternElem::Group(first));
                }
            } else {
                // Triples block.
                let triples = self.parse_triples_block(Tok::RBrace)?;
                elems.extend(triples.into_iter().map(PatternElem::Triple));
            }
            // Optional separating dot.
            while self.tok == Tok::Dot {
                self.advance()?;
            }
        }
        Ok(GroupPattern { elems })
    }

    fn parse_exists(&mut self) -> Result<Expr, QueryError> {
        let negated = if self.at_kw("NOT") {
            self.advance()?;
            self.require_kw("EXISTS")?;
            true
        } else {
            self.require_kw("EXISTS")?;
            false
        };
        let pattern = self.parse_group()?;
        Ok(Expr::Exists { pattern, negated })
    }

    fn parse_values(&mut self) -> Result<PatternElem, QueryError> {
        // VALUES ?x { ... } or VALUES (?x ?y) { (..) (..) }
        let mut vars = Vec::new();
        let parenthesized = if let Tok::Var(v) = self.tok.clone() {
            self.advance()?;
            vars.push(v);
            false
        } else {
            self.expect(Tok::LParen)?;
            while let Tok::Var(v) = self.tok.clone() {
                self.advance()?;
                vars.push(v);
            }
            self.expect(Tok::RParen)?;
            true
        };
        self.expect(Tok::LBrace)?;
        let mut rows = Vec::new();
        loop {
            if self.tok == Tok::RBrace {
                self.advance()?;
                break;
            }
            if parenthesized {
                self.expect(Tok::LParen)?;
                let mut row = Vec::new();
                for _ in 0..vars.len() {
                    row.push(self.parse_values_term()?);
                }
                self.expect(Tok::RParen)?;
                rows.push(row);
            } else {
                rows.push(vec![self.parse_values_term()?]);
            }
        }
        Ok(PatternElem::Values { vars, rows })
    }

    fn parse_values_term(&mut self) -> Result<Option<Term>, QueryError> {
        if self.at_kw("UNDEF") {
            self.advance()?;
            return Ok(None);
        }
        Ok(Some(self.parse_ground_term()?))
    }

    /// A block of triple patterns with `;` and `,` abbreviations,
    /// stopping before `stop` or pattern keywords.
    fn parse_triples_block(&mut self, stop: Tok) -> Result<Vec<TriplePattern>, QueryError> {
        let mut out = Vec::new();
        loop {
            if self.tok == stop
                || self.tok == Tok::Eof
                || self.tok == Tok::LBrace
                || self.at_pattern_keyword()
            {
                break;
            }
            self.parse_triples_same_subject(&mut out)?;
            if self.tok == Tok::Dot {
                self.advance()?;
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn at_pattern_keyword(&self) -> bool {
        [
            "OPTIONAL", "FILTER", "BIND", "VALUES", "UNION", "GRAPH", "MINUS",
        ]
        .iter()
        .any(|k| self.at_kw(k))
    }

    fn parse_triples_same_subject(
        &mut self,
        out: &mut Vec<TriplePattern>,
    ) -> Result<(), QueryError> {
        let subject = self.parse_term_pattern(out)?;
        self.parse_property_list(subject, out)
    }

    fn parse_property_list(
        &mut self,
        subject: TermPattern,
        out: &mut Vec<TriplePattern>,
    ) -> Result<(), QueryError> {
        loop {
            let path = self.parse_path()?;
            loop {
                let object = self.parse_term_pattern(out)?;
                out.push(TriplePattern {
                    subject: subject.clone(),
                    path: path.clone(),
                    object,
                });
                if self.tok == Tok::Comma {
                    self.advance()?;
                    continue;
                }
                break;
            }
            if self.tok == Tok::Semicolon {
                self.advance()?;
                // Trailing ';' before '.' or '}' is legal.
                if self.tok == Tok::Dot || self.tok == Tok::RBrace || self.tok == Tok::RBracket {
                    break;
                }
                continue;
            }
            break;
        }
        Ok(())
    }

    /// Subject/object term pattern; `[ ... ]` blank property lists
    /// expand into fresh variables and extra triples pushed to `out`.
    fn parse_term_pattern(
        &mut self,
        out: &mut Vec<TriplePattern>,
    ) -> Result<TermPattern, QueryError> {
        match self.tok.clone() {
            Tok::Var(v) => {
                self.advance()?;
                Ok(TermPattern::Var(v))
            }
            Tok::LBracket => {
                self.advance()?;
                let var = self.fresh_var();
                if self.tok != Tok::RBracket {
                    self.parse_property_list(TermPattern::Var(var.clone()), out)?;
                }
                self.expect(Tok::RBracket)?;
                Ok(TermPattern::Var(var))
            }
            Tok::LParen => {
                // A numeric collection constant (matched as an array).
                self.advance()?;
                let nested = self.parse_collection_const()?;
                Ok(TermPattern::Term(nested))
            }
            _ => Ok(TermPattern::Term(self.parse_ground_term()?)),
        }
    }

    /// Numeric (possibly nested) collection constant, used as an array
    /// value in patterns and ground triples.
    fn parse_collection_const(&mut self) -> Result<Term, QueryError> {
        use ssdm_array::Nested;
        fn read(p: &mut Parser<'_>) -> Result<Nested, QueryError> {
            let mut rows = Vec::new();
            loop {
                match p.tok.clone() {
                    Tok::RParen => {
                        p.advance()?;
                        break;
                    }
                    Tok::LParen => {
                        p.advance()?;
                        rows.push(read(p)?);
                    }
                    Tok::Integer(i) => {
                        p.advance()?;
                        rows.push(Nested::Leaf(Num::Int(i)));
                    }
                    Tok::Double(d) => {
                        p.advance()?;
                        rows.push(Nested::Leaf(Num::Real(d)));
                    }
                    Tok::Minus => {
                        p.advance()?;
                        match p.tok.clone() {
                            Tok::Integer(i) => {
                                p.advance()?;
                                rows.push(Nested::Leaf(Num::Int(-i)));
                            }
                            Tok::Double(d) => {
                                p.advance()?;
                                rows.push(Nested::Leaf(Num::Real(-d)));
                            }
                            _ => return Err(p.err("expected number after '-'")),
                        }
                    }
                    other => {
                        return Err(p.err(format!(
                            "collections in queries must be numeric, found {other:?}"
                        )))
                    }
                }
            }
            Ok(Nested::Row(rows))
        }
        let nested = read(self)?;
        let arr = ssdm_array::NumArray::from_nested(&nested)
            .map_err(|e| self.err(format!("bad array constant: {e}")))?;
        Ok(Term::Array(arr))
    }

    fn parse_ground_term(&mut self) -> Result<Term, QueryError> {
        match self.tok.clone() {
            Tok::Iri(u) => {
                self.advance()?;
                Ok(Term::uri(self.ns.resolve(&u)))
            }
            Tok::PName { prefix, local } => {
                self.advance()?;
                Ok(Term::uri(self.expand(&prefix, &local)?))
            }
            Tok::BlankLabel(b) => {
                self.advance()?;
                Ok(Term::blank(b))
            }
            Tok::Integer(i) => {
                self.advance()?;
                Ok(Term::integer(i))
            }
            Tok::Double(d) => {
                self.advance()?;
                Ok(Term::double(d))
            }
            Tok::Minus => {
                self.advance()?;
                match self.tok.clone() {
                    Tok::Integer(i) => {
                        self.advance()?;
                        Ok(Term::integer(-i))
                    }
                    Tok::Double(d) => {
                        self.advance()?;
                        Ok(Term::double(-d))
                    }
                    _ => Err(self.err("expected number after '-'")),
                }
            }
            Tok::Str(s) => {
                self.advance()?;
                match self.tok.clone() {
                    Tok::LangTag(lang) => {
                        self.advance()?;
                        Ok(Term::LangStr { value: s, lang })
                    }
                    Tok::DoubleCaret => {
                        self.advance()?;
                        let dt = match self.tok.clone() {
                            Tok::Iri(u) => {
                                self.advance()?;
                                self.ns.resolve(&u)
                            }
                            Tok::PName { prefix, local } => {
                                self.advance()?;
                                self.expand(&prefix, &local)?
                            }
                            other => return Err(self.err(format!("bad datatype {other:?}"))),
                        };
                        Ok(Term::Typed {
                            value: s,
                            datatype: dt,
                        })
                    }
                    _ => Ok(Term::Str(s)),
                }
            }
            Tok::Name(w) if w.eq_ignore_ascii_case("true") => {
                self.advance()?;
                Ok(Term::Bool(true))
            }
            Tok::Name(w) if w.eq_ignore_ascii_case("false") => {
                self.advance()?;
                Ok(Term::Bool(false))
            }
            other => Err(self.err(format!("expected RDF term, found {other:?}"))),
        }
    }

    fn parse_ground_block(&mut self) -> Result<Vec<GroundTriple>, QueryError> {
        self.expect(Tok::LBrace)?;
        let mut out = Vec::new();
        loop {
            if self.tok == Tok::RBrace {
                self.advance()?;
                break;
            }
            let subject = self.parse_ground_term()?;
            loop {
                let predicate = if self.at_kw("a") {
                    self.advance()?;
                    Term::uri(RDF_TYPE)
                } else {
                    self.parse_ground_term()?
                };
                loop {
                    let object = if self.tok == Tok::LParen {
                        self.advance()?;
                        self.parse_collection_const()?
                    } else {
                        self.parse_ground_term()?
                    };
                    out.push(GroundTriple {
                        subject: subject.clone(),
                        predicate: predicate.clone(),
                        object,
                    });
                    if self.tok == Tok::Comma {
                        self.advance()?;
                        continue;
                    }
                    break;
                }
                if self.tok == Tok::Semicolon {
                    self.advance()?;
                    if self.tok == Tok::Dot || self.tok == Tok::RBrace {
                        break;
                    }
                    continue;
                }
                break;
            }
            if self.tok == Tok::Dot {
                self.advance()?;
            }
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Property paths
    // -----------------------------------------------------------------

    fn parse_path(&mut self) -> Result<Path, QueryError> {
        let mut left = self.parse_path_seq()?;
        while self.tok == Tok::Pipe {
            self.advance()?;
            let right = self.parse_path_seq()?;
            left = Path::Alt(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_path_seq(&mut self) -> Result<Path, QueryError> {
        let mut left = self.parse_path_elt()?;
        while self.tok == Tok::Slash {
            self.advance()?;
            let right = self.parse_path_elt()?;
            left = Path::Seq(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_path_elt(&mut self) -> Result<Path, QueryError> {
        let inverted = if self.tok == Tok::Caret {
            self.advance()?;
            true
        } else {
            false
        };
        let mut p = self.parse_path_primary()?;
        loop {
            match self.tok {
                Tok::Star => {
                    self.advance()?;
                    p = Path::Star(Box::new(p));
                }
                Tok::Plus => {
                    self.advance()?;
                    p = Path::Plus(Box::new(p));
                }
                Tok::Question => {
                    self.advance()?;
                    p = Path::Opt(Box::new(p));
                }
                _ => break,
            }
        }
        if inverted {
            p = Path::Inv(Box::new(p));
        }
        Ok(p)
    }

    fn parse_path_primary(&mut self) -> Result<Path, QueryError> {
        match self.tok.clone() {
            Tok::Iri(u) => {
                self.advance()?;
                Ok(Path::Pred(TermPattern::Term(Term::uri(
                    self.ns.resolve(&u),
                ))))
            }
            Tok::PName { prefix, local } => {
                self.advance()?;
                Ok(Path::Pred(TermPattern::Term(Term::uri(
                    self.expand(&prefix, &local)?,
                ))))
            }
            Tok::Name(w) if w == "a" => {
                self.advance()?;
                Ok(Path::Pred(TermPattern::Term(Term::uri(RDF_TYPE))))
            }
            Tok::Var(v) => {
                self.advance()?;
                Ok(Path::Pred(TermPattern::Var(v)))
            }
            Tok::LParen => {
                self.advance()?;
                let p = self.parse_path()?;
                self.expect(Tok::RParen)?;
                Ok(p)
            }
            other => Err(self.err(format!("expected predicate or path, found {other:?}"))),
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, QueryError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, QueryError> {
        let mut left = self.parse_and()?;
        while self.tok == Tok::OrOr {
            self.advance()?;
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, QueryError> {
        let mut left = self.parse_rel()?;
        while self.tok == Tok::AndAnd {
            self.advance()?;
            let right = self.parse_rel()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_rel(&mut self) -> Result<Expr, QueryError> {
        let left = self.parse_add()?;
        // IN / NOT IN list membership.
        if self.at_kw("IN") || self.at_kw("NOT") {
            let negated = self.at_kw("NOT");
            if negated {
                // Only consume NOT when IN follows (else it's NOT EXISTS
                // handled elsewhere / a syntax error downstream).
                let save = self.tok.clone();
                self.advance()?;
                if !self.at_kw("IN") {
                    // Not a NOT IN: restore is impossible with a stream
                    // lexer, so report clearly.
                    let _ = save;
                    return Err(self.err("expected IN after NOT in expression"));
                }
            }
            if self.at_kw("IN") {
                self.advance()?;
                self.expect(Tok::LParen)?;
                let mut haystack = Vec::new();
                while self.tok != Tok::RParen {
                    haystack.push(self.parse_expr()?);
                    if self.tok == Tok::Comma {
                        self.advance()?;
                    }
                }
                self.advance()?; // )
                return Ok(Expr::InList {
                    needle: Box::new(left),
                    haystack,
                    negated,
                });
            }
        }
        let op = match self.tok {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.advance()?;
        let right = self.parse_add()?;
        Ok(Expr::Cmp(op, Box::new(left), Box::new(right)))
    }

    fn parse_add(&mut self) -> Result<Expr, QueryError> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.tok {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => break,
            };
            self.advance()?;
            let right = self.parse_mul()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr, QueryError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.tok {
                Tok::Star => ArithOp::Mul,
                Tok::Slash => ArithOp::Div,
                _ => break,
            };
            self.advance()?;
            let right = self.parse_unary()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, QueryError> {
        match self.tok {
            Tok::Bang => {
                self.advance()?;
                Ok(Expr::Not(Box::new(self.parse_unary()?)))
            }
            Tok::Minus => {
                self.advance()?;
                Ok(Expr::Neg(Box::new(self.parse_unary()?)))
            }
            Tok::Plus => {
                self.advance()?;
                self.parse_unary()
            }
            _ => self.parse_power(),
        }
    }

    fn parse_power(&mut self) -> Result<Expr, QueryError> {
        let base = self.parse_postfix()?;
        if self.tok == Tok::Caret {
            self.advance()?;
            // Right-associative.
            let exp = self.parse_unary()?;
            Ok(Expr::Arith(ArithOp::Pow, Box::new(base), Box::new(exp)))
        } else {
            Ok(base)
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, QueryError> {
        let primary = self.parse_primary()?;
        self.parse_postfix_from(primary)
    }

    fn parse_postfix_from(&mut self, mut e: Expr) -> Result<Expr, QueryError> {
        while self.tok == Tok::LBracket {
            self.advance()?;
            let mut subs = Vec::new();
            loop {
                subs.push(self.parse_subscript()?);
                if self.tok == Tok::Comma {
                    self.advance()?;
                    continue;
                }
                break;
            }
            self.expect(Tok::RBracket)?;
            e = Expr::ArrayDeref {
                base: Box::new(e),
                subscripts: subs,
            };
        }
        Ok(e)
    }

    fn parse_subscript(&mut self) -> Result<SubscriptExpr, QueryError> {
        // Leading ':' — no lower bound, or bare ':' for all.
        if self.tok == Tok::Colon {
            self.advance()?;
            if self.tok == Tok::Comma || self.tok == Tok::RBracket {
                return Ok(SubscriptExpr::All);
            }
            // ':hi' or ':stride:hi'
            let second = self.parse_add()?;
            if self.tok == Tok::Colon {
                self.advance()?;
                let hi = if self.tok == Tok::Comma || self.tok == Tok::RBracket {
                    None
                } else {
                    Some(self.parse_add()?)
                };
                return Ok(SubscriptExpr::Range {
                    lo: None,
                    stride: Some(second),
                    hi,
                });
            }
            return Ok(SubscriptExpr::Range {
                lo: None,
                stride: None,
                hi: Some(second),
            });
        }
        let first = self.parse_add()?;
        if self.tok != Tok::Colon {
            return Ok(SubscriptExpr::Index(first));
        }
        self.advance()?;
        if self.tok == Tok::Comma || self.tok == Tok::RBracket {
            // 'lo:' — to the end.
            return Ok(SubscriptExpr::Range {
                lo: Some(first),
                stride: None,
                hi: None,
            });
        }
        let second = self.parse_add()?;
        if self.tok == Tok::Colon {
            self.advance()?;
            let hi = if self.tok == Tok::Comma || self.tok == Tok::RBracket {
                None
            } else {
                Some(self.parse_add()?)
            };
            Ok(SubscriptExpr::Range {
                lo: Some(first),
                stride: Some(second),
                hi,
            })
        } else {
            Ok(SubscriptExpr::Range {
                lo: Some(first),
                stride: None,
                hi: Some(second),
            })
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, QueryError> {
        match self.tok.clone() {
            Tok::Var(v) => {
                self.advance()?;
                Ok(Expr::Var(v))
            }
            Tok::Integer(i) => {
                self.advance()?;
                Ok(Expr::Const(Term::integer(i)))
            }
            Tok::Double(d) => {
                self.advance()?;
                Ok(Expr::Const(Term::double(d)))
            }
            Tok::Str(s) => {
                self.advance()?;
                if let Tok::LangTag(lang) = self.tok.clone() {
                    self.advance()?;
                    Ok(Expr::Const(Term::LangStr { value: s, lang }))
                } else {
                    Ok(Expr::Const(Term::Str(s)))
                }
            }
            Tok::Iri(u) => {
                self.advance()?;
                let uri = self.ns.resolve(&u);
                if self.tok == Tok::LParen {
                    self.parse_call(uri)
                } else {
                    Ok(Expr::Const(Term::uri(uri)))
                }
            }
            Tok::PName { prefix, local } => {
                self.advance()?;
                let uri = self.expand(&prefix, &local)?;
                if self.tok == Tok::LParen {
                    self.parse_call(uri)
                } else {
                    Ok(Expr::Const(Term::uri(uri)))
                }
            }
            Tok::LParen => {
                self.advance()?;
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Name(w) => {
                let upper = w.to_ascii_uppercase();
                match upper.as_str() {
                    "TRUE" => {
                        self.advance()?;
                        Ok(Expr::Const(Term::Bool(true)))
                    }
                    "FALSE" => {
                        self.advance()?;
                        Ok(Expr::Const(Term::Bool(false)))
                    }
                    "EXISTS" | "NOT" => self.parse_exists(),
                    "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "SAMPLE" | "GROUP_CONCAT" => {
                        self.parse_aggregate(&upper)
                    }
                    "FUNCTION" => {
                        // FUNCTION name — an explicit function reference.
                        self.advance()?;
                        let name = self.parse_function_name()?;
                        Ok(Expr::FunctionRef {
                            name,
                            bound: Vec::new(),
                        })
                    }
                    _ => {
                        self.advance()?;
                        if self.tok == Tok::LParen {
                            self.parse_call(w)
                        } else {
                            // Bare name: a function reference.
                            Ok(Expr::FunctionRef {
                                name: w,
                                bound: Vec::new(),
                            })
                        }
                    }
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn parse_aggregate(&mut self, kw: &str) -> Result<Expr, QueryError> {
        let kind = match kw {
            "COUNT" => AggKind::Count,
            "SUM" => AggKind::Sum,
            "AVG" => AggKind::Avg,
            "MIN" => AggKind::Min,
            "MAX" => AggKind::Max,
            "SAMPLE" => AggKind::Sample,
            "GROUP_CONCAT" => AggKind::GroupConcat,
            _ => unreachable!("caller checked keyword"),
        };
        self.advance()?;
        self.expect(Tok::LParen)?;
        let distinct = self.eat_kw("DISTINCT")?;
        let arg = if self.tok == Tok::Star {
            self.advance()?;
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut separator = None;
        if self.tok == Tok::Semicolon {
            self.advance()?;
            self.require_kw("SEPARATOR")?;
            self.expect(Tok::Eq)?;
            let Tok::Str(s) = self.tok.clone() else {
                return Err(self.err("expected string separator"));
            };
            self.advance()?;
            separator = Some(s);
        }
        self.expect(Tok::RParen)?;
        Ok(Expr::Aggregate {
            kind,
            distinct,
            arg,
            separator,
        })
    }

    fn parse_call(&mut self, name: String) -> Result<Expr, QueryError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        let mut has_placeholder = false;
        loop {
            if self.tok == Tok::RParen {
                self.advance()?;
                break;
            }
            let arg = self.parse_expr()?;
            if matches!(&arg, Expr::Var(v) if v == "_") {
                has_placeholder = true;
            }
            args.push(arg);
            if self.tok == Tok::Comma {
                self.advance()?;
            }
        }
        if has_placeholder {
            // Partial application: `f(1, ?_)` creates a closure with the
            // placeholders as remaining parameters (thesis §4.3).
            let bound = args
                .into_iter()
                .map(|a| match &a {
                    Expr::Var(v) if v == "_" => None,
                    _ => Some(a),
                })
                .collect();
            Ok(Expr::FunctionRef { name, bound })
        } else {
            Ok(Expr::Call { name, args })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(q: &str) -> SelectQuery {
        match parse(q).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let q = select("SELECT ?x WHERE { ?x <http://p> 1 }");
        assert!(matches!(q.projection, Projection::Items(ref v) if v.len() == 1));
        assert_eq!(q.pattern.elems.len(), 1);
    }

    #[test]
    fn prefixes_and_semicolons() {
        let q = select(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>
             SELECT ?n WHERE { ?p foaf:name ?n ; foaf:knows ?q , ?r . }",
        );
        assert_eq!(q.pattern.elems.len(), 3);
        if let PatternElem::Triple(t) = &q.pattern.elems[0] {
            assert_eq!(
                t.path.as_pred(),
                Some(&TermPattern::Term(Term::uri(
                    "http://xmlns.com/foaf/0.1/name"
                )))
            );
        } else {
            panic!("expected triple");
        }
    }

    #[test]
    fn optional_union_filter() {
        let q = select(
            "SELECT ?x WHERE {
                ?x <http://p> ?y .
                OPTIONAL { ?x <http://q> ?z }
                { ?x <http://r> 1 } UNION { ?x <http://r> 2 }
                FILTER (?y > 3 && bound(?z))
             }",
        );
        assert_eq!(q.pattern.elems.len(), 4);
        assert!(matches!(q.pattern.elems[1], PatternElem::Optional(_)));
        assert!(matches!(q.pattern.elems[2], PatternElem::Union(ref b) if b.len() == 2));
        assert!(matches!(q.pattern.elems[3], PatternElem::Filter(_)));
    }

    #[test]
    fn array_deref_subscripts() {
        let q = select("SELECT (?a[2, 1:2:5, :] AS ?v) WHERE { ?s <http://p> ?a }");
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        let Expr::ArrayDeref { subscripts, .. } = &items[0].expr else {
            panic!("expected deref, got {:?}", items[0].expr)
        };
        assert_eq!(subscripts.len(), 3);
        assert!(matches!(subscripts[0], SubscriptExpr::Index(_)));
        assert!(matches!(
            subscripts[1],
            SubscriptExpr::Range {
                lo: Some(_),
                stride: Some(_),
                hi: Some(_)
            }
        ));
        assert!(matches!(subscripts[2], SubscriptExpr::All));
    }

    #[test]
    fn open_ranges() {
        let q = select("SELECT (?a[:5] AS ?h) (?a[3:] AS ?t) WHERE { ?s <http://p> ?a }");
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        let Expr::ArrayDeref { subscripts, .. } = &items[0].expr else {
            panic!()
        };
        assert!(matches!(
            subscripts[0],
            SubscriptExpr::Range {
                lo: None,
                stride: None,
                hi: Some(_)
            }
        ));
        let Expr::ArrayDeref { subscripts, .. } = &items[1].expr else {
            panic!()
        };
        assert!(matches!(
            subscripts[0],
            SubscriptExpr::Range {
                lo: Some(_),
                stride: None,
                hi: None
            }
        ));
    }

    #[test]
    fn deref_in_select_without_alias() {
        let q = select("SELECT ?a[2] WHERE { ?s <http://p> ?a }");
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        assert_eq!(items[0].alias.as_deref(), Some("a"));
        assert!(matches!(items[0].expr, Expr::ArrayDeref { .. }));
    }

    #[test]
    fn property_paths() {
        let q = select("SELECT ?x WHERE { ?x (<http://p>/<http://q>)+ ?y . ?y ^<http://r> ?z }");
        let PatternElem::Triple(t) = &q.pattern.elems[0] else {
            panic!()
        };
        assert!(matches!(t.path, Path::Plus(_)));
        let PatternElem::Triple(t2) = &q.pattern.elems[1] else {
            panic!()
        };
        assert!(matches!(t2.path, Path::Inv(_)));
    }

    #[test]
    fn path_alternative_and_star() {
        let q = select("SELECT ?x WHERE { ?x <http://a>|<http://b> ?y . ?y <http://c>* ?z }");
        let PatternElem::Triple(t) = &q.pattern.elems[0] else {
            panic!()
        };
        assert!(matches!(t.path, Path::Alt(_, _)));
    }

    #[test]
    fn aggregates_and_grouping() {
        let q = select(
            "SELECT ?g (COUNT(*) AS ?n) (AVG(?v) AS ?m) WHERE { ?x <http://g> ?g ; <http://v> ?v }
             GROUP BY ?g HAVING (COUNT(*) > 1) ORDER BY DESC(?n) LIMIT 5 OFFSET 2",
        );
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].ascending);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
    }

    #[test]
    fn values_clause() {
        let q = select("SELECT ?x WHERE { VALUES (?x ?y) { (1 2) (UNDEF 3) } }");
        let PatternElem::Values { vars, rows } = &q.pattern.elems[0] else {
            panic!()
        };
        assert_eq!(vars.len(), 2);
        assert_eq!(rows.len(), 2);
        assert!(rows[1][0].is_none());
    }

    #[test]
    fn exists_filter() {
        let q =
            select("SELECT ?x WHERE { ?x <http://p> ?y FILTER NOT EXISTS { ?x <http://q> ?z } }");
        let PatternElem::Filter(Expr::Exists { negated, .. }) = &q.pattern.elems[1] else {
            panic!("{:?}", q.pattern.elems)
        };
        assert!(*negated);
    }

    #[test]
    fn define_function() {
        let s = parse(
            "PREFIX ex: <http://example.org/>
             DEFINE FUNCTION ex:squares(?v) AS
             SELECT (?v * ?v AS ?r) WHERE { }",
        )
        .unwrap();
        let Statement::DefineFunction(f) = s else {
            panic!()
        };
        assert_eq!(f.name, "http://example.org/squares");
        assert_eq!(f.params, vec!["v"]);
    }

    #[test]
    fn function_call_and_closure() {
        let q = select("SELECT (array_map(square, ?a) AS ?m) (f(1, ?_) AS ?c) WHERE { }");
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        let Expr::Call { name, args } = &items[0].expr else {
            panic!()
        };
        assert_eq!(name, "array_map");
        assert!(matches!(&args[0], Expr::FunctionRef { name, .. } if name == "square"));
        let Expr::FunctionRef { name, bound } = &items[1].expr else {
            panic!()
        };
        assert_eq!(name, "f");
        assert_eq!(bound.len(), 2);
        assert!(bound[0].is_some());
        assert!(bound[1].is_none());
    }

    #[test]
    fn insert_data_with_array() {
        let s = parse(
            "PREFIX ex: <http://example.org/>
             INSERT DATA { ex:s ex:p ((1 2) (3 4)) ; ex:q 5 . }",
        )
        .unwrap();
        let Statement::InsertData(triples) = s else {
            panic!()
        };
        assert_eq!(triples.len(), 2);
        assert!(matches!(triples[0].object, Term::Array(_)));
    }

    #[test]
    fn ask_query() {
        let s = parse("ASK { ?x <http://p> 1 }").unwrap();
        assert!(matches!(s, Statement::Ask(_)));
    }

    #[test]
    fn construct_query() {
        let s = parse(
            "CONSTRUCT { ?x <http://knows2> ?z } WHERE { ?x <http://k> ?y . ?y <http://k> ?z }",
        )
        .unwrap();
        let Statement::Construct(c) = s else { panic!() };
        assert_eq!(c.template.len(), 1);
    }

    #[test]
    fn arithmetic_precedence() {
        let q = select("SELECT (1 + 2 * 3 AS ?x) WHERE { }");
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        let Expr::Arith(ArithOp::Add, _, rhs) = &items[0].expr else {
            panic!("{:?}", items[0].expr)
        };
        assert!(matches!(**rhs, Expr::Arith(ArithOp::Mul, _, _)));
    }

    #[test]
    fn power_is_right_assoc() {
        let q = select("SELECT (2 ^ 3 ^ 2 AS ?x) WHERE { }");
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        let Expr::Arith(ArithOp::Pow, _, rhs) = &items[0].expr else {
            panic!()
        };
        assert!(matches!(**rhs, Expr::Arith(ArithOp::Pow, _, _)));
    }

    #[test]
    fn comparison_vs_iri() {
        // '<' must lex as less-than here, not an IRI start.
        let q = select("SELECT ?x WHERE { ?x <http://p> ?y FILTER (?y < 5) }");
        assert!(matches!(
            q.pattern.elems[1],
            PatternElem::Filter(Expr::Cmp(CmpOp::Lt, _, _))
        ));
    }

    #[test]
    fn blank_property_list_expands() {
        let q =
            select("SELECT ?n WHERE { [] <http://name> ?n ; <http://knows> [ <http://name> ?m ] }");
        // [] and [ ... ] become fresh vars with extra triples.
        let triples: Vec<_> = q
            .pattern
            .elems
            .iter()
            .filter(|e| matches!(e, PatternElem::Triple(_)))
            .collect();
        assert_eq!(triples.len(), 3);
    }

    #[test]
    fn parse_error_position() {
        let err = parse("SELECT ?x WHERE { ?x <http://p } ").unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }));
    }

    #[test]
    fn unknown_prefix_rejected() {
        let err = parse("SELECT ?x WHERE { ?x nope:p 1 }").unwrap_err();
        let QueryError::Parse { msg, .. } = err else {
            panic!()
        };
        assert!(msg.contains("unknown prefix"));
    }

    #[test]
    fn values_single_var_shorthand() {
        let q = select("SELECT ?x WHERE { VALUES ?x { 1 2 3 } }");
        let PatternElem::Values { vars, rows } = &q.pattern.elems[0] else {
            panic!()
        };
        assert_eq!(vars, &["x"]);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn bind_clause() {
        let q = select("SELECT ?y WHERE { ?s <http://p> ?x BIND (?x * 2 AS ?y) }");
        assert!(matches!(
            q.pattern.elems[1],
            PatternElem::Bind { ref var, .. } if var == "y"
        ));
    }

    #[test]
    fn negative_subscript() {
        let q = select("SELECT (?a[-1] AS ?last) WHERE { ?s <http://p> ?a }");
        let Projection::Items(items) = &q.projection else {
            panic!()
        };
        let Expr::ArrayDeref { subscripts, .. } = &items[0].expr else {
            panic!()
        };
        assert!(matches!(subscripts[0], SubscriptExpr::Index(Expr::Neg(_))));
    }
}
