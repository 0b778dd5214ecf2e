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
//! RDF terms (IRIs, blank nodes, literals, numbers, prefixed names) are
//! read by [`ssdm_rdf::lex`], the lexer the Turtle loader uses, so a
//! term written the same way in data and in a query is the same term;
//! this module keeps the operators, variables, bare words and the
//! `<`-is-an-IRI-or-less-than lookahead. One deliberate restriction:
//! prefixed names require a non-empty prefix (`ex:p`, not `:p`),
//! because a bare leading colon is claimed by the array range syntax
//! `?a[1:3]`.
//!
//! Every parse ends: a group that reads nothing more is an error, and
//! nesting deeper than [`ssdm_rdf::lex::MAX_NESTING`] levels is refused
//! with a positioned error rather than overflowing the stack (the
//! router parses on the event loop thread). The loops that build
//! left-deep chains (`||`, `&&`, `+`, `*`, path `/` and `|`, path
//! modifiers, subscripts) count a level per link, so no expression or
//! path tree grows deeper than the bound either. A statement's patterns
//! hold at most [`MAX_PATTERNS`] triple patterns.

use ssdm_array::Num;
use ssdm_rdf::lex::{typed_literal, Cursor};
use ssdm_rdf::{Namespaces, RdfError, Term, RDF_TYPE};

use crate::ast::*;
use crate::dataset::QueryError;

/// The most triple patterns the patterns of one statement hold: the
/// planner orders a join's children in time quadratic in their number
/// (4 096 in about a second, release build).
pub const MAX_PATTERNS: usize = 4096;

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
    Number(Num),
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

/// A lexer error as a positioned syntax error.
fn syntax(e: RdfError) -> QueryError {
    match e {
        RdfError::Parse { line, col, msg } => QueryError::Parse { line, col, msg },
        other => QueryError::Rdf(other),
    }
}

/// The next token and the line and column it starts at.
fn next_token(cur: &mut Cursor) -> Result<(Tok, usize, usize), QueryError> {
    cur.skip_ws();
    let (line, col) = cur.line_col();
    let tok = lex(cur).map_err(syntax)?;
    Ok((tok, line, col))
}

fn lex(cur: &mut Cursor) -> Result<Tok, RdfError> {
    let Some(c) = cur.peek() else {
        return Ok(Tok::Eof);
    };
    let next = cur.peek_at(1);
    let (tok, len) = match (c, next) {
        (b'<', _) if iri_ahead(cur) => return cur.iri().map(Tok::Iri),
        (b'"' | b'\'', _) => return cur.string().map(Tok::Str),
        (b'_', Some(b':')) => return Ok(Tok::BlankLabel(cur.blank_label()?.to_string())),
        (b'@', _) => return Ok(Tok::LangTag(cur.lang_tag()?.to_string())),
        (b'0'..=b'9', _) | (b'.', Some(b'0'..=b'9')) => return cur.number(false).map(Tok::Number),
        // A variable, or a bare '?' (the path zero-or-one operator).
        (b'?' | b'$', Some(n)) if n.is_ascii_alphanumeric() || n == b'_' => {
            cur.bump();
            return Ok(Tok::Var(cur.word().to_string()));
        }
        (c, _) if c.is_ascii_alphabetic() || c == b'_' => {
            return Ok(match cur.prefixed_name() {
                Some((prefix, local)) => Tok::PName {
                    prefix: prefix.to_string(),
                    local: local.to_string(),
                },
                None => Tok::Name(cur.word().to_string()),
            })
        }
        (b'<', Some(b'=')) => (Tok::Le, 2),
        (b'>', Some(b'=')) => (Tok::Ge, 2),
        (b'!', Some(b'=')) => (Tok::Ne, 2),
        (b'&', Some(b'&')) => (Tok::AndAnd, 2),
        (b'|', Some(b'|')) => (Tok::OrOr, 2),
        (b'^', Some(b'^')) => (Tok::DoubleCaret, 2),
        (b'{', _) => (Tok::LBrace, 1),
        (b'}', _) => (Tok::RBrace, 1),
        (b'(', _) => (Tok::LParen, 1),
        (b')', _) => (Tok::RParen, 1),
        (b'[', _) => (Tok::LBracket, 1),
        (b']', _) => (Tok::RBracket, 1),
        (b',', _) => (Tok::Comma, 1),
        (b';', _) => (Tok::Semicolon, 1),
        (b':', _) => (Tok::Colon, 1),
        (b'.', _) => (Tok::Dot, 1),
        (b'?' | b'$', _) => (Tok::Question, 1),
        (b'<', _) => (Tok::Lt, 1),
        (b'>', _) => (Tok::Gt, 1),
        (b'=', _) => (Tok::Eq, 1),
        (b'!', _) => (Tok::Bang, 1),
        (b'|', _) => (Tok::Pipe, 1),
        (b'+', _) => (Tok::Plus, 1),
        (b'-', _) => (Tok::Minus, 1),
        (b'*', _) => (Tok::Star, 1),
        (b'/', _) => (Tok::Slash, 1),
        (b'^', _) => (Tok::Caret, 1),
        (b'&', _) => return Err(cur.err("expected '&&'")),
        (other, _) => {
            return Err(cur.err(format!("unexpected character '{}'", other.escape_ascii())))
        }
    };
    for _ in 0..len {
        cur.bump();
    }
    Ok(tok)
}

/// Whether the `<` at the cursor opens an IRI rather than comparing:
/// it does when a name character follows and a `>` comes before any
/// whitespace.
fn iri_ahead(cur: &Cursor) -> bool {
    let opens = |n: u8| n.is_ascii_alphanumeric() || n >= 0x80 || matches!(n, b'_' | b'/' | b'>');
    cur.peek_at(1).is_some_and(opens)
        && (1..)
            .map_while(|k| cur.peek_at(k).filter(|c| !c.is_ascii_whitespace()))
            .any(|c| c == b'>')
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    cur: Cursor<'a>,
    tok: Tok,
    line: usize,
    col: usize,
    ns: Namespaces,
    fresh: usize,
    /// Triple patterns read into groups so far.
    patterns: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Result<Self, QueryError> {
        let mut p = Parser {
            cur: Cursor::new(text),
            tok: Tok::Eof,
            line: 1,
            col: 1,
            ns: Namespaces::new(),
            fresh: 0,
            patterns: 0,
        };
        p.advance()?;
        Ok(p)
    }

    fn advance(&mut self) -> Result<(), QueryError> {
        let (tok, line, col) = next_token(&mut self.cur)?;
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
    /// (detected by probing a clone of the cursor).
    fn peek_is_select(&mut self) -> bool {
        self.tok == Tok::LBrace
            && matches!(next_token(&mut self.cur.clone()), Ok((Tok::Name(w), _, _)) if w.eq_ignore_ascii_case("SELECT"))
    }

    /// Go one nesting level deeper (see [`ssdm_rdf::lex::MAX_NESTING`]);
    /// pair with `self.cur.leave()`.
    fn enter(&mut self) -> Result<(), QueryError> {
        self.cur.enter().map_err(syntax)
    }

    /// Run `f` from nesting depth `base`, beside what was parsed since
    /// `base` (the next argument of a call, say): afterwards the deeper
    /// of the two counts.
    fn beside<T>(
        &mut self,
        base: usize,
        f: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let deep = self.cur.depth();
        self.cur.set_depth(base);
        let out = f(self)?;
        self.cur.set_depth(deep.max(self.cur.depth()));
        Ok(out)
    }

    /// The right operand of a link of a left-deep chain begun at depth
    /// `base` (`a + b + c` is `(a + b) + c`), with the link counted: a
    /// chain of n links nests its first operand n levels deep, and each
    /// link stays counted until the expression or path ends.
    fn link<T>(
        &mut self,
        base: usize,
        operand: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let right = self.beside(base, operand)?;
        self.enter()?;
        Ok(right)
    }

    /// Run `f` over an expression or a path that stands alone in the
    /// statement, and give back the levels its chains counted.
    fn alone<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let depth = self.cur.depth();
        let out = f(self)?;
        self.cur.set_depth(depth);
        Ok(out)
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("_anon{}", self.fresh)
    }

    /// The IRI an IRI reference or prefixed name stands for, consumed;
    /// `None` at any other token.
    fn iri(&mut self) -> Result<Option<String>, QueryError> {
        let iri = match &self.tok {
            Tok::Iri(u) => self.ns.resolve(u),
            Tok::PName { prefix, local } => self
                .ns
                .expand(prefix, local)
                .map_err(|e| self.err(e.to_string()))?,
            _ => return Ok(None),
        };
        self.advance()?;
        Ok(Some(iri))
    }

    /// The literal a string starts: plain, language-tagged or typed
    /// (through the term syntax Turtle uses, so `"42"^^xsd:integer` is
    /// the number 42 in both).
    fn literal(&mut self, value: String) -> Result<Term, QueryError> {
        match self.tok.clone() {
            Tok::LangTag(lang) => {
                self.advance()?;
                Ok(Term::LangStr { value, lang })
            }
            Tok::DoubleCaret => {
                self.advance()?;
                let Some(dt) = self.iri()? else {
                    return Err(self.err(format!("bad datatype {:?}", self.tok)));
                };
                typed_literal(value, dt).map_err(|e| self.err(e.to_string()))
            }
            _ => Ok(Term::Str(value)),
        }
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
            while let Some(iri) = self.iri()? {
                targets.push(Term::uri(iri));
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
        if let Tok::Name(n) = self.tok.clone() {
            self.advance()?;
            return Ok(n);
        }
        self.iri()?
            .ok_or_else(|| self.err(format!("expected function name, found {:?}", self.tok)))
    }

    fn parse_usize(&mut self) -> Result<usize, QueryError> {
        match self.tok {
            Tok::Number(Num::Int(i)) if i >= 0 => {
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
                            let var = Expr::Var(v.clone());
                            let expr = self.alone(|p| p.parse_postfix_from(var))?;
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
            let Some(uri) = self.iri()? else {
                return Err(self.err(format!("expected IRI after FROM, found {:?}", self.tok)));
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
        let outer = self.cur.depth();
        self.enter()?;
        self.expect(Tok::LBrace)?;
        let mut elems: Vec<PatternElem> = Vec::new();
        loop {
            if self.tok == Tok::RBrace {
                self.advance()?;
                break;
            }
            // OPTIONAL, FILTER, BIND and MINUS each wrap the group's plan
            // in one node more, so, like a link of a chain, each counts a
            // level once read, until the group ends.
            if self.at_kw("OPTIONAL") {
                self.advance()?;
                elems.push(PatternElem::Optional(self.parse_group()?));
                self.enter()?;
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
                self.enter()?;
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
                self.enter()?;
            } else if self.at_kw("VALUES") {
                self.advance()?;
                elems.push(self.parse_values()?);
            } else if self.at_kw("GRAPH") {
                self.advance()?;
                let name = match (self.iri()?, self.tok.clone()) {
                    (Some(iri), _) => TermPattern::Term(Term::uri(iri)),
                    (None, Tok::Var(v)) => {
                        self.advance()?;
                        TermPattern::Var(v)
                    }
                    (None, other) => return Err(self.err(format!("bad GRAPH name: {other:?}"))),
                };
                let pattern = self.parse_group()?;
                elems.push(PatternElem::Graph { name, pattern });
            } else if self.at_kw("MINUS") {
                self.advance()?;
                elems.push(PatternElem::Minus(self.parse_group()?));
                self.enter()?;
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
                // Triples block; one that reads nothing is a token no
                // pattern starts with, or the end of the input.
                let triples = self.parse_triples_block(Tok::RBrace)?;
                if triples.is_empty() {
                    return Err(
                        self.err(format!("expected a pattern or '}}', found {:?}", self.tok))
                    );
                }
                self.patterns += triples.len();
                if self.patterns > MAX_PATTERNS {
                    return Err(self.err(format!("more than {MAX_PATTERNS} triple patterns")));
                }
                elems.extend(triples.into_iter().map(PatternElem::Triple));
            }
            // Optional separating dot.
            while self.tok == Tok::Dot {
                self.advance()?;
            }
        }
        self.cur.set_depth(outer);
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
            let path = self.alone(Self::parse_path)?;
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
                self.enter()?;
                self.advance()?;
                let var = self.fresh_var();
                if self.tok != Tok::RBracket {
                    self.parse_property_list(TermPattern::Var(var.clone()), out)?;
                }
                self.expect(Tok::RBracket)?;
                self.cur.leave();
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
            p.enter()?;
            let mut rows = Vec::new();
            loop {
                if let Some(n) = p.number()? {
                    rows.push(Nested::Leaf(n));
                    continue;
                }
                match p.tok.clone() {
                    Tok::RParen => {
                        p.advance()?;
                        break;
                    }
                    Tok::LParen => {
                        p.advance()?;
                        rows.push(read(p)?);
                    }
                    // A typed number, as a double that is not finite is
                    // written (`"NaN"^^xsd:double`).
                    Tok::Str(s) => {
                        p.advance()?;
                        match p.literal(s)? {
                            Term::Number(n) => rows.push(Nested::Leaf(n)),
                            t => {
                                return Err(p.err(format!(
                                    "collections in queries must be numeric, found {t}"
                                )))
                            }
                        }
                    }
                    other => {
                        return Err(p.err(format!(
                            "collections in queries must be numeric, found {other:?}"
                        )))
                    }
                }
            }
            p.cur.leave();
            Ok(Nested::Row(rows))
        }
        let nested = read(self)?;
        let arr = ssdm_array::NumArray::from_nested(&nested)
            .map_err(|e| self.err(format!("bad array constant: {e}")))?;
        Ok(Term::Array(arr))
    }

    /// A number constant, a leading `-` or `+` token read as its sign (so
    /// every number Turtle reads, down to `i64::MIN`, reads here too);
    /// `None` at any other token.
    fn number(&mut self) -> Result<Option<Num>, QueryError> {
        let n = match self.tok {
            Tok::Number(n) => n,
            // The cursor is just past the sign.
            Tok::Minus | Tok::Plus => {
                self.cur.skip_ws();
                if !self
                    .cur
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || c == b'.')
                {
                    return Err(self.err(format!("expected number after {:?}", self.tok)));
                }
                self.cur.number(self.tok == Tok::Minus).map_err(syntax)?
            }
            _ => return Ok(None),
        };
        self.advance()?;
        Ok(Some(n))
    }

    fn parse_ground_term(&mut self) -> Result<Term, QueryError> {
        if let Some(iri) = self.iri()? {
            return Ok(Term::uri(iri));
        }
        if let Some(n) = self.number()? {
            return Ok(Term::Number(n));
        }
        match self.tok.clone() {
            Tok::BlankLabel(b) => {
                self.advance()?;
                Ok(Term::blank(b))
            }
            Tok::Str(s) => {
                self.advance()?;
                self.literal(s)
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
        let base = self.cur.depth();
        let mut left = self.parse_path_seq()?;
        while self.tok == Tok::Pipe {
            self.advance()?;
            let right = self.link(base, Self::parse_path_seq)?;
            left = Path::Alt(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_path_seq(&mut self) -> Result<Path, QueryError> {
        let base = self.cur.depth();
        let mut left = self.parse_path_elt()?;
        while self.tok == Tok::Slash {
            self.advance()?;
            let right = self.link(base, Self::parse_path_elt)?;
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
            let modifier = match self.tok {
                Tok::Star => Path::Star,
                Tok::Plus => Path::Plus,
                Tok::Question => Path::Opt,
                _ => break,
            };
            self.advance()?;
            self.enter()?;
            p = modifier(Box::new(p));
        }
        if inverted {
            p = Path::Inv(Box::new(p));
        }
        Ok(p)
    }

    fn parse_path_primary(&mut self) -> Result<Path, QueryError> {
        if let Some(iri) = self.iri()? {
            return Ok(Path::Pred(TermPattern::Term(Term::uri(iri))));
        }
        match self.tok.clone() {
            Tok::Name(w) if w == "a" => {
                self.advance()?;
                Ok(Path::Pred(TermPattern::Term(Term::uri(RDF_TYPE))))
            }
            Tok::Var(v) => {
                self.advance()?;
                Ok(Path::Pred(TermPattern::Var(v)))
            }
            Tok::LParen => {
                self.enter()?;
                self.advance()?;
                let p = self.parse_path()?;
                self.expect(Tok::RParen)?;
                self.cur.leave();
                Ok(p)
            }
            other => Err(self.err(format!("expected predicate or path, found {other:?}"))),
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    /// An expression that stands alone: a FILTER, a BIND, a projection
    /// or a solution modifier. Nested expressions start at `parse_or`.
    fn parse_expr(&mut self) -> Result<Expr, QueryError> {
        self.alone(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr, QueryError> {
        let base = self.cur.depth();
        let mut left = self.parse_and()?;
        while self.tok == Tok::OrOr {
            self.advance()?;
            let right = self.link(base, Self::parse_and)?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, QueryError> {
        let base = self.cur.depth();
        let mut left = self.parse_rel()?;
        while self.tok == Tok::AndAnd {
            self.advance()?;
            let right = self.link(base, Self::parse_rel)?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_rel(&mut self) -> Result<Expr, QueryError> {
        let base = self.cur.depth();
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
                    haystack.push(self.beside(base, Self::parse_or)?);
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
        let right = self.beside(base, Self::parse_add)?;
        Ok(Expr::Cmp(op, Box::new(left), Box::new(right)))
    }

    fn parse_add(&mut self) -> Result<Expr, QueryError> {
        let base = self.cur.depth();
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.tok {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => break,
            };
            self.advance()?;
            let right = self.link(base, Self::parse_mul)?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr, QueryError> {
        let base = self.cur.depth();
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.tok {
                Tok::Star => ArithOp::Mul,
                Tok::Slash => ArithOp::Div,
                _ => break,
            };
            self.advance()?;
            let right = self.link(base, Self::parse_unary)?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// A unary expression, one nesting level down: every way an
    /// expression nests (brackets, calls, prefix operators, powers,
    /// subscripts) passes through here.
    fn parse_unary(&mut self) -> Result<Expr, QueryError> {
        self.enter()?;
        let e = match self.tok {
            Tok::Bang => {
                self.advance()?;
                Expr::Not(Box::new(self.parse_unary()?))
            }
            // The cursor is just past the `-`: one right before a number
            // is its sign, as in a pattern, so `-9223372036854775808` is
            // `i64::MIN`.
            Tok::Minus if self.signs_a_number() => {
                self.tok = Tok::Number(self.cur.number(true).map_err(syntax)?);
                self.parse_unary()?
            }
            Tok::Minus => {
                self.advance()?;
                Expr::Neg(Box::new(self.parse_unary()?))
            }
            Tok::Plus => {
                self.advance()?;
                self.parse_unary()?
            }
            _ => self.parse_power()?,
        };
        self.cur.leave();
        Ok(e)
    }

    /// Whether the `-` just read is the sign of the number right after
    /// it: a digit follows directly, and no `^` or `[` after the number
    /// takes it first (`-2^2` is `-(2^2)`).
    fn signs_a_number(&self) -> bool {
        let mut probe = self.cur.clone();
        probe.peek().is_some_and(|c| c.is_ascii_digit())
            && probe.number(true).is_ok()
            && !matches!(next_token(&mut probe), Ok((Tok::Caret | Tok::LBracket, ..)))
    }

    fn parse_power(&mut self) -> Result<Expr, QueryError> {
        let depth = self.cur.depth();
        let base = self.parse_postfix()?;
        if self.tok == Tok::Caret {
            self.advance()?;
            // Right-associative.
            let exp = self.beside(depth, Self::parse_unary)?;
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
        let base = self.cur.depth();
        while self.tok == Tok::LBracket {
            self.advance()?;
            let mut subs = Vec::new();
            loop {
                subs.push(self.beside(base, Self::parse_subscript)?);
                if self.tok == Tok::Comma {
                    self.advance()?;
                    continue;
                }
                break;
            }
            self.expect(Tok::RBracket)?;
            self.enter()?;
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
        if let Some(uri) = self.iri()? {
            return if self.tok == Tok::LParen {
                self.parse_call(uri)
            } else {
                Ok(Expr::Const(Term::uri(uri)))
            };
        }
        match self.tok.clone() {
            Tok::Var(v) => {
                self.advance()?;
                Ok(Expr::Var(v))
            }
            Tok::Number(n) => {
                self.advance()?;
                Ok(Expr::Const(Term::Number(n)))
            }
            Tok::Str(s) => {
                self.advance()?;
                Ok(Expr::Const(self.literal(s)?))
            }
            Tok::LParen => {
                self.advance()?;
                let e = self.parse_or()?;
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
            Some(Box::new(self.parse_or()?))
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
        let base = self.cur.depth();
        loop {
            if self.tok == Tok::RParen {
                self.advance()?;
                break;
            }
            let arg = self.beside(base, Self::parse_or)?;
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
        // The `-` is the number's sign, as in a pattern.
        assert!(matches!(
            subscripts[0],
            SubscriptExpr::Index(Expr::Const(Term::Number(Num::Int(-1))))
        ));
    }
}
