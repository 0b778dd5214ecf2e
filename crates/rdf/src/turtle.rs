//! Turtle (Terse RDF Triple Language) parsing and serialization.
//!
//! The parser covers the Turtle subset used throughout the thesis:
//! `@prefix`/`@base` (and SPARQL-style `PREFIX`/`BASE`), predicate-object
//! lists with `;` and `,`, the `a` keyword, anonymous and labelled blank
//! nodes, `[ ... ]` property lists, numeric / boolean / string literals
//! (with language tags and `^^` datatypes), and collections `( ... )`.
//!
//! Collections whose leaves are all numeric and whose nesting is
//! rectangular are **consolidated into array values** on import, exactly
//! as SSDM does (thesis §5.3.2): the dataset `:s :p ((1 2) (3 4)) .`
//! produces a single triple whose object is a 2×2 array instead of 13
//! linked-list triples. Non-numeric or ragged collections expand into
//! the standard `rdf:first`/`rdf:rest` linked list. Consolidation can be
//! disabled to measure its effect (experiment E5).

use ssdm_array::{Nested, NumArray};

use crate::dictionary::TermId;
use crate::graph::{Graph, GraphMut, Triple};
use crate::namespaces::{Namespaces, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE};
use crate::term::{escape_str, RdfError, Term};

/// Parser options.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Recognize rectangular numeric collections and store them as array
    /// values (SSDM behaviour). When false, collections always expand to
    /// `rdf:first`/`rdf:rest` lists.
    pub consolidate_arrays: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            consolidate_arrays: true,
        }
    }
}

/// Parse a Turtle document into `graph` with default options
/// (array consolidation on). Returns the number of triples added.
pub fn parse_into<'a>(graph: impl Into<GraphMut<'a>>, text: &str) -> Result<usize, RdfError> {
    parse_into_with(graph, text, ParseOptions::default())
}

/// Parse with explicit options.
pub fn parse_into_with<'a>(
    graph: impl Into<GraphMut<'a>>,
    text: &str,
    options: ParseOptions,
) -> Result<usize, RdfError> {
    let mut graph = graph.into();
    let mut parser = Parser::new(text, options);
    let parsed = parser.parse_document(&mut graph);
    // Nothing reads the indexes while parsing, so the document's
    // triples go in as one batch, the ones before a syntax error too.
    let added = graph.extend_ids(&parser.triples);
    parsed.map(|()| added)
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    IriRef(String),
    PName { prefix: String, local: String },
    BlankLabel(String),
    Anon, // []
    StringLit(String),
    LangTag(String),
    Integer(i64),
    Double(f64),
    KwA,
    KwPrefix, // @prefix or PREFIX
    KwBase,   // @base or BASE
    KwTrue,
    KwFalse,
    Dot,
    Semicolon,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    DoubleCaret, // ^^
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

    fn err(&self, msg: impl Into<String>) -> RdfError {
        RdfError::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
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

    fn next_token(&mut self) -> Result<Tok, RdfError> {
        self.skip_ws();
        let Some(c) = self.peek() else {
            return Ok(Tok::Eof);
        };
        match c {
            b'<' => self.lex_iri(),
            b'_' if self.peek2() == Some(b':') => self.lex_blank(),
            b'"' | b'\'' => self.lex_string(),
            b'@' => self.lex_at(),
            b'.' => {
                // Distinguish statement dot from a leading decimal point.
                if self
                    .src
                    .get(self.pos + 1)
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false)
                {
                    self.lex_number()
                } else {
                    self.bump();
                    Ok(Tok::Dot)
                }
            }
            b';' => {
                self.bump();
                Ok(Tok::Semicolon)
            }
            b',' => {
                self.bump();
                Ok(Tok::Comma)
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
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.bump();
                    Ok(Tok::Anon)
                } else {
                    Ok(Tok::LBracket)
                }
            }
            b']' => {
                self.bump();
                Ok(Tok::RBracket)
            }
            b'^' => {
                self.bump();
                if self.peek() == Some(b'^') {
                    self.bump();
                    Ok(Tok::DoubleCaret)
                } else {
                    Err(self.err("expected '^^'"))
                }
            }
            b'+' | b'-' => self.lex_number(),
            c if c.is_ascii_digit() => self.lex_number(),
            _ => self.lex_name(),
        }
    }

    fn lex_iri(&mut self) -> Result<Tok, RdfError> {
        self.bump(); // <
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'>') => return Ok(Tok::IriRef(out)),
                Some(b'\\') => match self.bump() {
                    Some(c) => {
                        out.push('\\');
                        out.push(c as char);
                    }
                    None => return Err(self.err("unterminated IRI")),
                },
                // Re-assemble UTF-8 multibyte sequences (as lex_string).
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    let mut buf = vec![c];
                    while self.peek().map(|b| b & 0xC0 == 0x80).unwrap_or(false) {
                        buf.push(self.bump().unwrap());
                    }
                    out.push_str(
                        std::str::from_utf8(&buf).map_err(|_| self.err("invalid UTF-8 in IRI"))?,
                    );
                }
                None => return Err(self.err("unterminated IRI")),
            }
        }
    }

    fn lex_blank(&mut self) -> Result<Tok, RdfError> {
        self.bump(); // _
        self.bump(); // :
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                // A dot only continues the label if followed by a label char.
                if c == b'.'
                    && !self
                        .src
                        .get(self.pos + 1)
                        .map(|n| n.is_ascii_alphanumeric() || *n == b'_')
                        .unwrap_or(false)
                {
                    break;
                }
                out.push(self.bump().unwrap() as char);
            } else {
                break;
            }
        }
        if out.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        Ok(Tok::BlankLabel(out))
    }

    fn lex_string(&mut self) -> Result<Tok, RdfError> {
        let quote = self.bump().unwrap();
        // Long form """ / '''
        let long = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if long {
            self.bump();
            self.bump();
        }
        let mut out = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.err("unterminated string"));
            };
            if c == quote {
                if !long {
                    break;
                }
                if self.peek() == Some(quote) && self.peek2() == Some(quote) {
                    self.bump();
                    self.bump();
                    break;
                }
                out.push(quote as char);
                continue;
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
                    b'u' | b'U' => {
                        let n = if e == b'u' { 4 } else { 8 };
                        let mut v: u32 = 0;
                        for _ in 0..n {
                            let Some(h) = self.bump() else {
                                return Err(self.err("unterminated \\u escape"));
                            };
                            v = v * 16
                                + (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad hex digit"))?;
                        }
                        out.push(char::from_u32(v).ok_or_else(|| self.err("bad code point"))?);
                    }
                    other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                }
                continue;
            }
            // Re-assemble UTF-8 multibyte sequences.
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
        Ok(Tok::StringLit(out))
    }

    fn lex_at(&mut self) -> Result<Tok, RdfError> {
        self.bump(); // @
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'-' {
                word.push(self.bump().unwrap() as char);
            } else {
                break;
            }
        }
        match word.as_str() {
            "prefix" => Ok(Tok::KwPrefix),
            "base" => Ok(Tok::KwBase),
            _ if !word.is_empty() => Ok(Tok::LangTag(word)),
            _ => Err(self.err("empty @ directive")),
        }
    }

    fn lex_number(&mut self) -> Result<Tok, RdfError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
            self.bump();
        }
        let mut is_real = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
            } else if c == b'.'
                && self
                    .src
                    .get(self.pos + 1)
                    .map(|n| n.is_ascii_digit())
                    .unwrap_or(false)
            {
                is_real = true;
                self.bump();
            } else if c == b'e' || c == b'E' {
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

    // The duplicate-looking branches below differ in their guards,
    // which encode Turtle's dot-in-name rules; keep them explicit.
    #[allow(clippy::if_same_then_else)]
    fn lex_name(&mut self) -> Result<Tok, RdfError> {
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'%' {
                word.push(self.bump().unwrap() as char);
            } else if c == b'.'
                && self
                    .src
                    .get(self.pos + 1)
                    .map(|n| n.is_ascii_alphanumeric() || *n == b'_')
                    .unwrap_or(false)
                && word.contains(':')
            {
                word.push(self.bump().unwrap() as char);
            } else {
                break;
            }
        }
        if self.peek() == Some(b':') {
            self.bump();
            let prefix = word;
            let mut local = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'%' {
                    local.push(self.bump().unwrap() as char);
                } else if c == b'.'
                    && self
                        .src
                        .get(self.pos + 1)
                        .map(|n| n.is_ascii_alphanumeric() || *n == b'_')
                        .unwrap_or(false)
                {
                    local.push(self.bump().unwrap() as char);
                } else {
                    break;
                }
            }
            return Ok(Tok::PName { prefix, local });
        }
        match word.as_str() {
            "a" => Ok(Tok::KwA),
            "true" => Ok(Tok::KwTrue),
            "false" => Ok(Tok::KwFalse),
            "PREFIX" | "prefix" => Ok(Tok::KwPrefix),
            "BASE" | "base" => Ok(Tok::KwBase),
            "" => Err(self.err(format!(
                "unexpected character '{}'",
                self.peek().map(|c| c as char).unwrap_or('?')
            ))),
            other => Err(self.err(format!("unexpected token '{other}'"))),
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// A parsed object before triples are emitted: either a complete term or
/// a collection that may consolidate to an array.
enum Node {
    Term(Term),
    Collection(Vec<Node>),
    /// `[ po-list ]`: a fresh blank node with its own triples (already
    /// emitted); carries the node id.
    BlankWithProps(TermId),
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    ns: Namespaces,
    options: ParseOptions,
    blank_counter: usize,
    /// The triples parsed so far, as interned ids.
    triples: Vec<Triple>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, options: ParseOptions) -> Self {
        Parser {
            lexer: Lexer::new(text),
            tok: Tok::Eof,
            ns: Namespaces::new(),
            options,
            blank_counter: 0,
            triples: Vec::new(),
        }
    }

    fn advance(&mut self) -> Result<(), RdfError> {
        self.tok = self.lexer.next_token()?;
        Ok(())
    }

    fn err(&self, msg: impl Into<String>) -> RdfError {
        self.lexer.err(msg)
    }

    fn expect(&mut self, tok: Tok) -> Result<(), RdfError> {
        if self.tok == tok {
            self.advance()
        } else {
            Err(self.err(format!("expected {tok:?}, found {:?}", self.tok)))
        }
    }

    fn fresh_blank(&mut self, graph: &mut GraphMut) -> TermId {
        loop {
            let label = format!("tb{}", self.blank_counter);
            self.blank_counter += 1;
            let t = Term::blank(label);
            if graph.dictionary().lookup(&t).is_none() {
                return graph.intern(t);
            }
        }
    }

    fn parse_document(&mut self, graph: &mut GraphMut) -> Result<(), RdfError> {
        self.advance()?;
        loop {
            match &self.tok {
                Tok::Eof => break,
                Tok::KwPrefix => {
                    self.advance()?;
                    let Tok::PName { prefix, local } = self.tok.clone() else {
                        return Err(self.err("expected prefix name"));
                    };
                    if !local.is_empty() {
                        return Err(self.err("prefix declaration must end with ':'"));
                    }
                    self.advance()?;
                    let Tok::IriRef(uri) = self.tok.clone() else {
                        return Err(self.err("expected IRI in prefix declaration"));
                    };
                    self.advance()?;
                    self.ns.declare(prefix, self.ns.resolve(&uri));
                    // The trailing '.' is required for @prefix, optional
                    // for SPARQL-style PREFIX.
                    if self.tok == Tok::Dot {
                        self.advance()?;
                    }
                }
                Tok::KwBase => {
                    self.advance()?;
                    let Tok::IriRef(uri) = self.tok.clone() else {
                        return Err(self.err("expected IRI in base declaration"));
                    };
                    self.advance()?;
                    self.ns.set_base(uri);
                    if self.tok == Tok::Dot {
                        self.advance()?;
                    }
                }
                _ => {
                    self.parse_statement(graph)?;
                }
            }
        }
        Ok(())
    }

    fn parse_statement(&mut self, graph: &mut GraphMut) -> Result<(), RdfError> {
        let subject = self.parse_subject(graph)?;
        self.parse_predicate_object_list(graph, subject)?;
        self.expect(Tok::Dot)
    }

    fn parse_subject(&mut self, graph: &mut GraphMut) -> Result<TermId, RdfError> {
        match self.tok.clone() {
            Tok::IriRef(u) => {
                self.advance()?;
                Ok(graph.intern(Term::uri(self.ns.resolve(&u))))
            }
            Tok::PName { prefix, local } => {
                self.advance()?;
                Ok(graph.intern(Term::uri(self.ns.expand(&prefix, &local)?)))
            }
            Tok::KwA => Err(self.err("'a' cannot be a subject")),
            Tok::BlankLabel(b) => {
                self.advance()?;
                Ok(graph.intern(Term::blank(b)))
            }
            Tok::Anon => {
                self.advance()?;
                Ok(self.fresh_blank(graph))
            }
            Tok::LBracket => {
                self.advance()?;
                let node = self.fresh_blank(graph);
                self.parse_predicate_object_list(graph, node)?;
                self.expect(Tok::RBracket)?;
                Ok(node)
            }
            Tok::LParen => {
                // A collection as subject always expands to a list.
                self.advance()?;
                let nodes = self.parse_collection_nodes(graph)?;
                self.emit_list(graph, nodes)
            }
            other => Err(self.err(format!("bad subject: {other:?}"))),
        }
    }

    fn parse_predicate_object_list(
        &mut self,
        graph: &mut GraphMut,
        subject: TermId,
    ) -> Result<(), RdfError> {
        loop {
            let predicate = match self.tok.clone() {
                Tok::KwA => {
                    self.advance()?;
                    graph.intern(Term::uri(RDF_TYPE))
                }
                Tok::IriRef(u) => {
                    self.advance()?;
                    graph.intern(Term::uri(self.ns.resolve(&u)))
                }
                Tok::PName { prefix, local } => {
                    self.advance()?;
                    graph.intern(Term::uri(self.ns.expand(&prefix, &local)?))
                }
                other => return Err(self.err(format!("bad predicate: {other:?}"))),
            };
            loop {
                let node = self.parse_object(graph)?;
                let object = self.node_to_object(graph, node)?;
                self.triples.push(Triple {
                    s: subject,
                    p: predicate,
                    o: object,
                });
                if self.tok == Tok::Comma {
                    self.advance()?;
                    continue;
                }
                break;
            }
            if self.tok == Tok::Semicolon {
                self.advance()?;
                // Trailing semicolon before '.' or ']' is legal.
                if matches!(self.tok, Tok::Dot | Tok::RBracket) {
                    break;
                }
                continue;
            }
            break;
        }
        Ok(())
    }

    fn parse_object(&mut self, graph: &mut GraphMut) -> Result<Node, RdfError> {
        match self.tok.clone() {
            Tok::IriRef(u) => {
                self.advance()?;
                Ok(Node::Term(Term::uri(self.ns.resolve(&u))))
            }
            Tok::PName { prefix, local } => {
                self.advance()?;
                Ok(Node::Term(Term::uri(self.ns.expand(&prefix, &local)?)))
            }
            Tok::BlankLabel(b) => {
                self.advance()?;
                Ok(Node::Term(Term::blank(b)))
            }
            Tok::Anon => {
                self.advance()?;
                Ok(Node::BlankWithProps(self.fresh_blank(graph)))
            }
            Tok::Integer(i) => {
                self.advance()?;
                Ok(Node::Term(Term::integer(i)))
            }
            Tok::Double(d) => {
                self.advance()?;
                Ok(Node::Term(Term::double(d)))
            }
            Tok::KwTrue => {
                self.advance()?;
                Ok(Node::Term(Term::Bool(true)))
            }
            Tok::KwFalse => {
                self.advance()?;
                Ok(Node::Term(Term::Bool(false)))
            }
            Tok::StringLit(s) => {
                self.advance()?;
                match self.tok.clone() {
                    Tok::LangTag(lang) => {
                        self.advance()?;
                        Ok(Node::Term(Term::LangStr { value: s, lang }))
                    }
                    Tok::DoubleCaret => {
                        self.advance()?;
                        let dt = match self.tok.clone() {
                            Tok::IriRef(u) => {
                                self.advance()?;
                                self.ns.resolve(&u)
                            }
                            Tok::PName { prefix, local } => {
                                self.advance()?;
                                self.ns.expand(&prefix, &local)?
                            }
                            other => return Err(self.err(format!("bad datatype: {other:?}"))),
                        };
                        Ok(Node::Term(typed_literal(s, dt)?))
                    }
                    _ => Ok(Node::Term(Term::Str(s))),
                }
            }
            Tok::LBracket => {
                self.advance()?;
                let node = self.fresh_blank(graph);
                self.parse_predicate_object_list(graph, node)?;
                self.expect(Tok::RBracket)?;
                Ok(Node::BlankWithProps(node))
            }
            Tok::LParen => {
                self.advance()?;
                let nodes = self.parse_collection_nodes(graph)?;
                Ok(Node::Collection(nodes))
            }
            other => Err(self.err(format!("bad object: {other:?}"))),
        }
    }

    fn parse_collection_nodes(&mut self, graph: &mut GraphMut) -> Result<Vec<Node>, RdfError> {
        let mut nodes = Vec::new();
        while self.tok != Tok::RParen {
            if self.tok == Tok::Eof {
                return Err(self.err("unterminated collection"));
            }
            nodes.push(self.parse_object(graph)?);
        }
        self.advance()?; // )
        Ok(nodes)
    }

    /// Turn a parsed object node into an interned object id, emitting
    /// auxiliary triples (lists) as needed and consolidating numeric
    /// collections into arrays when enabled.
    fn node_to_object(&mut self, graph: &mut GraphMut, node: Node) -> Result<TermId, RdfError> {
        match node {
            Node::Term(t) => Ok(graph.intern(t)),
            Node::BlankWithProps(id) => Ok(id),
            Node::Collection(nodes) => {
                if self.options.consolidate_arrays {
                    if let Some(nested) = collection_to_nested(&nodes) {
                        if let Ok(arr) = NumArray::from_nested(&nested) {
                            return Ok(graph.intern(Term::Array(arr)));
                        }
                    }
                }
                self.emit_list(graph, nodes)
            }
        }
    }

    /// Expand a collection into rdf:first / rdf:rest triples; returns the
    /// head node (or rdf:nil for the empty collection).
    fn emit_list(&mut self, graph: &mut GraphMut, nodes: Vec<Node>) -> Result<TermId, RdfError> {
        let nil = graph.intern(Term::uri(RDF_NIL));
        if nodes.is_empty() {
            return Ok(nil);
        }
        let first = graph.intern(Term::uri(RDF_FIRST));
        let rest = graph.intern(Term::uri(RDF_REST));
        let mut cells: Vec<TermId> = Vec::with_capacity(nodes.len());
        for _ in 0..nodes.len() {
            cells.push(self.fresh_blank(graph));
        }
        for (i, node) in nodes.into_iter().enumerate() {
            let value = self.node_to_object(graph, node)?;
            let next = cells.get(i + 1).copied().unwrap_or(nil);
            self.triples.extend([
                Triple {
                    s: cells[i],
                    p: first,
                    o: value,
                },
                Triple {
                    s: cells[i],
                    p: rest,
                    o: next,
                },
            ]);
        }
        Ok(cells[0])
    }
}

/// Recognize a purely numeric (nested) collection.
fn collection_to_nested(nodes: &[Node]) -> Option<Nested> {
    if nodes.is_empty() {
        return None;
    }
    let mut rows = Vec::with_capacity(nodes.len());
    for n in nodes {
        match n {
            Node::Term(Term::Number(v)) => rows.push(Nested::Leaf(*v)),
            Node::Collection(inner) => rows.push(collection_to_nested(inner)?),
            _ => return None,
        }
    }
    Some(Nested::Row(rows))
}

/// Interpret a `"..."^^<datatype>` literal, mapping the numeric XSD
/// types onto native numbers.
fn typed_literal(value: String, datatype: String) -> Result<Term, RdfError> {
    match datatype.as_str() {
        "http://www.w3.org/2001/XMLSchema#integer"
        | "http://www.w3.org/2001/XMLSchema#int"
        | "http://www.w3.org/2001/XMLSchema#long" => value
            .parse::<i64>()
            .map(Term::integer)
            .map_err(|_| RdfError::BadLiteral(value)),
        "http://www.w3.org/2001/XMLSchema#double"
        | "http://www.w3.org/2001/XMLSchema#float"
        | "http://www.w3.org/2001/XMLSchema#decimal" => value
            .parse::<f64>()
            .map(Term::double)
            .map_err(|_| RdfError::BadLiteral(value)),
        "http://www.w3.org/2001/XMLSchema#boolean" => match value.as_str() {
            "true" | "1" => Ok(Term::Bool(true)),
            "false" | "0" => Ok(Term::Bool(false)),
            _ => Err(RdfError::BadLiteral(value)),
        },
        "http://www.w3.org/2001/XMLSchema#string" => Ok(Term::Str(value)),
        _ => Ok(Term::Typed { value, datatype }),
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// Serialize a graph as Turtle, grouping triples by subject and writing
/// array values in collection notation.
pub fn serialize(graph: &Graph, ns: &Namespaces) -> String {
    let mut out = String::new();
    let mut prefixes: Vec<(&String, &String)> = ns.iter().collect();
    prefixes.sort();
    for (p, uri) in prefixes {
        out.push_str(&format!("@prefix {p}: <{uri}> .\n"));
    }
    out.push('\n');
    let mut last_subject: Option<TermId> = None;
    for t in graph.iter() {
        if last_subject == Some(t.s) {
            out.push_str(" ;\n    ");
        } else {
            if last_subject.is_some() {
                out.push_str(" .\n");
            }
            out.push_str(&term_text(graph.term(t.s), ns));
            out.push(' ');
        }
        out.push_str(&term_text(graph.term(t.p), ns));
        out.push(' ');
        out.push_str(&term_text(graph.term(t.o), ns));
        last_subject = Some(t.s);
    }
    if last_subject.is_some() {
        out.push_str(" .\n");
    }
    out
}

/// Render one term in Turtle syntax.
pub fn term_text(term: &Term, ns: &Namespaces) -> String {
    match term {
        Term::Uri(u) => {
            if u == RDF_TYPE {
                "a".to_string()
            } else {
                ns.compact(u).unwrap_or_else(|| format!("<{u}>"))
            }
        }
        Term::Typed { value, datatype } => {
            let dt = ns
                .compact(datatype)
                .unwrap_or_else(|| format!("<{datatype}>"));
            format!("\"{}\"^^{dt}", escape_str(value))
        }
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_array::Num;

    fn parse(text: &str) -> Graph {
        let mut g = Graph::new();
        parse_into(&mut g, text).unwrap();
        g
    }

    #[test]
    fn simple_triples() {
        let g = parse(
            r#"@prefix foaf: <http://xmlns.com/foaf/0.1/> .
               _:a foaf:name "Alice" ; foaf:knows _:b , _:d .
               _:b foaf:name "Bob" ."#,
        );
        assert_eq!(g.len(), 4);
        let knows = g
            .dictionary()
            .lookup(&Term::uri("http://xmlns.com/foaf/0.1/knows"))
            .unwrap();
        assert_eq!(g.match_pattern(None, Some(knows), None).count(), 2);
    }

    #[test]
    fn a_keyword_is_rdf_type() {
        let g = parse("_:x a <http://example.org/Person> .");
        let ty = g.dictionary().lookup(&Term::uri(RDF_TYPE)).unwrap();
        assert_eq!(g.match_pattern(None, Some(ty), None).count(), 1);
    }

    #[test]
    fn numeric_literals() {
        let g = parse("<http://s> <http://p> 42 , -7 , 3.5 , 1e3 .");
        let p = g.dictionary().lookup(&Term::uri("http://p")).unwrap();
        let objects: Vec<Term> = g
            .match_pattern(None, Some(p), None)
            .map(|t| g.term(t.o).clone())
            .collect();
        assert!(objects.contains(&Term::integer(42)));
        assert!(objects.contains(&Term::integer(-7)));
        assert!(objects.contains(&Term::double(3.5)));
        assert!(objects.contains(&Term::double(1000.0)));
    }

    #[test]
    fn string_escapes_and_lang() {
        let g = parse(r#"<http://s> <http://p> "a\nb" , "chat"@fr , """long "quoted" text""" ."#);
        let p = g.dictionary().lookup(&Term::uri("http://p")).unwrap();
        let objects: Vec<Term> = g
            .match_pattern(None, Some(p), None)
            .map(|t| g.term(t.o).clone())
            .collect();
        assert!(objects.contains(&Term::str("a\nb")));
        assert!(objects.contains(&Term::LangStr {
            value: "chat".into(),
            lang: "fr".into()
        }));
        assert!(objects.contains(&Term::str("long \"quoted\" text")));
    }

    #[test]
    fn typed_literals_normalize_numerics() {
        let g = parse(
            r#"@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               <http://s> <http://p> "5"^^xsd:integer , "2.5"^^xsd:double , "x"^^<http://dt> ."#,
        );
        let p = g.dictionary().lookup(&Term::uri("http://p")).unwrap();
        let objects: Vec<Term> = g
            .match_pattern(None, Some(p), None)
            .map(|t| g.term(t.o).clone())
            .collect();
        assert!(objects.contains(&Term::integer(5)));
        assert!(objects.contains(&Term::double(2.5)));
        assert!(objects.contains(&Term::Typed {
            value: "x".into(),
            datatype: "http://dt".into()
        }));
    }

    #[test]
    fn collection_consolidates_to_array() {
        // The thesis example: :s :p ((1 2) (3 4)) becomes ONE triple
        // with a 2x2 array value instead of 13 list triples (§2.3.5.1).
        let g = parse("<http://s> <http://p> ((1 2) (3 4)) .");
        assert_eq!(g.len(), 1);
        let t = g.iter().next().unwrap();
        let arr = g.term(t.o).as_array().unwrap();
        assert_eq!(arr.shape(), vec![2, 2]);
        assert_eq!(arr.get(&[1, 0]).unwrap().as_i64(), 3);
    }

    #[test]
    fn collection_without_consolidation_expands() {
        let mut g = Graph::new();
        parse_into_with(
            &mut g,
            "<http://s> <http://p> ((1 2) (3 4)) .",
            ParseOptions {
                consolidate_arrays: false,
            },
        )
        .unwrap();
        // 1 root triple + 2 outer cells * 2 + 4 inner cells * 2 = 13.
        assert_eq!(g.len(), 13);
    }

    #[test]
    fn ragged_collection_falls_back_to_list() {
        let g = parse("<http://s> <http://p> ((1) (2 3)) .");
        assert!(g.len() > 1, "ragged nesting cannot consolidate");
    }

    #[test]
    fn mixed_collection_falls_back_to_list() {
        let g = parse(r#"<http://s> <http://p> (1 "two" 3) ."#);
        assert!(g.len() > 1);
        let first = g.dictionary().lookup(&Term::uri(RDF_FIRST)).unwrap();
        assert_eq!(g.match_pattern(None, Some(first), None).count(), 3);
    }

    #[test]
    fn empty_collection_is_nil() {
        let g = parse("<http://s> <http://p> () .");
        assert_eq!(g.len(), 1);
        let t = g.iter().next().unwrap();
        assert_eq!(g.term(t.o), &Term::uri(RDF_NIL));
    }

    #[test]
    fn bracketed_blank_nodes() {
        let g = parse(
            r#"@prefix foaf: <http://xmlns.com/foaf/0.1/> .
               [] foaf:name "Alice" ;
                  foaf:knows [ foaf:name "Bob" ] ."#,
        );
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn base_resolution() {
        let g = parse("@base <http://example.org/> . <s> <p> <o> .");
        assert!(g
            .dictionary()
            .lookup(&Term::uri("http://example.org/s"))
            .is_some());
    }

    #[test]
    fn sparql_style_prefix() {
        let g = parse("PREFIX ex: <http://example.org/>\nex:s ex:p ex:o .");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn comments_ignored() {
        let g = parse("# a comment\n<http://s> <http://p> 1 . # trailing\n");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn parse_error_reports_position() {
        let mut g = Graph::new();
        let err = parse_into(&mut g, "<http://s> <http://p> .").unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_load_that_stops_at_an_error_keeps_what_came_before() {
        let mut g = Graph::new();
        let text = "<http://s> <http://p> 1 , 2 ; <http://q> (\"a\") .\n<http://s> <http://p> 3 ; <http://q> .";
        assert!(parse_into(&mut g, text).is_err());
        // The first statement (three triples, two list triples) and the
        // object before the error.
        assert_eq!(g.len(), 6);
        let p = g.dictionary().lookup(&Term::uri("http://p")).unwrap();
        assert_eq!(g.match_object_range(p, Some(3.0), Some(3.0)).count(), 1);
    }

    #[test]
    fn unknown_prefix_errors() {
        let mut g = Graph::new();
        assert!(matches!(
            parse_into(&mut g, "nope:s <http://p> 1 ."),
            Err(RdfError::UnknownPrefix(_))
        ));
    }

    #[test]
    fn serialize_round_trip() {
        let src = r#"@prefix ex: <http://example.org/> .
            ex:s ex:p 1 , 2.5 , "text" ; ex:q ex:o .
            ex:t ex:p (1 2 3) ."#;
        let g = parse(src);
        let mut ns = Namespaces::new();
        ns.declare("ex", "http://example.org/");
        let text = serialize(&g, &ns);
        let g2 = parse(&text);
        assert_eq!(g2.len(), g.len());
        // Every triple of g appears in g2 (term-wise).
        for t in g.iter() {
            let s = g.term(t.s);
            let p = g.term(t.p);
            let o = g.term(t.o);
            let found = g2.iter().any(|u| {
                g2.term(u.s).value_eq(s) && g2.term(u.p).value_eq(p) && g2.term(u.o).value_eq(o)
            });
            assert!(found, "missing triple {s} {p} {o}");
        }
    }

    #[test]
    fn nested_array_3d() {
        let g = parse("<http://s> <http://p> (((1 2)(3 4))((5 6)(7 8))) .");
        assert_eq!(g.len(), 1);
        let t = g.iter().next().unwrap();
        let arr = g.term(t.o).as_array().unwrap();
        assert_eq!(arr.shape(), vec![2, 2, 2]);
        assert_eq!(arr.get(&[1, 1, 1]).unwrap().as_i64(), 8);
    }

    #[test]
    fn real_array_promotes() {
        let g = parse("<http://s> <http://p> (1 2.5 3) .");
        let t = g.iter().next().unwrap();
        let arr = g.term(t.o).as_array().unwrap();
        assert_eq!(arr.get(&[1]).unwrap(), Num::Real(2.5));
        assert_eq!(arr.get(&[0]).unwrap(), Num::Real(1.0));
    }

    #[test]
    fn iri_with_multibyte_utf8_round_trips() {
        // Multi-byte sequences inside an IRIREF must be reassembled,
        // not widened byte-by-byte into mojibake.
        let iri = "http://ex.org/éλ日ф%20";
        let g = parse(&format!("<{iri}> <http://p> 1 ."));
        let t = g.iter().next().unwrap();
        assert_eq!(g.term(t.s), &Term::uri(iri));
    }
}
