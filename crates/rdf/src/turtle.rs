//! Turtle (Terse RDF Triple Language) parsing.
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
//!
//! Graphs are written as N-Triples ([`crate::ntriples::serialize`]),
//! which this parser reads, and terms by [`crate::lex::write_term`].

use ssdm_array::{Nested, Num, NumArray};

use crate::dictionary::TermId;
use crate::graph::{GraphMut, Triple};
use crate::lex::{typed_literal, Cursor};
use crate::namespaces::{Namespaces, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE};
use crate::term::{RdfError, Term};

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
    Number(Num),
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

fn next_token(cur: &mut Cursor) -> Result<Tok, RdfError> {
    cur.skip_ws();
    let Some(c) = cur.peek() else {
        return Ok(Tok::Eof);
    };
    let punct = match c {
        b'<' => return cur.iri().map(Tok::IriRef),
        b'_' if cur.peek_at(1) == Some(b':') => {
            return Ok(Tok::BlankLabel(cur.blank_label()?.to_string()))
        }
        b'"' | b'\'' => return cur.string().map(Tok::StringLit),
        b'@' => {
            return Ok(match cur.lang_tag()? {
                "prefix" => Tok::KwPrefix,
                "base" => Tok::KwBase,
                tag => Tok::LangTag(tag.to_string()),
            })
        }
        b'.' if !cur.peek_at(1).is_some_and(|n| n.is_ascii_digit()) => Tok::Dot,
        b'+' | b'-' | b'.' | b'0'..=b'9' => return cur.number(false).map(Tok::Number),
        b';' => Tok::Semicolon,
        b',' => Tok::Comma,
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b']' => Tok::RBracket,
        b'[' => {
            cur.bump();
            cur.skip_ws();
            if cur.peek() != Some(b']') {
                return Ok(Tok::LBracket);
            }
            Tok::Anon
        }
        b'^' if cur.peek_at(1) == Some(b'^') => {
            cur.bump();
            Tok::DoubleCaret
        }
        _ => return name(cur),
    };
    cur.bump();
    Ok(punct)
}

/// A prefixed name or a keyword.
fn name(cur: &mut Cursor) -> Result<Tok, RdfError> {
    if let Some((prefix, local)) = cur.prefixed_name() {
        return Ok(Tok::PName {
            prefix: prefix.to_string(),
            local: local.to_string(),
        });
    }
    match cur.word() {
        "a" => Ok(Tok::KwA),
        "true" => Ok(Tok::KwTrue),
        "false" => Ok(Tok::KwFalse),
        "PREFIX" | "prefix" => Ok(Tok::KwPrefix),
        "BASE" | "base" => Ok(Tok::KwBase),
        "" => Err(cur.err(format!(
            "unexpected character '{}'",
            cur.peek().unwrap_or(b'?').escape_ascii()
        ))),
        other => Err(cur.err(format!("unexpected token '{other}'"))),
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
    cur: Cursor<'a>,
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
            cur: Cursor::new(text),
            tok: Tok::Eof,
            ns: Namespaces::new(),
            options,
            blank_counter: 0,
            triples: Vec::new(),
        }
    }

    fn advance(&mut self) -> Result<(), RdfError> {
        self.tok = next_token(&mut self.cur)?;
        Ok(())
    }

    fn err(&self, msg: impl Into<String>) -> RdfError {
        self.cur.err(msg)
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

    /// The IRI an IRI reference or prefixed name stands for, consumed;
    /// `None` at any other token.
    fn iri(&mut self) -> Result<Option<String>, RdfError> {
        let iri = match &self.tok {
            Tok::IriRef(u) => self.ns.resolve(u),
            Tok::PName { prefix, local } => self.ns.expand(prefix, local)?,
            _ => return Ok(None),
        };
        self.advance()?;
        Ok(Some(iri))
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
        if let Some(iri) = self.iri()? {
            return Ok(graph.intern(Term::uri(iri)));
        }
        match self.tok.clone() {
            Tok::KwA => Err(self.err("'a' cannot be a subject")),
            Tok::BlankLabel(b) => {
                self.advance()?;
                Ok(graph.intern(Term::blank(b)))
            }
            Tok::Anon => {
                self.advance()?;
                Ok(self.fresh_blank(graph))
            }
            Tok::LBracket => self.parse_blank_with_props(graph),
            Tok::LParen => {
                // A collection as subject always expands to a list.
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
            let predicate = match self.iri()? {
                Some(iri) => graph.intern(Term::uri(iri)),
                None if self.tok == Tok::KwA => {
                    self.advance()?;
                    graph.intern(Term::uri(RDF_TYPE))
                }
                None => return Err(self.err(format!("bad predicate: {:?}", self.tok))),
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
        if let Some(iri) = self.iri()? {
            return Ok(Node::Term(Term::uri(iri)));
        }
        let term = match self.tok.clone() {
            Tok::BlankLabel(b) => Term::blank(b),
            Tok::Anon => {
                self.advance()?;
                return Ok(Node::BlankWithProps(self.fresh_blank(graph)));
            }
            Tok::Number(n) => Term::Number(n),
            Tok::KwTrue => Term::Bool(true),
            Tok::KwFalse => Term::Bool(false),
            Tok::StringLit(s) => {
                self.advance()?;
                return Ok(Node::Term(match self.tok.clone() {
                    Tok::LangTag(lang) => {
                        self.advance()?;
                        Term::LangStr { value: s, lang }
                    }
                    Tok::DoubleCaret => {
                        self.advance()?;
                        let Some(dt) = self.iri()? else {
                            return Err(self.err(format!("bad datatype: {:?}", self.tok)));
                        };
                        typed_literal(s, dt)?
                    }
                    _ => Term::Str(s),
                }));
            }
            Tok::LBracket => return Ok(Node::BlankWithProps(self.parse_blank_with_props(graph)?)),
            Tok::LParen => return Ok(Node::Collection(self.parse_collection_nodes(graph)?)),
            other => return Err(self.err(format!("bad object: {other:?}"))),
        };
        self.advance()?;
        Ok(Node::Term(term))
    }

    /// `[ po-list ]`: a fresh blank node and its triples, one nesting
    /// level down.
    fn parse_blank_with_props(&mut self, graph: &mut GraphMut) -> Result<TermId, RdfError> {
        self.cur.enter()?;
        self.advance()?;
        let node = self.fresh_blank(graph);
        self.parse_predicate_object_list(graph, node)?;
        self.expect(Tok::RBracket)?;
        self.cur.leave();
        Ok(node)
    }

    /// `( object* )`, one nesting level down.
    fn parse_collection_nodes(&mut self, graph: &mut GraphMut) -> Result<Vec<Node>, RdfError> {
        self.cur.enter()?;
        self.advance()?;
        let mut nodes = Vec::new();
        while self.tok != Tok::RParen {
            if self.tok == Tok::Eof {
                return Err(self.err("unterminated collection"));
            }
            nodes.push(self.parse_object(graph)?);
        }
        self.advance()?; // )
        self.cur.leave();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

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
            ex:t ex:p (1 2 3) , (1.5 "NaN"^^<http://www.w3.org/2001/XMLSchema#double>) ."#;
        let g = parse(src);
        // Every triple, its terms as they display, is a Turtle statement.
        let lines = |g: &Graph| {
            let line = |t: Triple| format!("{} {} {} .\n", g.term(t.s), g.term(t.p), g.term(t.o));
            let mut lines: Vec<String> = g.iter().map(line).collect();
            lines.sort();
            lines
        };
        let text = lines(&g).concat();
        assert_eq!(lines(&parse(&text)), lines(&g), "{text}");
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
