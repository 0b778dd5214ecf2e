//! RDF term syntax, shared by the Turtle loader and the SciSPARQL
//! parser.
//!
//! A term written the same way in the data and in a query must be the
//! same term, so both parsers read every RDF lexeme through one
//! [`Cursor`]: IRI references, blank-node labels, short and long
//! strings with all their escapes, language tags, numbers and the two
//! parts of a prefixed name (RDF 1.1 Turtle §6, SPARQL 1.1 §19), and
//! both turn `"…"^^datatype` into a term through [`typed_literal`].
//! Each parser keeps its own tokens, punctuation and keywords; nothing
//! here knows which one is calling.
//!
//! Every term is written back by one writer, [`write_term`], in text
//! the cursor reads as the same term; numbers and arrays through the
//! array crate's [`write_num`].
//!
//! The cursor also carries the one nesting bound, [`MAX_NESTING`]: both
//! parsers descend recursively, and a statement nested past the bound
//! is refused with a positioned error instead of overflowing the stack.
//!
//! Names are ASCII: prefixes, local names and blank-node labels take
//! letters, digits, `_` and `-`, with inner dots, and local names also
//! `%`-escapes. IRIs and strings keep any UTF-8.

use std::fmt::{self, Write};

use ssdm_array::{write_num, Num};

use crate::term::{RdfError, Term};

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// How deeply brackets, groups, prefix operators and chains of infix
/// operators may nest in one statement or one Turtle object; each link
/// of a chain (`a + b + c` is `(a + b) + c`) nests what precedes it one
/// level deeper. Deep enough for any hand-written query, shallow enough
/// that parsing, planning and evaluating a statement nested to it fit a
/// 2 MiB thread stack in a debug build.
pub const MAX_NESTING: usize = 64;

/// A byte cursor over UTF-8 source text that tracks the line and
/// (byte) column of the next byte and the current nesting depth.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    col: usize,
    depth: usize,
}

/// A byte of a prefix, a local name or a blank-node label.
#[inline]
pub fn is_name_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-'
}

/// A byte an IRI reference may hold: anything above the space but `>`
/// and `\`. (`IRIREF` also forbids `<"{}|^` and the backquote; they
/// are kept, as the loader always kept them.) The bytes of a multibyte
/// character all pass.
#[inline]
pub fn is_iri_byte(c: u8) -> bool {
    c > b' ' && c != b'>' && c != b'\\'
}

impl<'a> Cursor<'a> {
    pub fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            line: 1,
            col: 1,
            depth: 0,
        }
    }

    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    pub fn peek_at(&self, k: usize) -> Option<u8> {
        self.text.as_bytes().get(self.pos + k).copied()
    }

    #[inline]
    pub fn bump(&mut self) -> Option<u8> {
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

    /// Line and column of the next byte, both 1-based.
    #[inline]
    pub fn line_col(&self) -> (usize, usize) {
        (self.line, self.col)
    }

    /// A syntax error at the cursor.
    pub fn err(&self, msg: impl Into<String>) -> RdfError {
        RdfError::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    /// Advance while `f` holds and return what was passed over. `f`
    /// must answer alike for every byte of a multibyte character.
    #[inline]
    fn take_while(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&f) {
            self.bump();
        }
        &self.text[start..self.pos]
    }

    /// Skip whitespace and `#` comments.
    pub fn skip_ws(&mut self) {
        loop {
            self.take_while(|c| c.is_ascii_whitespace());
            if self.peek() != Some(b'#') {
                return;
            }
            self.take_while(|c| c != b'\n');
        }
    }

    /// Go one nesting level deeper; past [`MAX_NESTING`] this is an
    /// error. Pair each successful call with [`Cursor::leave`], or give
    /// the levels back with [`Cursor::set_depth`].
    pub fn enter(&mut self) -> Result<(), RdfError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// The current nesting depth. With [`Cursor::set_depth`] a parser
    /// that builds left-deep chains (`a + b + c` is `(a + b) + c`) counts
    /// each link with [`Cursor::enter`], keeps the count while the chain
    /// is an operand of something larger, and gives it back where the
    /// expression ends.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    #[inline]
    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth;
    }

    /// Length of the name at the cursor: name bytes, dots before more
    /// name bytes, and with `percent` also `%HH` escapes.
    fn name_len(&self, percent: bool) -> usize {
        let bytes = self.text.as_bytes();
        let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
        let start = self.pos;
        let mut i = start;
        loop {
            match at(i) {
                c if is_name_byte(c) => i += 1,
                // Dots go on a name only when more of it follows.
                b'.' => match (i..).find(|&j| at(j) != b'.') {
                    Some(j) if is_name_byte(at(j)) => i = j,
                    _ => return i - start,
                },
                b'%' if percent
                    && at(i + 1).is_ascii_hexdigit()
                    && at(i + 2).is_ascii_hexdigit() =>
                {
                    i += 3
                }
                _ => return i - start,
            }
        }
    }

    /// Pass over `n` bytes that hold no line break.
    fn take(&mut self, n: usize) -> &'a str {
        let start = self.pos;
        self.pos += n;
        self.col += n;
        &self.text[start..self.pos]
    }

    /// A bare word of ASCII letters, digits and `_` (possibly empty).
    pub fn word(&mut self) -> &'a str {
        self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_')
    }

    /// The prefix and local part of a prefixed name, if one starts at
    /// the cursor (the prefix may be empty); otherwise `None`, having
    /// consumed nothing.
    pub fn prefixed_name(&mut self) -> Option<(&'a str, &'a str)> {
        let n = self.name_len(false);
        if self.peek_at(n) != Some(b':') {
            return None;
        }
        let prefix = self.take(n);
        self.take(1);
        let local = self.name_len(true);
        Some((prefix, self.take(local)))
    }

    /// A blank-node label; the cursor is at `_:`.
    pub fn blank_label(&mut self) -> Result<&'a str, RdfError> {
        self.take(2);
        match self.name_len(false) {
            0 => Err(self.err("empty blank node label")),
            n => Ok(self.take(n)),
        }
    }

    /// A language tag, or a Turtle directive; the cursor is at `@`.
    pub fn lang_tag(&mut self) -> Result<&'a str, RdfError> {
        self.take(1);
        match self.take_while(|c| c.is_ascii_alphanumeric() || c == b'-') {
            "" => Err(self.err("empty language tag")),
            tag => Ok(tag),
        }
    }

    /// An IRI reference; the cursor is at `<`. UTF-8 is kept and
    /// `\u`/`\U` escapes are decoded. A character an IRI may not hold
    /// (a space, a control character, `>` or `\`) is refused whether it
    /// is written as it is or as an escape, so every IRI read here can
    /// be written back between `<` and `>` (as N-Triples and snapshots
    /// write it) and read again.
    pub fn iri(&mut self) -> Result<String, RdfError> {
        self.take(1);
        let mut out = String::new();
        loop {
            out.push_str(self.take_while(is_iri_byte));
            let c = match self.bump() {
                Some(b'>') => return Ok(out),
                Some(b'\\') if matches!(self.peek(), Some(b'u' | b'U')) => self.code_point()?,
                Some(c) => c as char,
                None => return Err(self.err("unterminated IRI")),
            };
            if !u8::try_from(c).map_or(true, is_iri_byte) {
                return Err(self.err(format!("'{}' is not allowed in an IRI", c.escape_default())));
            }
            out.push(c);
        }
    }

    /// The code point of a `\u` or `\U` escape; the cursor is at the
    /// `u`.
    fn code_point(&mut self) -> Result<char, RdfError> {
        let digits = if self.bump() == Some(b'u') { 4 } else { 8 };
        let mut v: u32 = 0;
        for _ in 0..digits {
            let h = self.bump().and_then(|h| (h as char).to_digit(16));
            v = v * 16 + h.ok_or_else(|| self.err("bad \\u escape"))?;
        }
        char::from_u32(v).ok_or_else(|| self.err(format!("bad code point U+{v:X}")))
    }

    /// A short or long (`"""`, `'''`) string literal with its escapes
    /// decoded; the cursor is at the opening quote.
    pub fn string(&mut self) -> Result<String, RdfError> {
        let quote = self.text.as_bytes()[self.pos];
        let long = self.peek_at(1) == Some(quote) && self.peek_at(2) == Some(quote);
        self.take(if long { 3 } else { 1 });
        let mut out = String::new();
        loop {
            out.push_str(self.take_while(|c| c != quote && c != b'\\'));
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'\\') => out.push(match self.peek() {
                    Some(b'u' | b'U') => self.code_point()?,
                    e => {
                        self.bump();
                        match e {
                            Some(b'n') => '\n',
                            Some(b'r') => '\r',
                            Some(b't') => '\t',
                            Some(b'b') => '\u{8}',
                            Some(b'f') => '\u{c}',
                            Some(b'"') => '"',
                            Some(b'\'') => '\'',
                            Some(b'\\') => '\\',
                            Some(e) => {
                                return Err(self.err(format!("bad escape '\\{}'", e.escape_ascii())))
                            }
                            None => return Err(self.err("unterminated escape")),
                        }
                    }
                }),
                Some(_) if !long => return Ok(out),
                Some(_) if self.peek() == Some(quote) && self.peek_at(1) == Some(quote) => {
                    self.take(2);
                    return Ok(out);
                }
                Some(q) => out.push(q as char),
            }
        }
    }

    /// A number: an optional sign, digits with at most a `.` fraction,
    /// and an `e` exponent when digits follow the `e` (else the number
    /// ends before it). An integer unless it has a fraction or an
    /// exponent. With `negate` it is read as if a `-` came before it,
    /// for a caller that lexes the sign as an operator: so `-` and
    /// `9223372036854775808` still make `i64::MIN`.
    pub fn number(&mut self, negate: bool) -> Result<Num, RdfError> {
        let start = self.pos;
        let digit_at = |cur: &Self, k| cur.peek_at(k).is_some_and(|c: u8| c.is_ascii_digit());
        if matches!(self.peek(), Some(b'+' | b'-')) {
            self.bump();
        }
        let mut real = false;
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_digit() => {}
                Some(b'.') if digit_at(self, 1) => real = true,
                Some(b'e' | b'E')
                    if digit_at(self, 1)
                        || (matches!(self.peek_at(1), Some(b'+' | b'-')) && digit_at(self, 2)) =>
                {
                    real = true;
                    self.bump();
                }
                _ => break,
            }
            self.bump();
        }
        let signed;
        let mut text = &self.text[start..self.pos];
        if negate {
            signed = format!("-{text}");
            text = &signed;
        }
        let parsed = if real {
            text.parse().map(Num::Real).ok()
        } else {
            text.parse().map(Num::Int).ok()
        };
        parsed.ok_or_else(|| self.err(format!("bad number '{text}'")))
    }
}

/// The term of a `"value"^^datatype` literal: the numeric, boolean and
/// string XSD types become native terms, any other datatype stays
/// [`Term::Typed`]. A value its XSD type cannot read is an error.
pub fn typed_literal(value: String, datatype: String) -> Result<Term, RdfError> {
    let Some(xsd) = datatype.strip_prefix(XSD) else {
        return Ok(Term::Typed { value, datatype });
    };
    match xsd {
        "integer" | "int" | "long" => value.parse().map(Term::integer).ok(),
        "double" | "float" | "decimal" => value.parse().map(Term::double).ok(),
        "boolean" => match value.as_str() {
            "true" | "1" => Some(Term::Bool(true)),
            "false" | "0" => Some(Term::Bool(false)),
            _ => None,
        },
        "string" => return Ok(Term::Str(value)),
        _ => return Ok(Term::Typed { value, datatype }),
    }
    .ok_or(RdfError::BadLiteral(value))
}

/// Write `term` in the syntax [`Cursor`] reads back as the same term:
/// `<iri>`, `_:label`, a quoted string (`"`, `\`, newline, return and
/// tab escaped) with its `@lang` or `^^<datatype>`, a number in its
/// term form, `true`/`false`, an array whole in collection notation.
/// An external array's reference writes as `@array:<id>`, which names
/// it but is no syntax.
pub fn write_term(out: &mut impl Write, term: &Term) -> fmt::Result {
    match term {
        Term::Uri(u) => write_iri(out, u),
        Term::Blank(b) => write!(out, "_:{b}"),
        Term::Str(s) => write_string(out, s),
        Term::LangStr { value, lang } => {
            write_string(out, value)?;
            out.write_char('@')?;
            out.write_str(lang)
        }
        Term::Number(n) => write_num(out, *n),
        Term::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Term::Typed { value, datatype } => {
            write_string(out, value)?;
            out.write_str("^^")?;
            write_iri(out, datatype)
        }
        Term::Array(a) => write!(out, "{a}"),
        Term::ArrayRef(id) => write!(out, "@array:{id}"),
    }
}

/// `<iri>`, as it is: [`Cursor::iri`] reads no character that needs
/// an escape.
#[inline]
fn write_iri(out: &mut impl Write, iri: &str) -> fmt::Result {
    out.write_char('<')?;
    out.write_str(iri)?;
    out.write_char('>')
}

/// `"s"`, with the characters [`Cursor::string`] reads escaped.
#[inline]
fn write_string(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s, |b| match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        b'\n' => Some("\\n"),
        b'\r' => Some("\\r"),
        b'\t' => Some("\\t"),
        _ => None,
    })?;
    out.write_char('"')
}

/// Whether `s` holds a byte `special` picks. It tests 16-byte blocks
/// without a branch per byte, which the compiler turns into vector
/// compares: most texts hold nothing to escape.
#[inline]
pub fn holds(s: &str, special: impl Fn(u8) -> bool) -> bool {
    let any = |block: &[u8]| block.iter().fold(false, |found, &b| found | special(b));
    let mut blocks = s.as_bytes().chunks_exact(16);
    blocks.by_ref().any(any) || any(blocks.remainder())
}

/// Write `s` with each byte `replace` knows replaced by what it
/// returns; a clean `s` is written whole. (Every escaped character is
/// ASCII, so bytes are characters here.)
#[inline]
pub fn write_escaped(
    out: &mut impl Write,
    s: &str,
    replace: impl Fn(u8) -> Option<&'static str>,
) -> fmt::Result {
    if !holds(s, |b| replace(b).is_some()) {
        return out.write_str(s);
    }
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(replacement) = replace(b) {
            out.write_str(&s[clean..i])?;
            out.write_str(replacement)?;
            clean = i + 1;
        }
    }
    out.write_str(&s[clean..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex<'a, T>(text: &'a str, f: impl FnOnce(&mut Cursor<'a>) -> T) -> (T, &'a str) {
        let mut cur = Cursor::new(text);
        let out = f(&mut cur);
        (out, &text[cur.pos..])
    }

    #[test]
    fn iri_keeps_utf8_and_decodes_uchar() {
        let (iri, rest) = lex("<http://ex.org/café\\u00E9> x", |c| c.iri());
        assert_eq!(iri.unwrap(), "http://ex.org/caféé");
        assert_eq!(rest, " x");
        assert!(lex("<http://a", |c| c.iri()).0.is_err());
        // What may not stand in an IRI may not be escaped into one.
        for bad in [
            "<http://a b>",
            "<http://a\\u0020b>",
            "<http://a\\u003Eb>",
            "<a\\u005Cb>",
        ] {
            assert!(lex(bad, |c| c.iri()).0.is_err(), "{bad}");
        }
        assert!(lex("<http://a\\nb>", |c| c.iri()).0.is_err());
        let (iri, _) = lex("<a{b\\u007D>", |c| c.iri());
        assert_eq!(iri.unwrap(), "a{b}");
    }

    #[test]
    fn strings_short_long_and_escaped() {
        let s = |text: &str| lex(text, |c| c.string()).0;
        assert_eq!(s(r#""snow☃man""#).unwrap(), "snow☃man");
        assert_eq!(s(r#""\U0001F600""#).unwrap(), "😀");
        assert_eq!(s(r#""""a "b" ""c"""""#).unwrap(), "a \"b\" \"\"c");
        assert_eq!(s("'''x\ny'''").unwrap(), "x\ny");
        assert_eq!(s(r#""""#).unwrap(), "");
        assert_eq!(s("'it''s'").unwrap(), "it");
        for bad in [
            r#""abc"#,
            r#""\"#,
            r#""\u00"#,
            r#""""x"#,
            r#""\q""#,
            r#""\uD800""#,
        ] {
            assert!(s(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn names_allow_inner_dots_dashes_and_percent_escapes() {
        let (pn, rest) = lex("my-ns:a%20b.c. ", |c| c.prefixed_name());
        assert_eq!(pn, Some(("my-ns", "a%20b.c")));
        assert_eq!(rest, ". ");
        assert_eq!(lex(":x", |c| c.prefixed_name()).0, Some(("", "x")));
        assert_eq!(lex("true.", |c| c.prefixed_name()).0, None);
        let (label, rest) = lex("_:b.1..", |c| c.blank_label());
        assert_eq!((label.unwrap(), rest), ("b.1", ".."));
        assert_eq!(lex("_:a..b", |c| c.blank_label()).0.unwrap(), "a..b");
        assert!(lex("_: x", |c| c.blank_label()).0.is_err());
    }

    #[test]
    fn exponent_needs_digits() {
        fn n(text: &str) -> (Num, &str) {
            lex(text, |c| c.number(false).unwrap())
        }
        assert_eq!(n("1e3"), (Num::Real(1000.0), ""));
        assert_eq!(n("2.5E-1x"), (Num::Real(0.25), "x"));
        assert_eq!(n("1e"), (Num::Int(1), "e"));
        assert_eq!(n("-7."), (Num::Int(-7), "."));
        assert_eq!(n(".5"), (Num::Real(0.5), ""));
        assert!(lex("9223372036854775808", |c| c.number(false)).0.is_err());
        let min = lex("9223372036854775808", |c| c.number(true)).0;
        assert_eq!(min.unwrap(), Num::Int(i64::MIN));
    }

    #[test]
    fn positions_count_lines_and_bytes() {
        let mut cur = Cursor::new("# c\n  @ x");
        cur.skip_ws();
        assert_eq!(cur.line_col(), (2, 3));
        assert!(matches!(
            cur.lang_tag(),
            Err(RdfError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn nesting_stops_at_the_bound() {
        let mut cur = Cursor::new("");
        for _ in 0..MAX_NESTING {
            cur.enter().unwrap();
        }
        assert!(cur.enter().is_err());
        cur.leave();
        assert!(cur.enter().is_ok());
    }

    #[test]
    fn typed_literals_map_xsd_types() {
        let t = |v: &str, dt: &str| typed_literal(v.into(), format!("{XSD}{dt}"));
        assert_eq!(t("42", "integer").unwrap(), Term::integer(42));
        assert_eq!(t("2.5", "double").unwrap(), Term::double(2.5));
        assert_eq!(t("1", "boolean").unwrap(), Term::Bool(true));
        assert_eq!(t("x", "string").unwrap(), Term::str("x"));
        assert!(t("x", "integer").is_err());
        assert!(matches!(t("x", "date").unwrap(), Term::Typed { .. }));
        let custom = typed_literal("7".into(), "http://ex/dt".into()).unwrap();
        assert!(matches!(custom, Term::Typed { .. }));
    }
}
