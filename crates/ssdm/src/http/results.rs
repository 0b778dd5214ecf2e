//! SPARQL result serializers: JSON, XML, CSV, TSV, through one writer.
//!
//! `Writer` writes a table a cell at a time straight into the one
//! output buffer. A cell is a term borrowed where it lies — in the
//! dataset's dictionary, a CONSTRUCT graph, a materialized value — or a
//! value that names no term (a proxy, a closure). Three tables feed it:
//! a SELECT's projected rows, whose `Id` cells are read from the
//! dictionary under the engine lock ([`serialize_answer`]); a
//! materialized [`QueryResult`] ([`serialize`]); and a graph's triples.
//! The framed wire writes its SELECT rows through the same writer
//! ([`super::frame::render`]).
//!
//! Non-SELECT shapes are lowered first: CONSTRUCT graphs become
//! `?subject ?predicate ?object` solutions, updates become a one-row
//! `?inserted ?deleted` table, and EXPLAIN text a one-column `?text`
//! table — so every format can carry every result kind.
//!
//! Mapping of SSDM-specific values: resident arrays and array proxies
//! serialize as literals typed `urn:ssdm:array` whose lexical form is
//! the SciSPARQL collection notation, whole; closures as
//! `urn:ssdm:closure`. A number's lexical form is
//! [`ssdm_array::write_lexical`]'s (`INF`, `-INF` or `NaN` for a double
//! that is not finite); a TSV cell is the term as
//! [`ssdm_rdf::lex::write_term`] writes it (`"INF"^^<…#double>`).

use std::fmt::{self, Display, Write};

use scisparql::eval::{Rows, Slot};
use scisparql::{Answer, Dataset, QueryResult, Value};
use ssdm_array::{write_lexical, Num};
use ssdm_rdf::lex::{holds, write_escaped, write_term};
use ssdm_rdf::{Graph, Term};

use super::negotiate::ResultFormat;

/// Serialize a materialized result in the negotiated format.
pub fn serialize(result: &QueryResult, format: ResultFormat) -> Vec<u8> {
    let count = |n: usize| Some(Value::integer(n as i64));
    match result {
        QueryResult::Solutions { vars, rows } => table(format, vars, Table::Values(rows)),
        QueryResult::Boolean(b) => boolean(*b, format),
        QueryResult::Graph(g) => {
            let vars = ["subject", "predicate", "object"];
            table(format, &vars, Table::Triples(g))
        }
        QueryResult::Updated { inserted, deleted } => {
            let row = [vec![count(*inserted), count(*deleted)]];
            table(format, &["inserted", "deleted"], Table::Values(&row))
        }
        QueryResult::Text(t) => {
            let line = |l| vec![Some(Value::Term(Term::str(l)))];
            let rows: Vec<_> = t.lines().map(line).collect();
            table(format, &["text"], Table::Values(&rows))
        }
    }
    .into_bytes()
}

/// Serialize a statement's answer in the negotiated format, byte for
/// byte as [`serialize`] writes its materialized result. A SELECT's
/// cells are read where they lie: `ds` is the dataset whose dictionary
/// its ids index.
pub fn serialize_answer(answer: &Answer, ds: &Dataset, format: ResultFormat) -> Vec<u8> {
    match answer {
        Answer::Solutions { vars, rows } => {
            table(format, vars, Table::Slots(rows, ds)).into_bytes()
        }
        Answer::Result(result) => serialize(result, format),
    }
}

/// A table for the framed wire: TSV cells under a header of bare
/// variable names.
pub(crate) fn framed(vars: &[String], table: Table<'_>) -> String {
    let mut w = Writer::bare(ResultFormat::Tsv, vars.len(), &table);
    w.out.push_str(&vars.join("\t"));
    w.out.push('\n');
    write(w, table)
}

/// Where a table's cells lie.
#[derive(Clone, Copy)]
pub(crate) enum Table<'a> {
    /// A SELECT's projected rows: dictionary ids, whose terms `ds`
    /// keeps, and computed values.
    Slots(&'a Rows, &'a Dataset),
    /// Materialized rows.
    Values(&'a [Vec<Option<Value>>]),
    /// A graph's triples, one `?subject ?predicate ?object` row each.
    Triples(&'a Graph),
}

impl Table<'_> {
    fn len(&self) -> usize {
        match self {
            Table::Slots(rows, _) => rows.len(),
            Table::Values(rows) => rows.len(),
            Table::Triples(g) => g.len(),
        }
    }
}

/// `table` under a header naming `vars`, whole.
fn table(format: ResultFormat, vars: &[impl AsRef<str>], table: Table<'_>) -> String {
    write(Writer::new(format, vars, &table), table)
}

/// Every row of `table` through `w`, then the close.
fn write(mut w: Writer, table: Table<'_>) -> String {
    match table {
        Table::Slots(rows, ds) => {
            for row in rows.iter() {
                w.start_row();
                for slot in row {
                    match slot {
                        Slot::Unbound => w.cell(None),
                        Slot::Id(id) => match ds.graph.term(*id) {
                            // Shows as its proxy, as it materializes.
                            t @ Term::ArrayRef(_) => {
                                w.cell(Some(Cell::Value(&ds.term_to_value(t))))
                            }
                            t => w.cell(Some(Cell::Term(t))),
                        },
                        Slot::Val(v) => w.cell(Some(Cell::Value(v))),
                    }
                }
                w.end_row();
            }
        }
        Table::Values(rows) => {
            for row in rows {
                w.start_row();
                row.iter().for_each(|c| w.cell(c.as_ref().map(Cell::Value)));
                w.end_row();
            }
        }
        Table::Triples(g) => {
            for t in g.iter() {
                w.start_row();
                for id in [t.s, t.p, t.o] {
                    w.cell(Some(Cell::Term(g.term(id))));
                }
                w.end_row();
            }
        }
    }
    w.finish()
}

/// An ASK result, whole.
fn boolean(b: bool, format: ResultFormat) -> String {
    match format {
        ResultFormat::Json => format!("{{\"head\":{{}},\"boolean\":{b}}}"),
        ResultFormat::Xml => {
            format!("{XML_OPEN}  <head>\n  </head>\n  <boolean>{b}</boolean>\n</sparql>\n")
        }
        ResultFormat::Csv => format!("boolean\r\n{b}\r\n"),
        ResultFormat::Tsv => format!("?boolean\n{b}\n"),
    }
}

/// One cell: a term where it lies, or a value.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Term(&'a Term),
    Value(&'a Value),
}

/// The datatypes the engine assigns itself, each written as one
/// constant fragment.
macro_rules! known_datatypes {
    ($($name:ident = $iri:literal,)*) => {
        #[derive(Clone, Copy)]
        enum Known { $($name,)* }

        impl Known {
            /// `,"datatype":"…"}`: the end of a JSON literal.
            fn json(self) -> &'static str {
                match self { $(Known::$name => concat!(",\"datatype\":\"", $iri, "\"}"),)* }
            }

            /// ` datatype="…">`: the end of an XML literal's start tag.
            fn xml(self) -> &'static str {
                match self { $(Known::$name => concat!(" datatype=\"", $iri, "\">"),)* }
            }
        }
    };
}

known_datatypes! {
    Integer = "http://www.w3.org/2001/XMLSchema#integer",
    Double = "http://www.w3.org/2001/XMLSchema#double",
    Boolean = "http://www.w3.org/2001/XMLSchema#boolean",
    Array = "urn:ssdm:array",
    Closure = "urn:ssdm:closure",
}

enum Datatype<'a> {
    Plain,
    Known(Known),
    Iri(&'a str),
}

/// A literal's lexical form, as it lies.
enum Lexical<'a> {
    /// Text, escaped as the format needs.
    Text(&'a str),
    Num(Num),
    Bool(bool),
    /// Collection notation, proxies, closures: whatever displays as it.
    Shown(&'a dyn Display),
}

/// The (kind, lexical form) decomposition the JSON, XML and CSV cells
/// need, borrowed from the cell.
enum Node<'a> {
    Uri(&'a str),
    Bnode(&'a str),
    /// lexical form, optional language tag, datatype.
    Literal(Lexical<'a>, Option<&'a str>, Datatype<'a>),
}

fn decompose(cell: Cell<'_>) -> Node<'_> {
    let literal = |lexical, datatype| Node::Literal(lexical, None, Datatype::Known(datatype));
    let term = match cell {
        Cell::Term(t) | Cell::Value(Value::Term(t)) => t,
        Cell::Value(v @ Value::Proxy(_)) => return literal(Lexical::Shown(v), Known::Array),
        Cell::Value(v @ Value::Closure(_)) => return literal(Lexical::Shown(v), Known::Closure),
    };
    match term {
        Term::Uri(u) => Node::Uri(u),
        Term::Blank(b) => Node::Bnode(b),
        Term::Str(s) => Node::Literal(Lexical::Text(s), None, Datatype::Plain),
        Term::LangStr { value, lang } => {
            Node::Literal(Lexical::Text(value), Some(lang), Datatype::Plain)
        }
        Term::Number(n @ Num::Int(_)) => literal(Lexical::Num(*n), Known::Integer),
        Term::Number(n) => literal(Lexical::Num(*n), Known::Double),
        Term::Bool(b) => literal(Lexical::Bool(*b), Known::Boolean),
        Term::Typed { value, datatype } => {
            Node::Literal(Lexical::Text(value), None, Datatype::Iri(datatype))
        }
        Term::Array(a) => literal(Lexical::Shown(a), Known::Array),
        // Displays as `@array:<id>`.
        Term::ArrayRef(_) => literal(Lexical::Shown(term), Known::Array),
    }
}

/// Writes one table in one format: the header when made, then each
/// row a cell at a time.
struct Writer {
    format: ResultFormat,
    out: String,
    /// Per column, what opens a bound cell: `"var":` in JSON,
    /// `      <binding name="var">` in XML; empty in CSV and TSV.
    open: Vec<String>,
    /// Columns per row; cells past it are not written.
    width: usize,
    /// The next column of the current row.
    col: usize,
    /// JSON: a cell of the current row is written.
    bound: bool,
    rows: usize,
}

impl Writer {
    /// A writer of `table`, `width` columns wide, that has written
    /// nothing yet.
    fn bare(format: ResultFormat, width: usize, table: &Table<'_>) -> Writer {
        Writer {
            format,
            out: String::with_capacity(256 + 64 * width * table.len()),
            open: Vec::new(),
            width,
            col: 0,
            bound: false,
            rows: 0,
        }
    }

    /// A writer of `table` that has written the header naming `vars`.
    fn new(format: ResultFormat, vars: &[impl AsRef<str>], table: &Table<'_>) -> Writer {
        let mut w = Writer::bare(format, vars.len(), table);
        let (out, open) = (&mut w.out, &mut w.open);
        let names = vars.iter().map(AsRef::as_ref);
        match format {
            ResultFormat::Json => {
                out.push_str("{\"head\":{\"vars\":[");
                for (i, v) in names.enumerate() {
                    let mut key = String::from("\"");
                    push_escaped(&mut key, v, json_special);
                    key.push('"');
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(&key);
                    key.push(':');
                    open.push(key);
                }
                out.push_str("]},\"results\":{\"bindings\":[");
            }
            ResultFormat::Xml => {
                out.push_str(XML_OPEN);
                out.push_str("  <head>\n");
                for v in names {
                    out.push_str("    <variable");
                    xml_attribute(out, "name", v);
                    out.push_str("/>\n");
                    let mut binding = String::from("      <binding");
                    xml_attribute(&mut binding, "name", v);
                    binding.push('>');
                    open.push(binding);
                }
                out.push_str("  </head>\n  <results>\n");
            }
            ResultFormat::Csv => {
                for (i, v) in names.enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    csv_text(out, "", v);
                }
                out.push_str("\r\n");
            }
            ResultFormat::Tsv => {
                for (i, v) in names.enumerate() {
                    out.push_str(if i > 0 { "\t?" } else { "?" });
                    out.push_str(v);
                }
                out.push('\n');
            }
        }
        w
    }

    fn start_row(&mut self) {
        (self.col, self.bound) = (0, false);
        match self.format {
            ResultFormat::Json => self.out.push_str(if self.rows > 0 { ",{" } else { "{" }),
            ResultFormat::Xml => self.out.push_str("    <result>\n"),
            ResultFormat::Csv | ResultFormat::Tsv => {}
        }
    }

    /// The current row's next cell; `None` is unbound.
    fn cell(&mut self, cell: Option<Cell<'_>>) {
        let col = self.col;
        self.col += 1;
        if col >= self.width {
            return;
        }
        let out = &mut self.out;
        match self.format {
            ResultFormat::Json => {
                let Some(cell) = cell else { return };
                out.push_str(if self.bound { "," } else { "" });
                self.bound = true;
                out.push_str(&self.open[col]);
                json_node(out, decompose(cell));
            }
            ResultFormat::Xml => {
                let Some(cell) = cell else { return };
                out.push_str(&self.open[col]);
                xml_node(out, decompose(cell));
                out.push_str("</binding>\n");
            }
            ResultFormat::Csv => {
                out.push_str(if col > 0 { "," } else { "" });
                match cell.map(decompose) {
                    None => {}
                    Some(Node::Uri(u)) => csv_text(out, "", u),
                    Some(Node::Bnode(b)) => csv_text(out, "_:", b),
                    Some(Node::Literal(lexical, _, _)) => csv_lexical(out, lexical),
                }
            }
            ResultFormat::Tsv => {
                out.push_str(if col > 0 { "\t" } else { "" });
                // Writing to a `String` cannot fail.
                let _ = match cell {
                    None => Ok(()),
                    Some(Cell::Term(t) | Cell::Value(Value::Term(t))) => write_term(out, t),
                    Some(Cell::Value(v)) => write!(out, "{v}"),
                };
            }
        }
    }

    fn end_row(&mut self) {
        self.rows += 1;
        self.out.push_str(match self.format {
            ResultFormat::Json => "}",
            ResultFormat::Xml => "    </result>\n",
            ResultFormat::Csv => "\r\n",
            ResultFormat::Tsv => "\n",
        });
    }

    fn finish(mut self) -> String {
        self.out.push_str(match self.format {
            ResultFormat::Json => "]}}",
            ResultFormat::Xml => "  </results>\n</sparql>\n",
            ResultFormat::Csv | ResultFormat::Tsv => "",
        });
        self.out
    }
}

/// Append `s` with each byte `replace` knows replaced by what it
/// returns.
fn push_escaped(out: &mut String, s: &str, replace: impl Fn(u8) -> Option<&'static str>) {
    // Writing to a `String` cannot fail.
    let _ = write_escaped(out, s, replace);
}

/// Appends what is written to it to `out`, escaped by `replace`: the
/// lexical forms that only display (arrays, proxies, closures).
struct Escaped<'o, F> {
    out: &'o mut String,
    replace: F,
}

impl<F: Fn(u8) -> Option<&'static str>> Write for Escaped<'_, F> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        write_escaped(self.out, s, &self.replace)
    }
}

/// Append `lexical`, escaped by `replace`.
fn push_lexical(
    out: &mut String,
    lexical: Lexical<'_>,
    replace: impl Fn(u8) -> Option<&'static str>,
) {
    match lexical {
        Lexical::Text(s) => push_escaped(out, s, replace),
        Lexical::Num(n) => {
            let _ = write_lexical(out, n);
        }
        Lexical::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        Lexical::Shown(d) => {
            // Writing to a `String` cannot fail.
            let _ = write!(Escaped { out, replace }, "{d}");
        }
    }
}

// ---------------------------------------------------------------- JSON

/// The escape of one byte inside a JSON string literal.
fn json_special(b: u8) -> Option<&'static str> {
    #[rustfmt::skip]
    const CONTROL: [&str; 0x20] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f",
        "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
        "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..=0x1f => Some(CONTROL[b as usize]),
        _ => None,
    }
}

/// Append one bound cell's JSON object.
fn json_node(out: &mut String, node: Node<'_>) {
    match node {
        Node::Uri(u) => {
            out.push_str("{\"type\":\"uri\",\"value\":\"");
            push_escaped(out, u, json_special);
            out.push_str("\"}");
        }
        Node::Bnode(b) => {
            out.push_str("{\"type\":\"bnode\",\"value\":\"");
            push_escaped(out, b, json_special);
            out.push_str("\"}");
        }
        Node::Literal(lexical, lang, datatype) => {
            out.push_str("{\"type\":\"literal\",\"value\":\"");
            push_lexical(out, lexical, json_special);
            out.push('"');
            if let Some(lang) = lang {
                out.push_str(",\"xml:lang\":\"");
                push_escaped(out, lang, json_special);
                out.push('"');
            }
            match datatype {
                Datatype::Plain => out.push('}'),
                Datatype::Known(known) => out.push_str(known.json()),
                Datatype::Iri(iri) => {
                    out.push_str(",\"datatype\":\"");
                    push_escaped(out, iri, json_special);
                    out.push_str("\"}");
                }
            }
        }
    }
}

// ----------------------------------------------------------------- XML

const XML_OPEN: &str =
    "<?xml version=\"1.0\"?>\n<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n";

/// The escape of one byte in XML text content or attribute values.
fn xml_special(b: u8) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        _ => None,
    }
}

/// Append ` name="value"`, `value` escaped.
fn xml_attribute(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    push_escaped(out, value, xml_special);
    out.push('"');
}

/// Append one bound cell's element.
fn xml_node(out: &mut String, node: Node<'_>) {
    match node {
        Node::Uri(u) => {
            out.push_str("<uri>");
            push_escaped(out, u, xml_special);
            out.push_str("</uri>");
        }
        Node::Bnode(b) => {
            out.push_str("<bnode>");
            push_escaped(out, b, xml_special);
            out.push_str("</bnode>");
        }
        Node::Literal(lexical, lang, datatype) => {
            out.push_str("<literal");
            if let Some(lang) = lang {
                xml_attribute(out, "xml:lang", lang);
            }
            match datatype {
                Datatype::Plain => out.push('>'),
                Datatype::Known(known) => out.push_str(known.xml()),
                Datatype::Iri(iri) => {
                    xml_attribute(out, "datatype", iri);
                    out.push('>');
                }
            }
            push_lexical(out, lexical, xml_special);
            out.push_str("</literal>");
        }
    }
}

// ----------------------------------------------------------------- CSV
//
// CSV serializes bare lexical forms (SPARQL 1.1 Query Results CSV
// format): IRIs without brackets, literals without quotes or type
// annotations. A field is quoted (RFC 4180) when it contains a comma,
// quote, CR or LF; embedded quotes double.

fn csv_special(b: u8) -> bool {
    matches!(b, b',' | b'"' | b'\n' | b'\r')
}

/// Append `prefix` + `text` as one field.
fn csv_text(out: &mut String, prefix: &str, text: &str) {
    if !holds(text, csv_special) {
        out.push_str(prefix);
        out.push_str(text);
        return;
    }
    out.push('"');
    out.push_str(prefix);
    push_escaped(out, text, |b| (b == b'"').then_some("\"\""));
    out.push('"');
}

/// Append a literal's lexical form as one field.
fn csv_lexical(out: &mut String, lexical: Lexical<'_>) {
    match lexical {
        Lexical::Text(s) => csv_text(out, "", s),
        Lexical::Shown(d) => {
            let start = out.len();
            let _ = write!(out, "{d}");
            if holds(&out[start..], csv_special) {
                let field = out.split_off(start);
                csv_text(out, "", &field);
            }
        }
        // Digits, signs, `.`, `e`, letters: never quoted.
        other => push_lexical(out, other, |_| None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_array::NumArray;

    const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";

    fn solutions(vars: &[&str], rows: Vec<Vec<Option<Value>>>) -> QueryResult {
        QueryResult::Solutions {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    fn text_of(result: &QueryResult, format: ResultFormat) -> String {
        String::from_utf8(serialize(result, format)).unwrap()
    }

    #[test]
    fn json_typed_and_lang_literals() {
        let r = solutions(
            &["a", "b", "c", "d"],
            vec![vec![
                Some(Value::Term(Term::LangStr {
                    value: "chat".into(),
                    lang: "fr".into(),
                })),
                Some(Value::Term(Term::Typed {
                    value: "2024-01-01".into(),
                    datatype: "http://www.w3.org/2001/XMLSchema#date".into(),
                })),
                Some(Value::integer(42)),
                Some(Value::double(2.5)),
            ]],
        );
        let json = text_of(&r, ResultFormat::Json);
        assert!(json.contains(r#""a":{"type":"literal","value":"chat","xml:lang":"fr"}"#));
        assert!(json.contains(
            r#""b":{"type":"literal","value":"2024-01-01","datatype":"http://www.w3.org/2001/XMLSchema#date"}"#
        ));
        assert!(json.contains(
            r#""c":{"type":"literal","value":"42","datatype":"http://www.w3.org/2001/XMLSchema#integer"}"#
        ));
        assert!(json.contains(
            r#""d":{"type":"literal","value":"2.5","datatype":"http://www.w3.org/2001/XMLSchema#double"}"#
        ));
    }

    #[test]
    fn json_unbound_variables_are_omitted() {
        let r = solutions(
            &["x", "y"],
            vec![vec![Some(Value::Term(Term::uri("http://e/s"))), None]],
        );
        let json = text_of(&r, ResultFormat::Json);
        assert!(json.contains(r#""head":{"vars":["x","y"]}"#));
        assert!(json.contains(r#"{"x":{"type":"uri","value":"http://e/s"}}"#));
        assert!(!json.contains("\"y\":"));
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let r = solutions(
            &["s"],
            vec![vec![Some(Value::Term(Term::str("a\"b\\c\nd\u{1}e")))]],
        );
        let json = text_of(&r, ResultFormat::Json);
        assert!(json.contains(r#""value":"a\"b\\c\nd\u0001e""#));
    }

    #[test]
    fn json_boolean_and_empty_results() {
        assert_eq!(
            text_of(&QueryResult::Boolean(true), ResultFormat::Json),
            r#"{"head":{},"boolean":true}"#
        );
        let empty = solutions(&["x"], vec![]);
        assert_eq!(
            text_of(&empty, ResultFormat::Json),
            r#"{"head":{"vars":["x"]},"results":{"bindings":[]}}"#
        );
    }

    #[test]
    fn json_array_values_as_typed_literals() {
        let r = solutions(
            &["a"],
            vec![vec![Some(Value::Term(Term::Array(NumArray::from_i64(
                vec![1, 2, 3],
            ))))]],
        );
        let json = text_of(&r, ResultFormat::Json);
        assert!(json.contains(r#""datatype":"urn:ssdm:array""#));
        assert!(json.contains("(1 2 3)"));
    }

    #[test]
    fn arrays_are_written_whole_in_every_format() {
        let values = (0..40).map(f64::from).chain([f64::NAN]).collect();
        let a = NumArray::from_f64(values);
        let rows = vec![vec![Some(Value::Term(Term::Array(a.clone())))]];
        let whole = a.to_string();
        let end = format!(" 38.0 39.0 \"NaN\"^^<{XSD_DOUBLE}>)");
        assert!(
            whole.starts_with("(0.0 1.0 2.0 ") && whole.ends_with(&end),
            "{whole}"
        );
        let r = solutions(&["a"], rows.clone());
        assert_eq!(text_of(&r, ResultFormat::Tsv), format!("?a\n{whole}\n"));
        assert_eq!(
            framed(&["a".into()], Table::Values(&rows)),
            format!("a\n{whole}\n")
        );
        let json_whole = whole.replace('"', "\\\"");
        assert!(text_of(&r, ResultFormat::Json).contains(&json_whole));
        let xml = text_of(&r, ResultFormat::Xml);
        assert!(xml.contains(
            &whole
                .replace('"', "&quot;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
        ));
        let csv = text_of(&r, ResultFormat::Csv);
        assert!(csv.contains(&format!("\"{}\"", whole.replace('"', "\"\""))));
    }

    #[test]
    fn xml_structure_and_escaping() {
        let r = solutions(
            &["iri", "lit"],
            vec![vec![
                Some(Value::Term(Term::uri("http://e/a?x=1&y=<2>"))),
                Some(Value::Term(Term::LangStr {
                    value: "a<b>&c".into(),
                    lang: "en".into(),
                })),
            ]],
        );
        let xml = text_of(&r, ResultFormat::Xml);
        assert!(xml.starts_with("<?xml version=\"1.0\"?>"));
        assert!(xml.contains(r#"<sparql xmlns="http://www.w3.org/2005/sparql-results#">"#));
        assert!(xml.contains(r#"<variable name="iri"/>"#));
        assert!(xml.contains("<uri>http://e/a?x=1&amp;y=&lt;2&gt;</uri>"));
        assert!(xml.contains(r#"<literal xml:lang="en">a&lt;b&gt;&amp;c</literal>"#));
    }

    #[test]
    fn xml_boolean_unbound_and_bnode() {
        let xml = text_of(&QueryResult::Boolean(false), ResultFormat::Xml);
        assert!(xml.contains("<boolean>false</boolean>"));
        assert!(!xml.contains("<results>"));

        let r = solutions(
            &["x", "y"],
            vec![vec![Some(Value::Term(Term::Blank("b0".into()))), None]],
        );
        let xml = text_of(&r, ResultFormat::Xml);
        assert!(xml.contains(r#"<binding name="x"><bnode>b0</bnode></binding>"#));
        assert!(!xml.contains(r#"<binding name="y">"#));
    }

    #[test]
    fn csv_bare_lexical_forms_and_quoting() {
        let r = solutions(
            &["iri", "s", "n"],
            vec![vec![
                Some(Value::Term(Term::uri("http://e/s"))),
                Some(Value::Term(Term::str("a,b \"quoted\"\nline"))),
                Some(Value::integer(7)),
            ]],
        );
        let csv = text_of(&r, ResultFormat::Csv);
        assert_eq!(csv.lines().next(), Some("iri,s,n"));
        assert!(csv.contains("http://e/s,\"a,b \"\"quoted\"\"\nline\",7"));
        assert!(csv.ends_with("\r\n"));
    }

    #[test]
    fn csv_unbound_is_empty_field() {
        let r = solutions(
            &["x", "y", "z"],
            vec![vec![None, Some(Value::integer(1)), None]],
        );
        let csv = text_of(&r, ResultFormat::Csv);
        assert!(csv.contains(",1,"));
    }

    #[test]
    fn tsv_full_sparql_syntax() {
        let r = solutions(
            &["iri", "lang", "typed", "n"],
            vec![vec![
                Some(Value::Term(Term::uri("http://e/s"))),
                Some(Value::Term(Term::LangStr {
                    value: "x".into(),
                    lang: "en".into(),
                })),
                Some(Value::Term(Term::Typed {
                    value: "v".into(),
                    datatype: "http://e/dt".into(),
                })),
                Some(Value::double(1.0)),
            ]],
        );
        let tsv = text_of(&r, ResultFormat::Tsv);
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some("?iri\t?lang\t?typed\t?n"));
        assert_eq!(
            lines.next(),
            Some("<http://e/s>\t\"x\"@en\t\"v\"^^<http://e/dt>\t1.0")
        );
    }

    #[test]
    fn tsv_escapes_tabs_in_literals() {
        let r = solutions(&["s"], vec![vec![Some(Value::Term(Term::str("a\tb")))]]);
        let tsv = text_of(&r, ResultFormat::Tsv);
        assert!(tsv.contains("\"a\\tb\""));
    }

    #[test]
    fn graph_results_lower_to_spo_solutions() {
        let mut g = ssdm_rdf::Graph::new();
        ssdm_rdf::turtle::parse_into(&mut g, r#"<http://s> <http://p> "o" ."#).unwrap();
        let r = QueryResult::Graph(g);
        let json = text_of(&r, ResultFormat::Json);
        assert!(json.contains(r#""vars":["subject","predicate","object"]"#));
        assert!(json.contains(r#""subject":{"type":"uri","value":"http://s"}"#));
        let csv = text_of(&r, ResultFormat::Csv);
        assert_eq!(csv.lines().next(), Some("subject,predicate,object"));
    }

    #[test]
    fn update_and_text_results_lower_to_tables() {
        let r = QueryResult::Updated {
            inserted: 3,
            deleted: 1,
        };
        let csv = text_of(&r, ResultFormat::Csv);
        assert_eq!(csv, "inserted,deleted\r\n3,1\r\n");

        let r = QueryResult::Text("plan\nscan".into());
        let tsv = text_of(&r, ResultFormat::Tsv);
        assert_eq!(tsv, "?text\n\"plan\"\n\"scan\"\n");
    }

    #[test]
    fn non_finite_doubles_use_the_xsd_double_lexical_forms() {
        let r = solutions(
            &["x", "y", "z"],
            vec![vec![
                Some(Value::double(f64::INFINITY)),
                Some(Value::double(f64::NEG_INFINITY)),
                Some(Value::double(f64::NAN)),
            ]],
        );
        let json = text_of(&r, ResultFormat::Json);
        for lexical in ["INF", "-INF", "NaN"] {
            assert!(json.contains(&format!(
                r#"{{"type":"literal","value":"{lexical}","datatype":"{XSD_DOUBLE}"}}"#
            )));
        }
        let xml = text_of(&r, ResultFormat::Xml);
        for lexical in ["INF", "-INF", "NaN"] {
            assert!(xml.contains(&format!(
                r#"<literal datatype="{XSD_DOUBLE}">{lexical}</literal>"#
            )));
        }
        assert_eq!(text_of(&r, ResultFormat::Csv), "x,y,z\r\nINF,-INF,NaN\r\n");
        assert_eq!(
            text_of(&r, ResultFormat::Tsv),
            format!(
                "?x\t?y\t?z\n\"INF\"^^<{XSD_DOUBLE}>\t\"-INF\"^^<{XSD_DOUBLE}>\t\"NaN\"^^<{XSD_DOUBLE}>\n"
            )
        );
    }

    #[test]
    fn numbers_write_as_num_displays_them() {
        let reals = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            0.1,
            1e-7,
            123.456,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            1e15,
            -1e15,
            1e16,
            1.5e300,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        let ints = [0, 7, -7, 42, 1_000_000, i64::MAX, i64::MIN];
        let nums = reals.map(Num::Real).into_iter().chain(ints.map(Num::Int));
        for n in nums {
            let r = solutions(&["n"], vec![vec![Some(Value::number(n))]]);
            assert_eq!(text_of(&r, ResultFormat::Csv), format!("n\r\n{n}\r\n"));
            assert_eq!(text_of(&r, ResultFormat::Tsv), format!("?n\n{n}\n"));
        }
    }

    #[test]
    fn all_formats_handle_empty_result_sets() {
        let empty = solutions(&[], vec![]);
        assert_eq!(
            text_of(&empty, ResultFormat::Json),
            r#"{"head":{"vars":[]},"results":{"bindings":[]}}"#
        );
        let xml = text_of(&empty, ResultFormat::Xml);
        assert!(xml.contains("<results>\n  </results>"));
        assert_eq!(text_of(&empty, ResultFormat::Csv), "\r\n");
        assert_eq!(text_of(&empty, ResultFormat::Tsv), "\n");
    }
}
