//! SPARQL result serializers: JSON, XML, CSV, TSV.
//!
//! All four operate over [`QueryResult`] directly. Non-SELECT shapes
//! are lowered first: CONSTRUCT graphs become `?subject ?predicate
//! ?object` solutions, updates become a one-row `?inserted ?deleted`
//! table, and EXPLAIN text a one-column `?text` table — so every
//! format can carry every result kind.
//!
//! Mapping of SSDM-specific values: resident arrays and array proxies
//! serialize as literals typed `urn:ssdm:array` whose lexical form is
//! the SciSPARQL collection notation; closures as `urn:ssdm:closure`.

use std::borrow::Cow;
use std::fmt::{self, Display, Write};

use scisparql::{QueryResult, Value};
use ssdm_array::Num;
use ssdm_rdf::Term;

use super::negotiate::ResultFormat;

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
const SSDM_ARRAY: &str = "urn:ssdm:array";
const SSDM_CLOSURE: &str = "urn:ssdm:closure";

type Rows = [Vec<Option<Value>>];

/// Serialize a result in the negotiated format. A SELECT result is
/// read where it lies; every lexical form is written, escaped, straight
/// into the one output buffer.
pub fn serialize(result: &QueryResult, format: ResultFormat) -> Vec<u8> {
    let (vars, rows) = match lower(result) {
        Lowered::Solutions { vars, rows } => (vars, rows),
        Lowered::Boolean(b) => return boolean(b, format).into_bytes(),
    };
    let mut out = String::with_capacity(256 + 64 * vars.len() * rows.len());
    match format {
        ResultFormat::Json => to_json(&mut out, &vars, &rows),
        ResultFormat::Xml => to_xml(&mut out, &vars, &rows),
        ResultFormat::Csv => to_csv(&mut out, &vars, &rows),
        ResultFormat::Tsv => to_tsv(&mut out, &vars, &rows),
    }
    out.into_bytes()
}

enum Lowered<'a> {
    Solutions {
        vars: Cow<'a, [String]>,
        rows: Cow<'a, Rows>,
    },
    Boolean(bool),
}

/// Lower every result kind to a table or a boolean.
fn lower(result: &QueryResult) -> Lowered<'_> {
    let table = |vars: &[&str], rows| Lowered::Solutions {
        vars: vars.iter().map(|v| v.to_string()).collect(),
        rows: Cow::Owned(rows),
    };
    match result {
        QueryResult::Solutions { vars, rows } => Lowered::Solutions {
            vars: Cow::Borrowed(vars),
            rows: Cow::Borrowed(rows),
        },
        QueryResult::Boolean(b) => Lowered::Boolean(*b),
        QueryResult::Graph(g) => {
            let node = |id| Some(Value::Term(g.term(id).clone()));
            let rows = g.iter().map(|t| vec![node(t.s), node(t.p), node(t.o)]);
            table(&["subject", "predicate", "object"], rows.collect())
        }
        QueryResult::Updated { inserted, deleted } => {
            let count = |n: usize| Some(Value::integer(n as i64));
            let row = vec![count(*inserted), count(*deleted)];
            table(&["inserted", "deleted"], vec![row])
        }
        QueryResult::Text(t) => {
            let line = |l| vec![Some(Value::Term(Term::str(l)))];
            table(&["text"], t.lines().map(line).collect())
        }
    }
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

/// The (lexical form, term kind) decomposition every serializer needs,
/// borrowed from the value: a lexical form is whatever displays as it.
enum Node<'a> {
    Uri(&'a str),
    Bnode(&'a str),
    /// value, optional language tag, optional datatype URI.
    Literal(&'a dyn Display, Option<&'a str>, Option<&'a str>),
}

fn decompose(value: &Value) -> Node<'_> {
    match value {
        Value::Term(t) => match t {
            Term::Uri(u) => Node::Uri(u),
            Term::Blank(b) => Node::Bnode(b),
            Term::Str(s) => Node::Literal(s, None, None),
            Term::LangStr { value, lang } => Node::Literal(value, Some(lang), None),
            Term::Number(Num::Int(i)) => Node::Literal(i, None, Some(XSD_INTEGER)),
            Term::Number(n @ Num::Real(_)) => Node::Literal(n, None, Some(XSD_DOUBLE)),
            Term::Bool(b) => Node::Literal(b, None, Some(XSD_BOOLEAN)),
            Term::Typed { value, datatype } => Node::Literal(value, None, Some(datatype)),
            Term::Array(a) => Node::Literal(a, None, Some(SSDM_ARRAY)),
            // Displays as `@array:<id>`.
            Term::ArrayRef(_) => Node::Literal(t, None, Some(SSDM_ARRAY)),
        },
        Value::Proxy(_) => Node::Literal(value, None, Some(SSDM_ARRAY)),
        Value::Closure(_) => Node::Literal(value, None, Some(SSDM_CLOSURE)),
    }
}

/// Appends what is written to it to `out`, with each byte `replace`
/// knows replaced by what it returns. (Every escaped character of
/// every format is ASCII, so bytes are characters here.)
struct Escaped<'o, F> {
    out: &'o mut String,
    replace: F,
}

impl<F: Fn(u8) -> Option<&'static str>> Write for Escaped<'_, F> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut clean = 0;
        for (i, b) in s.bytes().enumerate() {
            if let Some(replacement) = (self.replace)(b) {
                self.out.push_str(&s[clean..i]);
                self.out.push_str(replacement);
                clean = i + 1;
            }
        }
        self.out.push_str(&s[clean..]);
        Ok(())
    }
}

/// Append `lexical`, escaped by `replace`, to `out`.
fn escaped(out: &mut String, lexical: &dyn Display, replace: impl Fn(u8) -> Option<&'static str>) {
    // Writing to a `String` cannot fail.
    let _ = write!(Escaped { out, replace }, "{lexical}");
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

/// Append `"name":"value"`, `value` escaped.
fn json_member(out: &mut String, name: &str, value: &dyn Display) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":\"");
    escaped(out, value, json_special);
    out.push('"');
}

fn to_json(out: &mut String, vars: &[String], rows: &Rows) {
    // `"var":`, escaped once.
    let keys: Vec<String> = vars
        .iter()
        .map(|v| {
            let mut key = String::from("\"");
            escaped(&mut key, v, json_special);
            key.push_str("\":");
            key
        })
        .collect();
    out.push_str("{\"head\":{\"vars\":[");
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&key[..key.len() - 1]);
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    for (ri, row) in rows.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        for (key, cell) in keys.iter().zip(row.iter()) {
            let Some(value) = cell else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            match decompose(value) {
                Node::Uri(u) => {
                    out.push_str("{\"type\":\"uri\",");
                    json_member(out, "value", &u);
                }
                Node::Bnode(b) => {
                    out.push_str("{\"type\":\"bnode\",");
                    json_member(out, "value", &b);
                }
                Node::Literal(v, lang, dt) => {
                    out.push_str("{\"type\":\"literal\",");
                    json_member(out, "value", v);
                    if let Some(lang) = lang {
                        out.push(',');
                        json_member(out, "xml:lang", &lang);
                    }
                    if let Some(dt) = dt {
                        out.push(',');
                        json_member(out, "datatype", &dt);
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}}");
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
    escaped(out, &value, xml_special);
    out.push('"');
}

fn to_xml(out: &mut String, vars: &[String], rows: &Rows) {
    out.push_str(XML_OPEN);
    out.push_str("  <head>\n");
    for v in vars {
        out.push_str("    <variable");
        xml_attribute(out, "name", v);
        out.push_str("/>\n");
    }
    out.push_str("  </head>\n  <results>\n");
    for row in rows {
        out.push_str("    <result>\n");
        for (var, cell) in vars.iter().zip(row.iter()) {
            let Some(value) = cell else { continue };
            out.push_str("      <binding");
            xml_attribute(out, "name", var);
            out.push('>');
            match decompose(value) {
                Node::Uri(u) => {
                    out.push_str("<uri>");
                    escaped(out, &u, xml_special);
                    out.push_str("</uri>");
                }
                Node::Bnode(b) => {
                    out.push_str("<bnode>");
                    escaped(out, &b, xml_special);
                    out.push_str("</bnode>");
                }
                Node::Literal(v, lang, dt) => {
                    out.push_str("<literal");
                    if let Some(lang) = lang {
                        xml_attribute(out, "xml:lang", lang);
                    }
                    if let Some(dt) = dt {
                        xml_attribute(out, "datatype", dt);
                    }
                    out.push('>');
                    escaped(out, v, xml_special);
                    out.push_str("</literal>");
                }
            }
            out.push_str("</binding>\n");
        }
        out.push_str("    </result>\n");
    }
    out.push_str("  </results>\n</sparql>\n");
}

// ----------------------------------------------------------------- CSV

/// Append one field with RFC 4180 quoting: wrapped in double quotes
/// when it contains a comma, quote, CR, or LF; embedded quotes double.
fn csv_field(out: &mut String, prefix: &str, lexical: &dyn Display) {
    let start = out.len();
    out.push_str(prefix);
    let _ = write!(out, "{lexical}");
    if out[start..].contains([',', '"', '\n', '\r']) {
        let field = out.split_off(start);
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    }
}

/// CSV serializes bare lexical forms (SPARQL 1.1 Query Results CSV
/// format): IRIs without brackets, literals without quotes or type
/// annotations.
fn to_csv(out: &mut String, vars: &[String], rows: &Rows) {
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        csv_field(out, "", v);
    }
    out.push_str("\r\n");
    for row in rows {
        for (i, (_, cell)) in vars.iter().zip(row.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            match cell.as_ref().map(decompose) {
                None => {}
                Some(Node::Uri(u)) => csv_field(out, "", &u),
                Some(Node::Bnode(b)) => csv_field(out, "_:", &b),
                Some(Node::Literal(v, _, _)) => csv_field(out, "", v),
            }
        }
        out.push_str("\r\n");
    }
}

// ----------------------------------------------------------------- TSV

/// TSV serializes full SPARQL syntax (the Query Results TSV format):
/// `<iri>`, `"literal"@lang`, `"lex"^^<dt>`, numbers bare. [`Term`]'s
/// `Display` already produces exactly this, with tabs and newlines
/// escaped inside literals.
fn to_tsv(out: &mut String, vars: &[String], rows: &Rows) {
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        out.push('?');
        out.push_str(v);
    }
    out.push('\n');
    for row in rows {
        for (i, (_, cell)) in vars.iter().zip(row.iter()).enumerate() {
            if i > 0 {
                out.push('\t');
            }
            if let Some(value) = cell {
                let _ = write!(out, "{value}");
            }
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_array::NumArray;

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
