//! Exposing tabular (relational / spreadsheet) data as RDF with Arrays.
//!
//! The thesis surveys Relational-to-RDF mappings (§2.3.1) and the
//! spreadsheet-style Chelonia store (§2.3.4), whose tasks × variables
//! grid with array-valued cells "was mapped without changes" because
//! both sides support numeric arrays as values. This module implements
//! that: a [`Table`] of typed cells — including whole arrays — maps
//! into an RDF graph following the W3C Direct Mapping conventions
//! extended with array values:
//!
//! * the table name becomes an `rdf:type` class URI;
//! * each row becomes a subject — a URI minted from the key column when
//!   one is designated, else a blank node (the Direct Mapping rule for
//!   keyless tables);
//! * each column becomes a property; `NULL` cells emit no triple;
//! * array cells become array values directly (no list expansion).
//!
//! Table and column names go into IRIs with `%HH` in place of each byte
//! an IRI may not hold and of `%` itself, and into blank-node labels
//! with `.HH` in place of each byte a label may not hold, so whatever a
//! CSV header says, the graph can be written out and read back.

use ssdm_array::NumArray;
use ssdm_rdf::lex::{is_iri_byte, is_name_byte};
use ssdm_rdf::{Graph, Term, Triple};

/// One cell of a table.
#[derive(Debug, Clone)]
pub enum Cell {
    Null,
    Int(i64),
    Real(f64),
    Str(String),
    Bool(bool),
    Array(NumArray),
}

impl Cell {
    fn to_term(&self) -> Option<Term> {
        match self {
            Cell::Null => None,
            Cell::Int(i) => Some(Term::integer(*i)),
            Cell::Real(r) => Some(Term::double(*r)),
            Cell::Str(s) => Some(Term::str(s.clone())),
            Cell::Bool(b) => Some(Term::Bool(*b)),
            Cell::Array(a) => Some(Term::Array(a.clone())),
        }
    }

    /// Render as a URI-safe key fragment.
    fn key_text(&self) -> Option<String> {
        match self {
            Cell::Int(i) => Some(i.to_string()),
            Cell::Str(s) => Some(
                s.chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                    .collect(),
            ),
            _ => None,
        }
    }
}

/// A named table with optional key column.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<String>,
    /// Index of the primary-key column, if any.
    pub key: Option<usize>,
    pub rows: Vec<Vec<Cell>>,
}

/// Mapping report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MappingReport {
    pub subjects: usize,
    pub triples: usize,
}

impl Table {
    /// Map this table into `graph` under the namespace `ns`
    /// (e.g. `http://example.org/db/`). Returns what was created.
    pub fn map_to_rdf(&self, graph: &mut Graph, ns: &str) -> MappingReport {
        let table = iri_part(&self.name);
        let class = Term::uri(format!("{ns}{table}"));
        let type_p = Term::uri(ssdm_rdf::RDF_TYPE);
        let props: Vec<Term> = self
            .columns
            .iter()
            .map(|c| Term::uri(format!("{ns}{table}#{}", iri_part(c))))
            .collect();
        let label = escaped(&self.name, b'.', |b| !is_name_byte(b));
        let mut triples = Vec::new();
        let mut add = |s: &Term, p: &Term, o: Term| {
            let (s, p, o) = (
                graph.intern(s.clone()),
                graph.intern(p.clone()),
                graph.intern(o),
            );
            triples.push(Triple { s, p, o });
        };
        for (rownum, row) in self.rows.iter().enumerate() {
            let subject = match self.key.and_then(|k| row.get(k)).and_then(Cell::key_text) {
                Some(key) => Term::uri(format!("{ns}{table}/{key}")),
                // Direct Mapping: rows without a primary key become
                // blank nodes.
                None => Term::blank(format!("{label}_r{rownum}")),
            };
            add(&subject, &type_p, class.clone());
            for (col, cell) in row.iter().enumerate() {
                if let Some(object) = cell.to_term() {
                    add(&subject, &props[col], object);
                }
            }
        }
        MappingReport {
            subjects: self.rows.len(),
            triples: graph.extend_ids(&triples),
        }
    }
}

/// `name` as part of an IRI: `%` and every byte an IRI may not hold
/// written `%HH`, so distinct names stay distinct IRIs.
fn iri_part(name: &str) -> String {
    escaped(name, b'%', |b| b == b'%' || !is_iri_byte(b))
}

/// `name` with each byte `special` picks written as `mark` and two
/// upper-case hex digits. `special` must pick every byte of a
/// multibyte character or none.
fn escaped(name: &str, mark: u8, special: impl Fn(u8) -> bool) -> String {
    let mut out = Vec::with_capacity(name.len());
    for b in name.bytes() {
        if special(b) {
            out.extend_from_slice(format!("{}{b:02X}", mark as char).as_bytes());
        } else {
            out.push(b);
        }
    }
    String::from_utf8(out).expect("whole characters kept or escaped")
}

/// Parse a simple CSV (comma-separated, optional double quotes, no
/// embedded newlines) into a table. Cell types are inferred: integers,
/// reals, booleans, `NULL`/empty as null, bracketed space-separated
/// numbers (`[1 2 3]`) as array values, everything else as strings.
pub fn parse_csv(name: &str, text: &str, key_column: Option<&str>) -> Result<Table, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty CSV")?;
    let columns: Vec<String> = split_csv_line(header)
        .into_iter()
        .map(|c| c.trim().to_string())
        .collect();
    let key = match key_column {
        Some(kc) => Some(
            columns
                .iter()
                .position(|c| c == kc)
                .ok_or_else(|| format!("key column '{kc}' not in header"))?,
        ),
        None => None,
    };
    let mut rows = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let cells = split_csv_line(line);
        if cells.len() != columns.len() {
            return Err(format!(
                "row {} has {} cells, expected {}",
                lineno + 2,
                cells.len(),
                columns.len()
            ));
        }
        rows.push(cells.into_iter().map(|c| infer_cell(&c)).collect());
    }
    Ok(Table {
        name: name.to_string(),
        columns,
        key,
        rows,
    })
}

fn split_csv_line(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                if in_quotes && chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = !in_quotes;
                }
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

fn infer_cell(text: &str) -> Cell {
    let t = text.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("null") {
        return Cell::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Cell::Int(i);
    }
    if let Ok(r) = t.parse::<f64>() {
        return Cell::Real(r);
    }
    if t.eq_ignore_ascii_case("true") {
        return Cell::Bool(true);
    }
    if t.eq_ignore_ascii_case("false") {
        return Cell::Bool(false);
    }
    if let Some(inner) = t.strip_prefix('[').and_then(|x| x.strip_suffix(']')) {
        let parts: Vec<&str> = inner.split_whitespace().collect();
        if !parts.is_empty() {
            if parts.iter().all(|p| p.parse::<i64>().is_ok()) {
                return Cell::Array(NumArray::from_i64(
                    parts.iter().map(|p| p.parse().expect("checked")).collect(),
                ));
            }
            if parts.iter().all(|p| p.parse::<f64>().is_ok()) {
                return Cell::Array(NumArray::from_f64(
                    parts.iter().map(|p| p.parse().expect("checked")).collect(),
                ));
            }
        }
    }
    Cell::Str(t.to_string())
}

impl crate::Ssdm {
    /// Map a table into the default graph (arrays above the threshold
    /// externalize as usual).
    pub fn load_table(&mut self, table: &Table, ns: &str) -> MappingReport {
        let report = table.map_to_rdf(&mut self.dataset.graph, ns);
        let _ = self.dataset.externalize_large_arrays();
        report
    }

    /// Parse CSV text and map it (see [`parse_csv`] for cell syntax).
    pub fn load_csv(
        &mut self,
        name: &str,
        text: &str,
        key_column: Option<&str>,
        ns: &str,
    ) -> Result<MappingReport, String> {
        let table = parse_csv(name, text, key_column)?;
        Ok(self.load_table(&table, ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Ssdm};

    const CSV: &str = "\
task,k_1,k_a,realization,result,trajectory
1,32.159,79.279,1,true,[10 20 30 40]
2,19.151,39.044,1,false,[5 5 5 5]
3,27.5,44.0,2,true,
";

    #[test]
    fn csv_parsing_infers_types() {
        let t = parse_csv("bistab", CSV, Some("task")).unwrap();
        assert_eq!(t.columns.len(), 6);
        assert_eq!(t.rows.len(), 3);
        assert!(matches!(t.rows[0][1], Cell::Real(_)));
        assert!(matches!(t.rows[0][3], Cell::Int(1)));
        assert!(matches!(t.rows[0][4], Cell::Bool(true)));
        assert!(matches!(t.rows[0][5], Cell::Array(_)));
        assert!(matches!(t.rows[2][5], Cell::Null));
    }

    #[test]
    fn mapping_follows_direct_mapping_rules() {
        let mut db = Ssdm::open(Backend::Memory);
        let report = db
            .load_csv("bistab", CSV, Some("task"), "http://db/")
            .unwrap();
        assert_eq!(report.subjects, 3);
        // Keyed rows become URIs; the Fig. 2 spreadsheet shape appears
        // as one subject per task with one property per variable.
        let rows = db
            .query(
                r#"SELECT ?k (array_sum(?tr) AS ?s) WHERE {
                     <http://db/bistab/1> <http://db/bistab#k_1> ?k ;
                                          <http://db/bistab#trajectory> ?tr
                   }"#,
            )
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "32.159");
        assert_eq!(rows[0][1].as_ref().unwrap().to_string(), "100");
        // Null cells emit no triple.
        let r = db
            .query(r#"SELECT ?tr WHERE { <http://db/bistab/3> <http://db/bistab#trajectory> ?tr }"#)
            .unwrap()
            .into_rows()
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn keyless_rows_become_blank_nodes() {
        let mut db = Ssdm::open(Backend::Memory);
        db.load_csv("log", "event,level\nboot,1\ncrash,2\n", None, "http://db/")
            .unwrap();
        let rows = db
            .query(r#"SELECT ?s WHERE { ?s a <http://db/log> FILTER (isBlank(?s)) }"#)
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn class_typing_queryable() {
        let mut db = Ssdm::open(Backend::Memory);
        db.load_csv("bistab", CSV, Some("task"), "http://db/")
            .unwrap();
        let rows = db
            .query(r#"SELECT (COUNT(?t) AS ?n) WHERE { ?t a <http://db/bistab> }"#)
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "3");
    }

    #[test]
    fn names_go_into_iris_and_labels_escaped_only_where_they_must() {
        // Names of bytes an IRI holds, with no `%`, are used as they are.
        assert_eq!(iri_part("k_1.x-é~"), "k_1.x-é~");
        assert_eq!(iri_part("first name"), "first%20name");
        assert_eq!(iri_part("a>b\\c\t%"), "a%3Eb%5Cc%09%25");
        assert_ne!(iri_part("a b"), iri_part("a%20b"));
        let label = |s: &str| escaped(s, b'.', |b| !is_name_byte(b));
        assert_eq!(label("log_2-x"), "log_2-x");
        assert_eq!(label("odd table.é"), "odd.20table.2E.C3.A9");
    }

    #[test]
    fn quoted_cells_and_escapes() {
        let t = parse_csv("x", "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n", None).unwrap();
        assert!(matches!(&t.rows[0][0], Cell::Str(s) if s == "hello, world"));
        assert!(matches!(&t.rows[0][1], Cell::Str(s) if s == "say \"hi\""));
    }

    #[test]
    fn ragged_csv_rejected() {
        assert!(parse_csv("x", "a,b\n1\n", None).is_err());
        assert!(parse_csv("x", "", None).is_err());
        assert!(parse_csv("x", "a,b\n1,2\n", Some("nope")).is_err());
    }
}
