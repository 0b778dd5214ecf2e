//! Snapshot compatibility: files written before the graphs of an
//! instance shared one dictionary still load and answer the same.
//!
//! `tests/golden/named_graphs.ssdm` holds a default graph, two named
//! graphs that share IRIs with it, one externalized array (its chunks
//! in `named_graphs.chunks/`, a file back-end directory) and one
//! consolidated collection per graph that has one.
//! `named_graphs.answers` lists a query after each `# ` and the rows
//! it answered, one line per row, at the same commit.
//! `default_only.ssdm` is a default-graph-only snapshot that load and
//! save reproduced byte for byte then, and must still. Never
//! re-generate these files from the code under test.

use std::path::{Path, PathBuf};

use ssdm::{Backend, Ssdm};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssdm-golden-{name}-{}", std::process::id()))
}

/// A query's rows, one line each, cells separated by spaces.
fn answer(db: &mut Ssdm, query: &str) -> Vec<String> {
    let rows = db
        .query(&format!("PREFIX ex: <http://e#> {query}"))
        .unwrap()
        .into_rows()
        .unwrap();
    let line = |row: Vec<Option<scisparql::Value>>| {
        let cells = row.iter().map(|c| c.as_ref().map(|v| v.to_string()));
        cells
            .map(Option::unwrap_or_default)
            .collect::<Vec<_>>()
            .join(" ")
    };
    rows.into_iter().map(line).collect()
}

#[test]
fn named_graph_snapshot_answers_as_when_written() {
    // The file store may write to its directory: work on a copy.
    let chunks = tmp("chunks");
    std::fs::create_dir_all(&chunks).unwrap();
    for entry in std::fs::read_dir(golden("named_graphs.chunks")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), chunks.join(entry.file_name())).unwrap();
    }
    let mut db = Ssdm::open(Backend::File(chunks.clone()));
    db.load_snapshot(&golden("named_graphs.ssdm")).unwrap();
    assert_eq!(db.dataset.named_graphs.len(), 2);

    let expected = std::fs::read_to_string(golden("named_graphs.answers")).unwrap();
    let mut sections = 0;
    for section in expected.split("# ").filter(|s| !s.is_empty()) {
        let (query, rows) = section.split_once('\n').unwrap();
        let rows: Vec<&str> = rows.lines().collect();
        assert_eq!(answer(&mut db, query), rows, "{query}");
        sections += 1;
    }
    assert_eq!(sections, 8);
    std::fs::remove_dir_all(&chunks).ok();
}

#[test]
fn default_graph_snapshot_resaves_byte_identically() {
    let path = tmp("default-only.ssdm");
    let mut db = Ssdm::open(Backend::Memory);
    db.load_snapshot(&golden("default_only.ssdm")).unwrap();
    db.save_snapshot(&path).unwrap();
    let resaved = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        String::from_utf8(resaved).unwrap(),
        std::fs::read_to_string(golden("default_only.ssdm")).unwrap()
    );
}
