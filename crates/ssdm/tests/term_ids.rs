//! Term ids are assigned in load order, and loading in batches keeps
//! that order: a seeded BISTAB load and a Turtle load must give every
//! term the id it had when each triple went in on its own. The digests
//! below were recorded from that one-triple-at-a-time loader; answers,
//! unordered result order, snapshots and `EXPLAIN` output all follow
//! from the ids, so a batch loader that renumbers shows up here first.

use ssdm::bistab::{load_bistab, BistabConfig};
use ssdm::{Backend, Ssdm};

/// FNV-1a over the dictionary's terms in id order, then the graph's
/// triples in SPO order as ids.
fn digest(db: &Ssdm) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let graph = &db.dataset.graph;
    let dict = graph.dictionary();
    for id in 0..dict.len() {
        eat(format!("{:?}\n", dict.term(ssdm_rdf::TermId(id as u32))).as_bytes());
    }
    for t in graph.iter() {
        for id in [t.s, t.p, t.o] {
            eat(&id.0.to_le_bytes());
        }
    }
    h
}

#[test]
fn a_seeded_bistab_load_assigns_the_recorded_ids() {
    let mut db = Ssdm::open(Backend::Memory);
    load_bistab(
        &mut db,
        &BistabConfig {
            tasks: 2_000,
            realizations: 4,
            trajectory_len: 16,
            seed: 3,
        },
    )
    .unwrap();
    assert_eq!(db.dataset.graph.len(), 2_000 * 8);
    assert_eq!(
        digest(&db),
        0xc140_17bb_d47a_0e9c,
        "digest {:#x}",
        digest(&db)
    );
}

/// Prefixes, labelled and anonymous blank nodes, property lists, a
/// repeated triple, numeric collections that consolidate into arrays,
/// and mixed or ragged ones that stay rdf lists.
const DOC: &str = r#"
@prefix ex: <http://example.org/> .
ex:a ex:name "Alice" ; ex:age 31 ; ex:knows _:b , [ ex:name "Carol" ] .
_:b ex:name "Bob"@en ; ex:score 2.5 , 7 .
ex:m ex:data ((1 2) (3 4)) ; ex:tags ("x" 1 ex:a) ; ex:ragged ((1) (2 3)) .
ex:a ex:age 31 .
ex:v ex:data (0.5 -1 2e3) ; a ex:Vector .
[] ex:note "anonymous subject" ; ex:list () .
"#;

#[test]
fn a_turtle_load_assigns_the_recorded_ids() {
    let mut db = Ssdm::open(Backend::Memory);
    let added = db.load_turtle(DOC).unwrap();
    let cube = ssdm::datacube::generate_datacube(&[3, 4]);
    let added_cube = db.load_turtle(&cube).unwrap();
    assert_eq!((added, added_cube), (25, 49), "added");
    assert_eq!(
        digest(&db),
        0x3316_3319_d796_6cc6,
        "digest {:#x}",
        digest(&db)
    );
}
