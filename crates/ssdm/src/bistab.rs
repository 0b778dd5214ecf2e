//! The BISTAB application (thesis §6.4).
//!
//! BISTAB is a computational-biology parameter study of a bistable
//! genetic toggle switch: thousands of stochastic-simulation *tasks*,
//! each defined by reaction-rate parameters `k_1`, `k_a`, `k_d`, `k_4`,
//! a `realization` number, and producing a `result` flag plus numeric
//! trajectory arrays (Fig. 2/3: tasks × variables, with array-valued
//! instances). The original dataset is not redistributable, so this
//! module generates a synthetic instance with the same schema,
//! cardinalities and value distributions, modelled as *RDF with Arrays*
//! exactly as §6.4.2 describes: one node per task, one property per
//! variable, trajectory arrays as values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scisparql::QueryError;
use ssdm_array::NumArray;
use ssdm_rdf::{Term, Triple};

use crate::Ssdm;

pub const NS: &str = "http://udbl.uu.se/bistab#";

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct BistabConfig {
    /// Number of simulation tasks.
    pub tasks: usize,
    /// Realizations per parameter point.
    pub realizations: usize,
    /// Trajectory length (time steps) per task.
    pub trajectory_len: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for BistabConfig {
    fn default() -> Self {
        BistabConfig {
            tasks: 100,
            realizations: 4,
            trajectory_len: 256,
            seed: 7,
        }
    }
}

fn uri(local: &str) -> Term {
    Term::uri(format!("{NS}{local}"))
}

/// Load a synthetic BISTAB experiment into an SSDM instance. Returns
/// the number of tasks created. Trajectory arrays follow the dataset's
/// externalization threshold (call
/// [`Ssdm::set_externalize_threshold`] first to store them externally).
pub fn load_bistab(db: &mut Ssdm, config: &BistabConfig) -> Result<usize, QueryError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let g = &mut db.dataset.graph;
    // Each IRI is interned once, where the first task first names it,
    // so every term gets the id one insert at a time would give it.
    let mut head = None;
    let mut props = PROPERTIES.map(|name| (name, None));
    let mut triples = Vec::with_capacity(config.tasks * (PROPERTIES.len() + 1));
    for t in 0..config.tasks {
        // Parameter point (log-uniform-ish positive rates, like the
        // thesis' example magnitudes: k_1 ~ 30, k_a ~ 70, k_d ~ 1e8).
        let k1 = 10.0 + rng.gen::<f64>() * 40.0;
        let ka = 30.0 + rng.gen::<f64>() * 60.0;
        let kd = 1.0e8 * (0.5 + rng.gen::<f64>() * 9.5);
        let k4 = 40.0 + rng.gen::<f64>() * 40.0;
        let realization = (t % config.realizations) as i64 + 1;
        // Simulate a toggle-switch trajectory: a birth–death walk that
        // settles into one of two stable levels; `result` records
        // whether it switched.
        let high = k1 * 4.0;
        let low = k4 / 8.0;
        let switched = rng.gen::<f64>() < 0.5;
        let target = if switched { high } else { low };
        let mut level = (high + low) / 2.0;
        let mut traj = Vec::with_capacity(config.trajectory_len);
        for _ in 0..config.trajectory_len {
            let noise = (rng.gen::<f64>() - 0.5) * target.max(1.0) * 0.1;
            level += (target - level) * 0.1 + noise;
            traj.push(level.max(0.0));
        }
        let values = [
            Term::double(k1),
            Term::double(ka),
            Term::double(kd),
            Term::double(k4),
            Term::integer(realization),
            Term::integer(i64::from(switched)),
            Term::Array(NumArray::from_f64(traj)),
        ];

        let (experiment, task_p) =
            *head.get_or_insert_with(|| (g.intern(uri("experiment1")), g.intern(uri("task"))));
        let task = g.intern(uri(&format!("task{t}")));
        triples.push(Triple {
            s: experiment,
            p: task_p,
            o: task,
        });
        for ((name, id), value) in props.iter_mut().zip(values) {
            let p = *id.get_or_insert_with(|| g.intern(uri(name)));
            let o = g.intern(value);
            triples.push(Triple { s: task, p, o });
        }
    }
    g.extend_ids(&triples);
    db.dataset.externalize_large_arrays()?;
    Ok(config.tasks)
}

/// The per-task properties, in the order a task's triples are made.
const PROPERTIES: [&str; 7] = [
    "k_1",
    "k_a",
    "k_d",
    "k_4",
    "realization",
    "result",
    "trajectory",
];

/// The four BISTAB application queries (§6.4.4), parameterized by the
/// vocabulary prefix. Q1 filters on metadata only; Q2 fetches single
/// array elements; Q3 aggregates an array slice per matching task; Q4
/// combines a metadata join with whole-trajectory aggregation.
pub fn queries() -> Vec<(&'static str, String)> {
    let prologue = format!("PREFIX b: <{NS}>\n");
    vec![
        (
            "Q1",
            format!(
                "{prologue}SELECT ?task ?k1 WHERE {{
                   ?task b:k_1 ?k1 ; b:result 1 .
                   FILTER (?k1 > 30)
                 }}"
            ),
        ),
        (
            "Q2",
            format!(
                "{prologue}SELECT ?task (?tr[1] AS ?first) (?tr[-1] AS ?last) WHERE {{
                   ?task b:trajectory ?tr ; b:realization 1 .
                 }}"
            ),
        ),
        (
            "Q3",
            format!(
                "{prologue}SELECT ?task (array_avg(?tr[1:32]) AS ?early) WHERE {{
                   ?task b:trajectory ?tr ; b:result 1 .
                 }}"
            ),
        ),
        (
            "Q4",
            format!(
                "{prologue}SELECT (AVG(?m) AS ?avgmax) (COUNT(?task) AS ?n) WHERE {{
                   ?task b:k_1 ?k1 ; b:trajectory ?tr .
                   FILTER (?k1 > 25)
                   BIND (array_max(?tr) AS ?m)
                 }}"
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    fn small() -> BistabConfig {
        BistabConfig {
            tasks: 20,
            realizations: 4,
            trajectory_len: 64,
            seed: 1,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = Ssdm::open(Backend::Memory);
        let mut b = Ssdm::open(Backend::Memory);
        load_bistab(&mut a, &small()).unwrap();
        load_bistab(&mut b, &small()).unwrap();
        assert_eq!(a.dataset.graph.len(), b.dataset.graph.len());
        let q = "PREFIX b: <http://udbl.uu.se/bistab#>
                 SELECT (SUM(?k) AS ?s) WHERE { ?t b:k_1 ?k }";
        let ra = a.query(q).unwrap().into_rows().unwrap();
        let rb = b.query(q).unwrap().into_rows().unwrap();
        assert_eq!(
            ra[0][0].as_ref().unwrap().to_string(),
            rb[0][0].as_ref().unwrap().to_string()
        );
    }

    #[test]
    fn schema_shape() {
        let mut db = Ssdm::open(Backend::Memory);
        load_bistab(&mut db, &small()).unwrap();
        // 8 triples per task (incl. experiment membership).
        assert_eq!(db.dataset.graph.len(), 20 * 8);
    }

    #[test]
    fn all_queries_run_on_all_backends() {
        for backend in [Backend::Memory, Backend::Relational] {
            let mut db = Ssdm::open(backend);
            db.set_externalize_threshold(32, 128);
            load_bistab(&mut db, &small()).unwrap();
            for (name, q) in queries() {
                let rows = db
                    .query(&q)
                    .unwrap_or_else(|e| panic!("{name} failed: {e}"))
                    .into_rows()
                    .unwrap();
                assert!(!rows.is_empty(), "{name} returned no rows");
            }
        }
    }

    #[test]
    fn externalized_matches_resident_results() {
        let mut resident = Ssdm::open(Backend::Memory);
        load_bistab(&mut resident, &small()).unwrap();
        let mut external = Ssdm::open(Backend::Relational);
        external.set_externalize_threshold(16, 64);
        load_bistab(&mut external, &small()).unwrap();
        for (name, q) in queries() {
            let a = resident.query(&q).unwrap().into_rows().unwrap();
            let b = external.query(&q).unwrap().into_rows().unwrap();
            assert_eq!(a.len(), b.len(), "{name} row count");
            let render = |rows: &Vec<Vec<Option<scisparql::Value>>>| {
                let mut v: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|c| c.as_ref().map(|x| x.to_string()).unwrap_or_default())
                            .collect::<Vec<_>>()
                            .join("|")
                    })
                    .collect();
                v.sort();
                v
            };
            // Real aggregates fold pairwise over resident lanes but
            // per-chunk on the streamed path, so sums/averages may
            // differ in the last few ulps (DESIGN.md, compute layer).
            // Everything non-numeric must match exactly; numbers match
            // to a tight relative tolerance.
            let (ra, rb) = (render(&a), render(&b));
            for (x, y) in ra.iter().zip(&rb) {
                if x == y {
                    continue;
                }
                let (cx, cy): (Vec<&str>, Vec<&str>) =
                    (x.split('|').collect(), y.split('|').collect());
                assert_eq!(cx.len(), cy.len(), "{name} column count");
                for (fx, fy) in cx.iter().zip(&cy) {
                    if fx == fy {
                        continue;
                    }
                    let (px, py): (f64, f64) = (
                        fx.parse().unwrap_or_else(|_| {
                            panic!("{name}: non-numeric field differs: {fx} vs {fy}")
                        }),
                        fy.parse().unwrap_or_else(|_| {
                            panic!("{name}: non-numeric field differs: {fx} vs {fy}")
                        }),
                    );
                    let scale = px.abs().max(py.abs()).max(1.0);
                    assert!(
                        (px - py).abs() <= scale * 1e-12,
                        "{name}: {fx} vs {fy} beyond fold-order tolerance"
                    );
                }
            }
        }
    }
}
