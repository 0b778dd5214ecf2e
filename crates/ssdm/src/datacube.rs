//! RDF Data Cube vocabulary support (thesis §2.3.5.2, §5.3.3).
//!
//! The W3C Data Cube vocabulary represents multidimensional statistical
//! data as one `qb:Observation` node *per cell*, each carrying its
//! dimension coordinates and measure value — for a d-dimensional cube
//! of N cells that is `N × (d + 2)` triples plus metadata. SSDM
//! *consolidates* such datasets: the observations collapse into one
//! numeric array per measure, plus one dictionary vector per dimension
//! mapping 1-based subscripts to dimension values, "drastically reducing
//! the graph size ... while preserving all information therein".

use ssdm_array::{Num, NumArray};
use ssdm_rdf::{Graph, Term, TermId, Triple};

pub const QB: &str = "http://purl.org/linked-data/cube#";

/// What one consolidation pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CubeReport {
    pub datasets: usize,
    pub observations_removed: usize,
    pub triples_removed: usize,
    pub arrays_created: usize,
}

fn qb(local: &str) -> Term {
    Term::uri(format!("{QB}{local}"))
}

/// SSDM vocabulary for consolidated cubes.
pub fn ssdm_measure_array() -> Term {
    Term::uri("urn:ssdm:datacube:measureArray")
}

pub fn ssdm_dimension_dict(dim_index: usize) -> Term {
    Term::uri(format!("urn:ssdm:datacube:dimension{dim_index}"))
}

/// Consolidate every `qb:DataSet` in the graph whose observations form
/// a complete dense cube with numeric measures. Non-conforming
/// datasets are left untouched.
pub fn consolidate_datacube(graph: &mut Graph) -> CubeReport {
    let mut report = CubeReport::default();
    let Some(qb_dataset_p) = graph.dictionary().lookup(&qb("dataSet")) else {
        return report;
    };
    let Some(measure_p) = graph.dictionary().lookup(&qb("measure")) else {
        return report;
    };

    // Group observations by their target dataset.
    let mut by_dataset: std::collections::HashMap<TermId, Vec<TermId>> =
        std::collections::HashMap::new();
    for t in graph.iter() {
        if t.p == qb_dataset_p {
            by_dataset.entry(t.o).or_default().push(t.s);
        }
    }

    for (dataset, observations) in by_dataset {
        if observations.is_empty() {
            continue;
        }
        // Discover the dimension properties: every non-measure,
        // non-dataSet property shared by observations.
        let mut dim_props: Vec<TermId> = Vec::new();
        {
            let first_obs = observations[0];
            for t in graph.match_pattern(Some(first_obs), None, None) {
                if t.p != qb_dataset_p && t.p != measure_p && !dim_props.contains(&t.p) {
                    dim_props.push(t.p);
                }
            }
        }
        dim_props.sort();
        if dim_props.is_empty() {
            continue;
        }

        // Collect per-dimension distinct values and per-observation
        // coordinates + measure.
        let mut dim_values: Vec<Vec<TermId>> = vec![Vec::new(); dim_props.len()];
        let mut cells: Vec<(Vec<TermId>, Num)> = Vec::with_capacity(observations.len());
        let mut ok = true;
        for &obs in &observations {
            let mut coord = Vec::with_capacity(dim_props.len());
            for (d, &p) in dim_props.iter().enumerate() {
                let mut vals = graph.match_pattern(Some(obs), Some(p), None);
                let Some(v) = vals.next() else {
                    ok = false;
                    break;
                };
                if vals.next().is_some() {
                    ok = false;
                    break;
                }
                if !dim_values[d].contains(&v.o) {
                    dim_values[d].push(v.o);
                }
                coord.push(v.o);
            }
            if !ok {
                break;
            }
            let mut measures = graph.match_pattern(Some(obs), Some(measure_p), None);
            let Some(m) = measures.next() else {
                ok = false;
                break;
            };
            if measures.next().is_some() {
                ok = false;
                break;
            }
            let Some(num) = graph.term(m.o).as_num() else {
                ok = false;
                break;
            };
            cells.push((coord, num));
        }
        if !ok {
            continue;
        }
        // Order dimension values deterministically (by term order).
        for vals in &mut dim_values {
            vals.sort_by(|a, b| graph.term(*a).order_cmp(graph.term(*b)));
        }
        let shape: Vec<usize> = dim_values.iter().map(Vec::len).collect();
        let count: usize = shape.iter().product();
        if count != cells.len() {
            continue; // sparse cube: leave as observations
        }
        // Fill the dense array.
        let mut data = vec![f64::NAN; count];
        let mut is_int = true;
        let strides: Vec<usize> = {
            let mut s = vec![1usize; shape.len()];
            for d in (0..shape.len().saturating_sub(1)).rev() {
                s[d] = s[d + 1] * shape[d + 1];
            }
            s
        };
        let mut filled = 0usize;
        for (coord, num) in &cells {
            let mut addr = 0usize;
            for (d, c) in coord.iter().enumerate() {
                let idx = dim_values[d]
                    .iter()
                    .position(|v| v == c)
                    .expect("value collected above");
                addr += idx * strides[d];
            }
            if data[addr].is_nan() {
                filled += 1;
            }
            if matches!(num, Num::Real(_)) {
                is_int = false;
            }
            data[addr] = num.as_f64();
        }
        if filled != count {
            continue; // duplicate coordinates
        }
        let array = if is_int {
            NumArray::from_i64_shaped(data.iter().map(|&v| v as i64).collect(), &shape)
        } else {
            NumArray::from_f64_shaped(data, &shape)
        }
        .expect("shape matches by construction");

        // Rewrite: remove observation triples, attach the array and the
        // dimension dictionaries to the dataset node.
        let doomed: Vec<Triple> = graph
            .iter()
            .filter(|t| observations.contains(&t.s))
            .collect();
        for t in &doomed {
            graph.remove_ids(t.s, t.p, t.o);
        }
        report.triples_removed += doomed.len();
        report.observations_removed += observations.len();

        let arr_id = graph.intern(Term::Array(array));
        let measure_array_p = graph.intern(ssdm_measure_array());
        let mut added = vec![Triple {
            s: dataset,
            p: measure_array_p,
            o: arr_id,
        }];
        for (d, vals) in dim_values.iter().enumerate() {
            // Numeric dimensions become numeric dictionary vectors;
            // others become rdf lists of their values.
            let dict_p = graph.intern(ssdm_dimension_dict(d + 1));
            let all_numeric = vals.iter().all(|&v| graph.term(v).as_num().is_some());
            if all_numeric {
                let nums: Vec<Num> = vals
                    .iter()
                    .map(|&v| graph.term(v).as_num().expect("checked"))
                    .collect();
                let dict =
                    NumArray::from_data(ssdm_array::ArrayData::from_nums(&nums), &[nums.len()])
                        .expect("vector shape");
                let dict_id = graph.intern(Term::Array(dict));
                added.push(Triple {
                    s: dataset,
                    p: dict_p,
                    o: dict_id,
                });
            } else {
                // Keep a linked list of the dimension's values.
                let first = graph.intern(Term::uri(ssdm_rdf::RDF_FIRST));
                let rest = graph.intern(Term::uri(ssdm_rdf::RDF_REST));
                let nil = graph.intern(Term::uri(ssdm_rdf::RDF_NIL));
                let mut cells_ids = Vec::with_capacity(vals.len());
                for _ in vals {
                    cells_ids.push(graph.dictionary_mut().fresh_blank());
                }
                for (i, &v) in vals.iter().enumerate() {
                    let next = cells_ids.get(i + 1).copied().unwrap_or(nil);
                    added.push(Triple {
                        s: cells_ids[i],
                        p: first,
                        o: v,
                    });
                    added.push(Triple {
                        s: cells_ids[i],
                        p: rest,
                        o: next,
                    });
                }
                added.push(Triple {
                    s: dataset,
                    p: dict_p,
                    o: cells_ids[0],
                });
            }
        }
        graph.extend_ids(&added);
        report.arrays_created += 1;
        report.datasets += 1;
    }
    report
}

/// Generate a synthetic dense Data Cube dataset in Turtle, with the
/// given dimension extents (experiment E6). Dimension values are
/// integers `1..=extent`; the measure is a deterministic function of
/// the coordinates.
pub fn generate_datacube(dims: &[usize]) -> String {
    let mut out = String::new();
    out.push_str(&format!("@prefix qb: <{QB}> .\n"));
    out.push_str("@prefix ex: <http://example.org/cube/> .\n");
    out.push_str("ex:ds a qb:DataSet .\n");
    let count: usize = dims.iter().product();
    let mut coord = vec![1usize; dims.len()];
    for obs in 0..count {
        out.push_str(&format!("ex:obs{obs} qb:dataSet ex:ds"));
        let mut measure = 0usize;
        for (d, &c) in coord.iter().enumerate() {
            out.push_str(&format!(" ; ex:dim{} {}", d + 1, c));
            measure = measure * 100 + c;
        }
        out.push_str(&format!(" ; qb:measure {measure} .\n"));
        for d in (0..dims.len()).rev() {
            coord[d] += 1;
            if coord[d] <= dims[d] {
                break;
            }
            coord[d] = 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_rdf::turtle;

    #[test]
    fn generated_cube_consolidates() {
        let text = generate_datacube(&[3, 4]);
        let mut g = Graph::new();
        turtle::parse_into(&mut g, &text).unwrap();
        // 12 observations x 4 triples + 1 type triple.
        assert_eq!(g.len(), 12 * 4 + 1);
        let report = consolidate_datacube(&mut g);
        assert_eq!(report.datasets, 1);
        assert_eq!(report.observations_removed, 12);
        // Remaining: type + measure array + 2 dimension dictionaries.
        assert_eq!(g.len(), 4);
        // Check the array content: measure at (2,3) = 2*100+3 = 203.
        let map = g
            .dictionary()
            .lookup(&ssdm_measure_array())
            .expect("measure array property");
        let t = g.match_pattern(None, Some(map), None).next().unwrap();
        let arr = g.term(t.o).as_array().unwrap();
        assert_eq!(arr.shape(), vec![3, 4]);
        assert_eq!(arr.get(&[1, 2]).unwrap().as_i64(), 203);
    }

    #[test]
    fn sparse_cube_left_alone() {
        let mut text = generate_datacube(&[2, 2]);
        // Drop one observation to make the cube sparse.
        let cut = text.find("ex:obs3").unwrap();
        text.truncate(cut);
        let mut g = Graph::new();
        turtle::parse_into(&mut g, &text).unwrap();
        let before = g.len();
        let report = consolidate_datacube(&mut g);
        assert_eq!(report.datasets, 0);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn non_numeric_measure_left_alone() {
        let text = format!(
            r#"@prefix qb: <{QB}> .
               @prefix ex: <http://example.org/> .
               ex:o1 qb:dataSet ex:ds ; ex:dim1 1 ; qb:measure "high" .
               ex:o2 qb:dataSet ex:ds ; ex:dim1 2 ; qb:measure "low" ."#
        );
        let mut g = Graph::new();
        turtle::parse_into(&mut g, &text).unwrap();
        let before = g.len();
        consolidate_datacube(&mut g);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn three_dimensional_cube() {
        let text = generate_datacube(&[2, 3, 2]);
        let mut g = Graph::new();
        turtle::parse_into(&mut g, &text).unwrap();
        let report = consolidate_datacube(&mut g);
        assert_eq!(report.arrays_created, 1);
        let map = g.dictionary().lookup(&ssdm_measure_array()).unwrap();
        let t = g.match_pattern(None, Some(map), None).next().unwrap();
        let arr = g.term(t.o).as_array().unwrap();
        assert_eq!(arr.shape(), vec![2, 3, 2]);
        assert_eq!(
            arr.get(&[1, 2, 1]).unwrap().as_i64(),
            2 * 10000 + 3 * 100 + 2
        );
    }
}
