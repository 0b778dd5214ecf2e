//! `--check-repeat`: do two sets of runs of the same build agree on
//! every end-to-end metric within its bound? The second set is either
//! run back to back or loaded from a `--save` file of an earlier
//! invocation.

use std::fmt::Write as _;
use std::path::Path;

use crate::metrics::end_to_end;
use crate::stats::Json;

/// The end-to-end values of one set of runs, with what produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Saved {
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Workload name → (metric name, value) in table order.
    pub workloads: Vec<(String, Vec<(String, f64)>)>,
}

impl Saved {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("quick", Json::Bool(self.quick)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            (
                "workloads",
                Json::obj(self.workloads.iter().map(|(name, values)| {
                    (
                        name.clone(),
                        Json::obj(values.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
                    )
                })),
            ),
        ])
    }

    pub fn load(path: &Path) -> Result<Saved, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Saved::from_json(&json).ok_or_else(|| format!("{}: not a --save file", path.display()))
    }

    fn from_json(json: &Json) -> Option<Saved> {
        let Json::Obj(workloads) = json.get("workloads")? else {
            return None;
        };
        let workloads = workloads
            .iter()
            .map(|(name, values)| {
                let Json::Obj(values) = values else {
                    return None;
                };
                let values = values
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect::<Option<_>>()?;
                Some((name.clone(), values))
            })
            .collect::<Option<_>>()?;
        Some(Saved {
            quick: json.get("quick")?.as_bool()?,
            seed: json.get("seed")?.as_f64()? as u64,
            seconds: json.get("seconds")?.as_f64()?,
            workloads,
        })
    }
}

pub struct Report {
    pub text: String,
    pub within_bounds: bool,
}

/// Compare two sets metric by metric. Refuses (`Err`) to compare sets
/// that were not measured the same way — above all a `--quick` smoke
/// run against a full one.
pub fn compare(first: &Saved, second: &Saved) -> Result<Report, String> {
    if first.quick != second.quick {
        return Err("one set is a --quick smoke run and the other is not".into());
    }
    if first.seconds != second.seconds || first.seed != second.seed {
        return Err(format!(
            "the sets differ in seed or duration ({} / {} s against {} / {} s)",
            first.seed, first.seconds, second.seed, second.seconds
        ));
    }
    let names = |s: &Saved| {
        s.workloads
            .iter()
            .map(|(n, _)| n.clone())
            .collect::<Vec<_>>()
    };
    if names(first) != names(second) {
        return Err("the sets cover different workloads".into());
    }

    let mut text = String::new();
    let mut within_bounds = true;
    let _ = writeln!(
        text,
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((workload, a), (_, b)) in first.workloads.iter().zip(&second.workloads) {
        for def in end_to_end() {
            let find = |values: &[(String, f64)]| {
                values.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v)
            };
            let (Some(a), Some(b)) = (find(a), find(b)) else {
                return Err(format!("{workload} lacks {} in one set", def.name));
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let diff = (b - a).abs() / a.abs();
            // Also false for a NaN difference.
            let agrees = diff <= bound;
            within_bounds &= agrees;
            let _ = writeln!(
                text,
                "{workload:<12} {:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{}",
                def.name,
                diff * 100.0,
                bound * 100.0,
                if agrees { "" } else { "  DISAGREES" }
            );
        }
    }
    Ok(Report {
        text,
        within_bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(quick: bool, throughput: f64) -> Saved {
        let values = end_to_end()
            .into_iter()
            .map(|def| {
                let v = if def.name == "throughput_rps" {
                    throughput
                } else {
                    10.0
                };
                (def.name, v)
            })
            .collect();
        Saved {
            quick,
            seed: 1,
            seconds: if quick { 2.0 } else { 10.0 },
            workloads: vec![("http_point".into(), values)],
        }
    }

    #[test]
    fn agreement_within_the_bound_passes_and_beyond_it_fails() {
        let bound = end_to_end()
            .into_iter()
            .find(|d| d.name == "throughput_rps")
            .and_then(|d| d.bound)
            .unwrap();
        let base = set(false, 1000.0);
        let near = compare(&base, &set(false, 1000.0 * (1.0 + bound * 0.5))).unwrap();
        assert!(near.within_bounds, "{}", near.text);
        let far = compare(&base, &set(false, 1000.0 * (1.0 + bound * 1.5))).unwrap();
        assert!(!far.within_bounds);
        assert!(far.text.contains("DISAGREES"));
    }

    #[test]
    fn a_quick_run_is_never_compared_with_a_full_one() {
        assert!(compare(&set(true, 1000.0), &set(false, 1000.0)).is_err());
    }

    #[test]
    fn a_saved_set_reads_back_unchanged() {
        let saved = set(false, 1234.5678);
        let text = saved.to_json().render();
        assert_eq!(Saved::from_json(&Json::parse(&text).unwrap()), Some(saved));
        assert_eq!(
            Saved::from_json(&Json::parse("{\"quick\": true}").unwrap()),
            None
        );
    }
}
