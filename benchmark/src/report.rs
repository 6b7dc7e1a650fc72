//! Results: the per-workload record, its JSON forms, and the metric names
//! `BENCHMARK.json` declares.

use recharge_telemetry::json::Json;

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: [&str; 4] = ["run_s", "rack_steps_per_s", "setup_s", "peak_rss_kb"];

/// Per-layer metrics, measured by the traced driver (`--trace 1`).
pub const PER_LAYER: [&str; 24] = [
    "dynamo.backend_s",
    "trace.load_s",
    "trace.load_calls",
    "trace.load_ns",
    "dynamo.step_s",
    "dynamo.step_ns",
    "dynamo.active_frac",
    "dynamo.readings_s",
    "dynamo.readings_rows",
    "dynamo.controller_s",
    "dynamo.controller_us_p50",
    "dynamo.controller_us_p99",
    "dynamo.controller_ticks",
    "dynamo.bus_reads",
    "dynamo.bus_commands",
    "dynamo.overrides",
    "dynamo.throttled",
    "power.breaker_s",
    "sim.bookkeeping_s",
    "sim.interval_us_p50",
    "sim.interval_us_p99",
    "traced.wall_s",
    "traced.unattributed_s",
    "traced.overhead_frac",
];

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one child measured for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    /// Runs made, checks included.
    pub attempted: u64,
    /// Runs that panicked or disagreed with their reference, and failed
    /// gates.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64) -> Self {
        Outcome {
            workload: workload.to_owned(),
            seed,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts one attempt; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("{}: FAILED: {what}", self.workload);
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// One line of JSON: how a child hands its outcome to the parent.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(metric_json).collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads what [`to_json`](Self::to_json) wrote.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key:?}"));
        let count = |key: &str| -> Result<u64, String> {
            let n = field(key)?
                .as_num()
                .ok_or(format!("{key:?} is not a number"))?;
            Ok(n as u64)
        };
        let Json::Obj(pairs) = field("metrics")? else {
            return Err("\"metrics\" is not an object".to_owned());
        };
        let metrics = pairs
            .iter()
            .map(|(name, m)| Metric {
                name: name.clone(),
                value: m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            })
            .collect();
        Ok(Outcome {
            workload: field("workload")?.as_str().unwrap_or("").to_owned(),
            seed: count("seed")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

fn metric_json(m: &Metric) -> String {
    let value = if m.value.is_finite() {
        m.value.to_string()
    } else {
        "null".to_owned()
    };
    format!(
        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
        m.name, m.unit
    )
}

/// The result line: `correct`, `attempted`, `failed` and the named metrics.
/// With more than one workload each name is prefixed `<workload>/`.
pub fn result_line(outcomes: &[Outcome], names: &[&str]) -> String {
    let prefix = outcomes.len() > 1;
    let mut metrics = Vec::new();
    for outcome in outcomes {
        for name in names {
            if let Some(m) = outcome.get(name) {
                let name = if prefix {
                    format!("{}/{}", outcome.workload, m.name)
                } else {
                    m.name.clone()
                };
                metrics.push(metric_json(&Metric { name, ..m.clone() }));
            }
        }
    }
    let correct = !outcomes.is_empty() && outcomes.iter().all(Outcome::correct);
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// The `--json` document: every metric of every workload.
pub fn document(outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes.iter().map(Outcome::to_json).collect();
    format!("{{\"workloads\": [\n{}\n]}}\n", workloads.join(",\n"))
}

/// Human-readable lines for one workload.
pub fn print(outcome: &Outcome) {
    println!(
        "{} (seed {}): {} attempted, {} failed",
        outcome.workload, outcome.seed, outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recharge_telemetry::json;

    fn sample() -> Outcome {
        let mut out = Outcome::new("msb_paper", 7);
        out.check(true, "reference");
        out.push("run_s", 0.25, "s");
        out.push("peak_rss_kb", 1024.0, "KiB");
        out.push("nan", f64::NAN, "s");
        out
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let out = sample();
        let back = Outcome::from_json(&json::parse(&out.to_json()).unwrap()).unwrap();
        assert_eq!(back.workload, "msb_paper");
        assert_eq!((back.seed, back.attempted, back.failed), (7, 1, 0));
        assert_eq!(back.metrics[..2], out.metrics[..2]);
        assert!(back.metrics[2].value.is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&[sample()], &["run_s"]);
        let doc = json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let run_s = doc.get("metrics").unwrap().get("run_s").unwrap();
        assert_eq!(run_s.get("value").unwrap().as_num(), Some(0.25));
        assert_eq!(run_s.get("unit").unwrap().as_str(), Some("s"));
        assert!(doc.get("metrics").unwrap().get("peak_rss_kb").is_none());
    }

    #[test]
    fn a_failure_makes_the_line_incorrect() {
        let mut out = sample();
        out.check(false, "mismatch");
        let doc = json::parse(&result_line(&[out], &["run_s"])).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").unwrap().as_num(), Some(1.0));
    }
}
