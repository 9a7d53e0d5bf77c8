//! Metric definitions (the names `BENCHMARK.json` lists) and the result
//! line a run prints.

use xmap_state::json::{self, Value};

/// How long one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 13;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: reported by every workload's untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// A pure function of `(workload, seed)`: two runs of the same code
    /// on the same seed must agree bit for bit.
    pub exact: bool,
}

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "norm_probes_per_s",
        unit: "probes/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "norm_covered_per_s",
        unit: "targets/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "norm_rep_ms_p75",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "probe_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "recall",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.06,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
    },
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// What one run (one workload, traced or not) reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output matched its oracle.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The metrics as one JSON object, `{"name": {"value", "unit"}, ..}`.
    pub fn metrics_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", metrics.join(", "))
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// Parses a result line back (the suite reads its children's).
    pub fn from_json_line(line: &str) -> Result<RunResult, String> {
        let doc = json::parse(line, "result line").map_err(|e| e.to_string())?;
        let number = |v: &Value| match v {
            Value::U64(n) => Some(*n as f64),
            Value::F64(f) => Some(*f),
            _ => None,
        };
        let Some(Value::Obj(fields)) = doc.get("metrics") else {
            return Err("result line has no `metrics` object".into());
        };
        let mut metrics = Vec::with_capacity(fields.len());
        for (name, m) in fields {
            let value = m
                .get("value")
                .and_then(number)
                .ok_or(format!("metric {name} has no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or(format!("metric {name} has no unit"))?;
            metrics.push(Metric::new(name, value, unit));
        }
        Ok(RunResult {
            correct: doc
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("result line has no `correct`")?,
            attempted: doc
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or("result line has no `attempted`")?,
            failed: doc
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or("result line has no `failed`")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 40,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("norm_probes_per_s", 912_345.25, "probes/s"),
                Metric::new("host.cpus", 2.0, "count"),
            ],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_json_line(&line).unwrap(), r);
        assert_eq!(r.get("setup_s"), Some(0.8127));
        assert_eq!(r.get("absent"), None);
    }
}
