//! What one run reports: its metrics, how many outputs were checked and
//! how many failed, and the result line.

/// Failures kept verbatim for standard error; the rest are only counted.
const MAX_PROBLEMS: usize = 20;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Context for the human-readable line, e.g. the sample count.
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// Why the run is not correct: the first failed outputs, and any
    /// workload property that did not hold.
    pub problems: Vec<String>,
    /// Context printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metric_noted(name, value, unit, String::new());
    }

    /// Records a metric with context for its human-readable line.
    pub fn metric_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, note });
    }

    /// Records context for the human-readable lines.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a workload property that did not hold: the run is not
    /// correct.
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Counts one checked output, which failed unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.checked(1, if ok { Vec::new() } else { vec![problem()] });
    }

    /// Counts `count` checked outputs, of which `failures` failed.
    pub fn checked(&mut self, count: u64, failures: Vec<String>) {
        self.attempted += count;
        self.failed += failures.len() as u64;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(failures.into_iter().take(room));
    }

    /// Folds another section's report into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
    }

    /// Whether every checked output was correct, every workload
    /// property held and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|metric| metric.value.is_finite())
    }

    /// Failed over attempted outputs.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|metric| {
                let value = if metric.value.is_finite() { metric.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the notes, one line per metric and the error rate, the
    /// problems to standard error, and the result line last.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("{workload}: {note}");
        }
        for metric in &self.metrics {
            let note =
                if metric.note.is_empty() { String::new() } else { format!(" ({})", metric.note) };
            println!("{workload} {} = {} {}{note}", metric.name, metric.value, metric.unit);
        }
        println!(
            "{workload} error_rate = {} ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for problem in &self.problems {
            eprintln!("perfbench: {workload}: {problem}");
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome::default();
        outcome.metric("latency_p50_ms", 0.25, "ms");
        outcome.check(true, String::new);
        assert_eq!(
            outcome.json(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_p50_ms": {"value": 0.25, "unit": "ms"}}}"#
        );
        outcome.check(false, || "body differs".to_owned());
        assert!(outcome.json().starts_with(r#"{"correct": false, "attempted": 2, "failed": 1, "#));
        assert_eq!(outcome.error_rate(), 0.5);
    }

    #[test]
    fn a_broken_property_or_a_non_finite_metric_is_incorrect() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.problem("no evictions".to_owned());
        assert!(!outcome.correct());
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.metric("solve_s", f64::NAN, "s");
        assert!(!outcome.correct());
        assert!(outcome.json().contains(r#""solve_s": {"value": 0, "unit": "s"}"#));
    }
}
