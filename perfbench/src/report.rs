//! The run's result: a readable metric table, then one JSON line.

/// Operations attempted and failed, the metrics, and free-form notes.
#[derive(Default)]
pub struct Report {
    /// Operations (evaluations and polls) attempted.
    pub attempted: u64,
    /// Operations that returned an error or whose answer an oracle
    /// rejected.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Metrics that came out NaN or infinite: a ratio whose base
    /// measurement failed. They make the result incorrect.
    invalid: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity: such a value reads 0 and marks
        // the result incorrect.
        let value = if value.is_finite() {
            value
        } else {
            self.invalid.push(name.to_string());
            0.0
        };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a line printed above the metric table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Prints the notes, the table (with the error rate) and, as the
    /// last line, the JSON result.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# error_rate = {error_rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        if !self.invalid.is_empty() {
            println!("# not finite: {}", self.invalid.join(" "));
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>18} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0 && self.invalid.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
