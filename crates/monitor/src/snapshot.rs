//! Prometheus-style text snapshots.
//!
//! The Chrome-trace exporter answers "what happened over time"; this
//! module answers "what is true right now" in the de-facto standard
//! scrape format: one `name{label="value"} number` line per metric.
//! [`TextSnapshot`] collects lock stats or arbitrary gauges; the
//! control plane's `snapshot` command serves what it renders.

/// Builder for one point-in-time text exposition.
#[derive(Debug, Default, Clone)]
pub struct TextSnapshot {
    lines: Vec<String>,
}

impl TextSnapshot {
    /// An empty snapshot.
    pub fn new() -> TextSnapshot {
        TextSnapshot::default()
    }

    /// Add one gauge sample: `name{labels...} value`.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        let mut line = String::from(name);
        if !labels.is_empty() {
            line.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(k);
                line.push_str("=\"");
                // Minimal escaping per the exposition format.
                for c in v.chars() {
                    match c {
                        '\\' => line.push_str("\\\\"),
                        '"' => line.push_str("\\\""),
                        '\n' => line.push_str("\\n"),
                        c => line.push(c),
                    }
                }
                line.push('"');
            }
            line.push('}');
        }
        line.push(' ');
        // Integers render without a trailing `.0` so counters look like
        // counters.
        if value.fract() == 0.0 && value.abs() < 9e15 {
            line.push_str(&format!("{}", value as i64));
        } else {
            line.push_str(&format!("{value}"));
        }
        self.lines.push(line);
        self
    }

    /// Number of samples added.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no samples were added.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Render the exposition text: lines sorted (stable scrape diffs),
    /// newline-terminated.
    pub fn render(&self) -> String {
        let mut lines = self.lines.clone();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_render_sorted_prometheus_lines() {
        let mut s = TextSnapshot::new();
        s.gauge("lock_waiting", &[("lock", "b")], 3.0)
            .gauge("lock_waiting", &[("lock", "a")], 1.5)
            .gauge("up", &[], 1.0);
        let text = s.render();
        assert_eq!(
            text,
            "lock_waiting{lock=\"a\"} 1.5\nlock_waiting{lock=\"b\"} 3\nup 1\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut s = TextSnapshot::new();
        s.gauge("m", &[("path", "a\"b\\c")], 1.0);
        assert_eq!(s.render(), "m{path=\"a\\\"b\\\\c\"} 1\n");
    }
}
