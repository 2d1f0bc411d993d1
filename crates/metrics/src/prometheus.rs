//! Prometheus text exposition (format version 0.0.4).
//!
//! [`PrometheusExposer`] renders counters, gauges and histograms — both
//! ad-hoc series and whole [`MetricsSnapshot`]s — into the plain-text
//! format `GET /metrics` endpoints serve:
//!
//! ```text
//! # HELP vcoma_store_hits_total Store loads served from disk.
//! # TYPE vcoma_store_hits_total counter
//! vcoma_store_hits_total 42
//! ```
//!
//! The renderer owns the format's correctness obligations so callers
//! can't violate them:
//!
//! * metric names are sanitised to `[a-zA-Z_:][a-zA-Z0-9_:]*` (the
//!   snapshot's dotted names like `protocol.read_miss` become
//!   `protocol_read_miss`);
//! * label values are escaped (`\` → `\\`, `"` → `\"`, newline → `\n`),
//!   `# HELP` text likewise;
//! * `# HELP`/`# TYPE` headers are emitted once per metric name even
//!   when the same name is sampled under several label sets;
//! * histograms expose cumulative `_bucket{le="..."}` series ending in
//!   `le="+Inf"`, plus `_sum` and `_count`, from the workspace's
//!   power-of-two [`HistogramSnapshot`] shape.
//!
//! Output is deterministic: series appear in call order, snapshot
//! contents in `BTreeMap` key order.

use crate::{Histogram, HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Builder for one Prometheus text scrape.
#[derive(Debug, Default)]
pub struct PrometheusExposer {
    out: String,
    typed: BTreeSet<String>,
}

/// Sanitises a metric name into the legal charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every illegal byte becomes `_`, and a
/// leading digit is prefixed with `_`.
#[must_use]
pub fn sanitize_name(raw: &str) -> String {
    let mut name = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        let legal = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            name.push('_');
            name.push(c);
        } else if legal {
            name.push(c);
        } else {
            name.push('_');
        }
    }
    if name.is_empty() {
        name.push('_');
    }
    name
}

/// Escapes a label value: backslash, double quote and newline get
/// backslash escapes, everything else passes through.
#[must_use]
pub fn escape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes `# HELP` text: backslash and newline only (quotes are legal
/// in help strings).
#[must_use]
pub fn escape_help(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

impl PrometheusExposer {
    /// An empty scrape.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits the `# HELP` / `# TYPE` header for `name` once per scrape.
    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if self.typed.insert(name.to_string()) {
            let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    /// Emits one counter sample. Counter names conventionally end in
    /// `_total`; the caller picks the name, this method only sanitises it.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let name = sanitize_name(name);
        self.header(&name, help, "counter");
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// Emits one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let name = sanitize_name(name);
        self.header(&name, help, "gauge");
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// Emits one histogram: cumulative `_bucket{le="..."}` series over
    /// the power-of-two shape (only buckets the snapshot retains, so the
    /// series stays compact), the mandatory `le="+Inf"` terminal, then
    /// `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let name = sanitize_name(name);
        self.header(&name, help, "histogram");
        let mut cumulative = 0u64;
        for (i, &count) in snap.buckets.iter().enumerate() {
            cumulative += count;
            let (_, hi) = Histogram::bucket_range(i);
            let mut with_le = labels.to_vec();
            let hi = hi.to_string();
            with_le.push(("le", &hi));
            let _ = writeln!(self.out, "{name}_bucket{} {cumulative}", render_labels(&with_le));
        }
        let mut with_le = labels.to_vec();
        with_le.push(("le", "+Inf"));
        let _ = writeln!(self.out, "{name}_bucket{} {}", render_labels(&with_le), snap.count);
        let _ = writeln!(self.out, "{name}_sum{} {}", render_labels(labels), snap.sum);
        let _ = writeln!(self.out, "{name}_count{} {}", render_labels(labels), snap.count);
    }

    /// Renders a whole [`MetricsSnapshot`] under `prefix`: counters as
    /// `{prefix}_{name}_total`, gauges as `{prefix}_{name}`, histograms
    /// as `{prefix}_{name}` histogram series — dotted snapshot names
    /// sanitised, in deterministic key order.
    pub fn snapshot(&mut self, prefix: &str, snap: &MetricsSnapshot) {
        for (name, value) in &snap.counters {
            self.counter(
                &format!("{prefix}_{name}_total"),
                &format!("Registry counter '{name}'."),
                &[],
                *value,
            );
        }
        for (name, value) in &snap.gauges {
            #[allow(clippy::cast_precision_loss)]
            self.gauge(
                &format!("{prefix}_{name}"),
                &format!("Registry gauge '{name}'."),
                &[],
                *value as f64,
            );
        }
        for (name, hist) in &snap.histograms {
            self.histogram(
                &format!("{prefix}_{name}"),
                &format!("Registry histogram '{name}'."),
                &[],
                hist,
            );
        }
    }

    /// Finishes the scrape and returns the exposition text.
    #[must_use]
    pub fn render(self) -> String {
        self.out
    }
}

/// Returns `Err(offending line)` if any line of `scrape` is not valid
/// Prometheus text exposition: a `# HELP`/`# TYPE` comment, or a sample
/// `name{labels} value`. Used by the endpoint tests and mirrored by the
/// CI scrape validator.
pub fn validate_scrape(scrape: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_value(s: &str) -> bool {
        matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
    }
    for line in scrape.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let ok = match keyword {
                "HELP" => valid_name(name),
                "TYPE" => {
                    valid_name(name)
                        && matches!(
                            parts.next().unwrap_or(""),
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        )
                }
                _ => false,
            };
            if !ok {
                return Err(line.to_string());
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(line.to_string()),
        };
        if !valid_value(value) {
            return Err(line.to_string());
        }
        let name = match series.split_once('{') {
            None => series,
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return Err(line.to_string());
                };
                // Every label is key="value" with a legal key; an escaped
                // quote never ends a value, so split on `",` boundaries.
                // The delimiter consumes the closing quote of every pair
                // but the last, which must still carry its own.
                let pairs: Vec<&str> = labels.split("\",").collect();
                let last = pairs.len() - 1;
                for (i, pair) in pairs.into_iter().enumerate() {
                    let pair = if i == last {
                        match pair.strip_suffix('"') {
                            Some(p) => p,
                            None => return Err(line.to_string()),
                        }
                    } else {
                        pair
                    };
                    let Some((key, val)) = pair.split_once("=\"") else {
                        return Err(line.to_string());
                    };
                    let unescaped_quote = val
                        .char_indices()
                        .any(|(i, c)| c == '"' && (i == 0 || val.as_bytes()[i - 1] != b'\\'));
                    if !valid_name(key) || unescaped_quote {
                        return Err(line.to_string());
                    }
                }
                name
            }
        };
        if !valid_name(name) {
            return Err(line.to_string());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Histogram, MetricsSnapshot};
    use std::collections::BTreeMap;

    #[test]
    fn names_are_sanitised_into_the_legal_charset() {
        assert_eq!(sanitize_name("protocol.read_miss"), "protocol_read_miss");
        assert_eq!(sanitize_name("tlb.l1.evict"), "tlb_l1_evict");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        assert_eq!(escape_help("50% \"hit\"\nrate\\"), "50% \"hit\"\\nrate\\\\");
    }

    #[test]
    fn escaped_labels_render_and_validate() {
        let mut exp = PrometheusExposer::new();
        exp.counter("evil", "An evil\nhelp \\ string.", &[("path", "a\\b \"c\"\nd")], 1);
        let text = exp.render();
        assert!(text.contains(r#"evil{path="a\\b \"c\"\nd"} 1"#), "{text}");
        assert!(text.contains("# HELP evil An evil\\nhelp \\\\ string."), "{text}");
        validate_scrape(&text).expect("escaped output still parses");
    }

    #[test]
    fn headers_are_emitted_once_per_name() {
        let mut exp = PrometheusExposer::new();
        exp.gauge("vcoma_jobs", "Jobs by phase.", &[("phase", "queued")], 1.0);
        exp.gauge("vcoma_jobs", "Jobs by phase.", &[("phase", "running")], 0.0);
        let text = exp.render();
        assert_eq!(text.matches("# TYPE vcoma_jobs gauge").count(), 1);
        assert_eq!(text.matches("# HELP vcoma_jobs").count(), 1);
        assert!(text.contains("vcoma_jobs{phase=\"queued\"} 1"));
        assert!(text.contains("vcoma_jobs{phase=\"running\"} 0"));
    }

    #[test]
    fn counters_are_monotone_across_scrapes() {
        // A scrape renders whatever the caller passes; the monotonicity
        // contract is that successive scrapes of a growing counter parse
        // back to non-decreasing values.
        let mut last = 0u64;
        for value in [0u64, 3, 3, 17, 1000] {
            let mut exp = PrometheusExposer::new();
            exp.counter("vcoma_store_hits_total", "Store hits.", &[], value);
            let text = exp.render();
            let sample = text
                .lines()
                .find(|l| !l.starts_with('#'))
                .and_then(|l| l.rsplit_once(' '))
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .expect("sample parses");
            assert!(sample >= last, "counter went backwards: {sample} < {last}");
            last = sample;
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let mut h = crate::Histogram::new();
        for v in [0, 1, 1, 5, 9, 300] {
            h.record(v);
        }
        let mut exp = PrometheusExposer::new();
        exp.histogram("lat", "Latency.", &[], &h.snapshot());
        let text = exp.render();
        validate_scrape(&text).expect("valid scrape");
        let buckets: Vec<(String, u64)> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket"))
            .map(|l| {
                let (series, v) = l.rsplit_once(' ').expect("sample");
                let le = series.split("le=\"").nth(1).unwrap().trim_end_matches("\"}");
                (le.to_string(), v.parse().expect("count"))
            })
            .collect();
        // Cumulative and non-decreasing, terminated by +Inf == count.
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "{buckets:?}");
        assert_eq!(buckets.last().map(|(le, c)| (le.as_str(), *c)), Some(("+Inf", 6)));
        // Spot-check the power-of-two edges: le="1" holds 0 and the two 1s.
        assert!(buckets.contains(&("1".to_string(), 3)));
        assert!(text.contains("lat_sum 316"));
        assert!(text.contains("lat_count 6"));
    }

    #[test]
    fn snapshot_rendering_is_deterministic_and_valid() {
        let mut hops = Histogram::default();
        hops.record(4);
        let snap = MetricsSnapshot {
            counters: BTreeMap::from([
                ("protocol.read_miss".to_string(), 7),
                ("tlb.l1.evict".to_string(), 2),
            ]),
            gauges: BTreeMap::from([("vm.pages".to_string(), -3)]),
            histograms: BTreeMap::from([("net.hops".to_string(), hops.snapshot())]),
            ..MetricsSnapshot::default()
        };
        let mut exp = PrometheusExposer::new();
        exp.snapshot("vcoma", &snap);
        let text = exp.render();
        validate_scrape(&text).expect("valid scrape");
        assert!(text.contains("vcoma_protocol_read_miss_total 7"));
        assert!(text.contains("vcoma_tlb_l1_evict_total 2"));
        assert!(text.contains("vcoma_vm_pages -3"));
        assert!(text.contains("vcoma_net_hops_count 1"));
        // Deterministic: same snapshot renders the same bytes.
        let mut exp2 = PrometheusExposer::new();
        exp2.snapshot("vcoma", &snap);
        assert_eq!(text, exp2.render());
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "no-dashes-in-names 1",
            "name{unterminated=\"x} 1",
            "name{key=\"v\"} not_a_number",
            "just_a_name_no_value",
            "# BOGUS keyword 1",
            "# TYPE name flavor",
            "name{bad key=\"v\"} 1",
        ] {
            assert!(validate_scrape(bad).is_err(), "accepted: {bad}");
        }
        validate_scrape("ok{a=\"1\",b=\"2\"} 4.5e9\nplain 0\n# HELP plain text here\n")
            .expect("good lines pass");
    }
}
