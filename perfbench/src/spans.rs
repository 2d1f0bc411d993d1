//! In-memory spans of the traced run, written out once at the end as a
//! Chrome trace-event file (loadable in ui.perfetto.dev).

use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: String,
    start: Instant,
    end: Option<Instant>,
}

/// Spans recorded around the benchmark's own calls into each layer:
/// workload, then sweep, then point, then layer-kernel batch.
pub struct Spans {
    t0: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        self.list.push(Span {
            parent,
            name: name.into(),
            start: Instant::now(),
            end: None,
        });
        self.list.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.list[id].end = Some(Instant::now());
    }

    /// Records a span that was timed elsewhere.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.list.push(Span {
            parent: Some(parent),
            name: name.into(),
            start,
            end: Some(end),
        });
        self.list.len() - 1
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: impl Into<String>, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// A span's duration in seconds minus the time its children cover
    /// (children never overlap: the traced run is single-threaded).
    pub fn self_secs(&self, id: usize) -> f64 {
        let dur = |s: &Span| s.end.map_or(0.0, |e| (e - s.start).as_secs_f64());
        let children: f64 = self
            .list
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(dur)
            .sum();
        dur(&self.list[id]) - children
    }

    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.list[id];
        s.end.map_or(0.0, |e| (e - s.start).as_secs_f64())
    }

    /// Writes every span as a complete (`"ph": "X"`) trace event.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let us = |t: Instant| (t - self.t0).as_secs_f64() * 1e6;
        let events: Vec<String> = self
            .list
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let end = s.end.unwrap_or(s.start);
                format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}}}}}",
                    crate::json_str(&s.name),
                    us(s.start),
                    us(end) - us(s.start),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n")),
        )
    }
}
