//! In-memory spans recorded by the traced run, written out when it ends.
//!
//! A span is a name, a start, a duration and the span that caused it. Client
//! request spans get the server's stage breakdown (from `?trace=1`) as
//! children; direct calls into a crate's public functions get one span each.
//! A span's self time is its duration minus the time its children cover.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub key: String,
    pub start_us: f64,
    pub dur_us: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &str,
        key: &str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.record_at(
            name,
            key,
            parent,
            start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur.as_secs_f64() * 1e6,
        )
    }

    pub fn record_at(
        &mut self,
        name: &str,
        key: &str,
        parent: Option<usize>,
        start_us: f64,
        dur_us: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            key: key.to_string(),
            start_us,
            dur_us,
        });
        id
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let value = f();
        let dur = start.elapsed();
        self.record(name, "", None, start, dur);
        (value, dur)
    }

    /// Duration minus the children's durations (children never overlap: the
    /// server's stages partition a request).
    pub fn self_time_us(&self, id: usize) -> f64 {
        let children: f64 = self.spans[id + 1..]
            .iter()
            .take_while(|s| s.parent == Some(id))
            .map(|s| s.dur_us)
            .sum();
        self.spans[id].dur_us - children
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                s.id, s.name, s.key, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record_at("client", "a", None, 0.0, 100.0);
        t.record_at("dispatch", "", Some(root), 0.0, 10.0);
        t.record_at("score", "", Some(root), 10.0, 60.0);
        let other = t.record_at("client", "b", None, 200.0, 50.0);
        assert_eq!(t.self_time_us(root), 30.0);
        assert_eq!(t.self_time_us(other), 50.0);
    }
}
