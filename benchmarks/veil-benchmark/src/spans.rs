//! Spans around the benchmark's own calls into veil. Kept in memory,
//! written out once at exit by the layer pass; the plain run times the
//! same scopes without keeping anything.

use std::time::Instant;

/// One closed span: `[start_us, end_us)` since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Scope name, e.g. `setup.graph`.
    pub name: String,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// Times nested scopes; records them as [`Span`]s only when tracing.
pub struct Tracer {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `keep = false` is the plain run: scopes are timed, nothing is stored.
    pub fn new(keep: bool) -> Self {
        Self {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` as the scope `name`, nested in whatever scope is open, and
    /// returns its result with its wall-clock seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let slot = self.keep.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_us: 0.0,
                end_us: 0.0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_us = (start - self.origin).as_secs_f64() * 1e6;
            self.spans[i].end_us = (end - self.origin).as_secs_f64() * 1e6;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Every span closed so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds each span name spent in itself: its duration minus what its
    /// direct children cover, summed over all spans of that name.
    pub fn self_seconds(&self) -> std::collections::BTreeMap<String, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        let mut by_name = std::collections::BTreeMap::new();
        for (s, us) in self.spans.iter().zip(own) {
            *by_name.entry(s.name.clone()).or_insert(0.0) += us / 1e6;
        }
        by_name
    }

    /// The spans as one JSON array (`name`, `parent`, `start_us`, `end_us`).
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let rows = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("start_us".into(), Value::F64(s.start_us)),
                    ("end_us".into(), Value::F64(s.end_us)),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Seq(rows)).expect("spans serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new(true);
        tr.scope("outer", |tr| {
            tr.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[1].parent, Some(0));
        let own = tr.self_seconds();
        assert!(own["inner"] >= 0.010, "{own:?}");
        assert!(own["outer"] < 0.005, "{own:?}");
    }

    #[test]
    fn plain_run_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.scope("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
