//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer. Disabled spans cost one branch; enabled ones are kept in
//! memory and written out once, when the run ends.

use std::time::Instant;

use dv_core::json::Json;

/// One timed interval.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts read at this boundary: the call's own metrics and host
    /// counters.
    pub counts: Vec<(String, f64)>,
}

/// A span recorder; a disabled one records nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Close span `id` (and any left open inside it).
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Attach counts to span `id`.
    pub fn add_counts(&mut self, id: Option<usize>, counts: Vec<(String, f64)>) {
        if let Some(id) = id {
            self.spans[id].counts.extend(counts);
        }
    }

    /// Seconds spent in spans named `name` or `name.<anything>`, counting
    /// nested matches once (only outermost matching spans are summed).
    pub fn seconds(&self, name: &str) -> f64 {
        let matches = |s: &Span| {
            s.name
                .strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        };
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| matches(s) && !self.ancestors(s).any(matches))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    fn ancestors<'a>(&'a self, s: &Span) -> impl Iterator<Item = &'a Span> + 'a {
        std::iter::successors(s.parent.map(|p| &self.spans[p]), move |p| {
            p.parent.map(|q| &self.spans[q])
        })
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::U64(id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("name".into(), Json::str(&s.name)),
                        ("start_ns".into(), Json::U64(s.start_ns)),
                        ("end_ns".into(), Json::U64(s.end_ns)),
                        ("self_ns".into(), Json::U64(own[id])),
                        (
                            "counts".into(),
                            Json::Obj(
                                s.counts
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::F64(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
