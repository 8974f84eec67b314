//! Deterministic run metrics: named counters and tick histograms.
//!
//! [`MetricsRegistry`] is the quantitative face of a run, fed by the
//! engine alongside [`RunStats`](crate::RunStats). Where `RunStats` is a
//! fixed struct of headline counters, the registry is an open, ordered
//! namespace (`BTreeMap`-backed, so iteration and serialization order are
//! stable) of counters plus [`TickHistogram`]s for distributions such as
//! message delay and decision latency.
//!
//! Everything here is a pure function of the run: same processes, same
//! config, same seed ⇒ byte-identical [`MetricsRegistry::to_json`]
//! output. No wall-clock values ever enter the registry.
//!
//! ## Interned handles
//!
//! The by-name API ([`incr`](MetricsRegistry::incr) /
//! [`observe`](MetricsRegistry::observe)) walks the name index on every
//! call — a string-compare `BTreeMap` lookup that the simulation engine
//! used to pay on *every* event. Hot paths should intern each name once
//! with [`counter_id`](MetricsRegistry::counter_id) /
//! [`histogram_id`](MetricsRegistry::histogram_id) and then update
//! through the returned [`CounterId`] / [`HistogramId`] handle, which is
//! a direct slot index. Slots that were interned but never touched (a
//! zero counter, an empty histogram) are invisible: they are skipped by
//! iteration, lookup and JSON output, so pre-interning every engine
//! metric does not change what a run reports.
//!
//! ## Shared name index
//!
//! The name indexes are `Arc`-shared and copied on write, so a clone
//! copies only value slots. A registry cloned from a pre-interned
//! template (as the engine does at every build) shares the template's
//! index until it interns a name the template lacks.

use crate::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A log-scaled histogram of tick values.
///
/// Values are bucketed by bit-length: bucket `0` holds the value `0`,
/// bucket `k` (for `k ≥ 1`) holds values whose highest set bit is
/// `k - 1`, i.e. the range `[2^(k-1), 2^k)`. 65 buckets cover the full
/// `u64` range. Exact `count`/`sum`/`min`/`max` are kept alongside the
/// buckets, so means are exact and only percentiles are bucket-resolution
/// approximations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for TickHistogram {
    fn default() -> Self {
        TickHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl TickHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket holding `value`: `0` for `0`, otherwise the
    /// value's bit length.
    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Lower bound of bucket `i` (the smallest value it can hold).
    fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Exact arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (nearest-rank over buckets).
    ///
    /// Returns the floor of the bucket containing the nearest-rank
    /// observation, clamped to the recorded `[min, max]`, so the answer
    /// is always a value the run could actually have produced. `None` if
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the ceil(q * count)-th observation (1-based).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            // The top rank is tracked exactly.
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// A pre-resolved handle to a counter slot, obtained from
/// [`MetricsRegistry::counter_id`]. Updating through the handle is a
/// direct array index — no name lookup.
///
/// Handles are only meaningful for the registry that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// A pre-resolved handle to a histogram slot, obtained from
/// [`MetricsRegistry::histogram_id`]. See [`CounterId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// An ordered registry of named counters and tick histograms.
///
/// Names are `'static` dotted paths (`"messages.dropped.loss"`); the
/// `BTreeMap` name index makes iteration — and therefore
/// [`to_json`](MetricsRegistry::to_json) — deterministic. Values live in
/// dense slot vectors so interned handles update without a lookup; the
/// index itself is shared between clones (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counter_index: Arc<BTreeMap<&'static str, usize>>,
    counters: Vec<u64>,
    histogram_index: Arc<BTreeMap<&'static str, usize>>,
    histograms: Vec<TickHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` and returns its counter handle, creating the slot
    /// (at zero) on first use. A zero counter stays invisible to
    /// iteration and JSON until the first non-zero increment.
    pub fn counter_id(&mut self, name: &'static str) -> CounterId {
        CounterId(intern(&mut self.counter_index, &mut self.counters, name))
    }

    /// Interns `name` and returns its histogram handle, creating an
    /// empty slot on first use. An empty histogram stays invisible to
    /// iteration, [`histogram`](Self::histogram) and JSON until its
    /// first observation.
    pub fn histogram_id(&mut self, name: &'static str) -> HistogramId {
        HistogramId(intern(&mut self.histogram_index, &mut self.histograms, name))
    }

    /// Adds `delta` to the counter behind a pre-resolved handle.
    #[inline]
    pub fn incr_by_id(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Records one observation in the histogram behind a pre-resolved
    /// handle.
    #[inline]
    pub fn observe_by_id(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].record(value);
    }

    /// Adds `delta` to the named counter (creating it at zero).
    ///
    /// Convenience path: interns on every call. Hot loops should hold a
    /// [`CounterId`] and use [`incr_by_id`](Self::incr_by_id).
    pub fn incr(&mut self, name: &'static str, delta: u64) {
        let id = self.counter_id(name);
        self.incr_by_id(id, delta);
    }

    /// Records one observation in the named histogram (creating it).
    ///
    /// Convenience path: interns on every call. Hot loops should hold a
    /// [`HistogramId`] and use [`observe_by_id`](Self::observe_by_id).
    pub fn observe(&mut self, name: &'static str, value: u64) {
        let id = self.histogram_id(name);
        self.observe_by_id(id, value);
    }

    /// Current value of a counter (`0` if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map(|&i| self.counters[i])
            .unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&TickHistogram> {
        self.histogram_index
            .get(name)
            .map(|&i| &self.histograms[i])
            .filter(|h| h.count() > 0)
    }

    /// Iterates non-zero counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_index
            .iter()
            .map(|(k, &i)| (*k, self.counters[i]))
            .filter(|(_, v)| *v != 0)
    }

    /// Iterates non-empty histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &TickHistogram)> + '_ {
        self.histogram_index
            .iter()
            .map(|(k, &i)| (*k, &self.histograms[i]))
            .filter(|(_, h)| h.count() > 0)
    }

    /// Renders the whole registry as a deterministic JSON object:
    /// `{"counters":{...},"histograms":{...}}` with keys in name order.
    /// Interned-but-untouched slots are omitted.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters()
            .map(|(name, value)| (name.to_string(), Json::U64(value)));
        let histograms = self.histograms().map(|(name, h)| {
            let fields = [
                ("count", h.count()),
                ("sum", h.sum()),
                ("min", h.min().unwrap_or(0)),
                ("max", h.max().unwrap_or(0)),
                ("p50", h.quantile(0.50).unwrap_or(0)),
                ("p95", h.quantile(0.95).unwrap_or(0)),
                ("p99", h.quantile(0.99).unwrap_or(0)),
            ];
            let fields = fields.map(|(k, v)| (k.to_string(), Json::U64(v)));
            (name.to_string(), Json::Obj(fields.into()))
        });
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters.collect())),
            ("histograms".into(), Json::Obj(histograms.collect())),
        ])
        .compact()
    }
}

/// The slot of `name` in `index`. Only a new name appends an empty
/// (default) slot, and only a new name copies an index shared with
/// another registry.
fn intern<V: Default>(
    index: &mut Arc<BTreeMap<&'static str, usize>>,
    slots: &mut Vec<V>,
    name: &'static str,
) -> usize {
    if let Some(&slot) = index.get(name) {
        return slot;
    }
    let slot = slots.len();
    Arc::make_mut(index).insert(name, slot);
    slots.push(V::default());
    slot
}

/// Registries compare by observable content (non-zero counters and
/// non-empty histograms, in name order), not by interning history: a
/// registry that pre-interned every engine metric equals one that only
/// ever touched the metrics the run produced.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters().eq(other.counters()) && self.histograms().eq(other.histograms())
    }
}

impl Eq for MetricsRegistry {}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn interned_handles_update_the_same_slots_as_names() {
        let mut by_id = MetricsRegistry::new();
        let c = by_id.counter_id("messages.sent");
        let h = by_id.histogram_id("delay_ticks");
        for v in [1u64, 2, 3] {
            by_id.incr_by_id(c, 1);
            by_id.observe_by_id(h, v);
        }
        let mut by_name = MetricsRegistry::new();
        for v in [1u64, 2, 3] {
            by_name.incr("messages.sent", 1);
            by_name.observe("delay_ticks", v);
        }
        assert_eq!(by_id, by_name);
        assert_eq!(by_id.to_json(), by_name.to_json());
        // Re-interning the same name yields the same handle.
        assert_eq!(by_id.counter_id("messages.sent"), c);
        assert_eq!(by_id.histogram_id("delay_ticks"), h);
    }

    #[test]
    fn untouched_interned_slots_are_invisible() {
        let mut m = MetricsRegistry::new();
        m.counter_id("never.hit");
        m.histogram_id("never.observed");
        m.incr("hit", 1);
        assert_eq!(m.counters().count(), 1);
        assert_eq!(m.histograms().count(), 0);
        assert!(m.histogram("never.observed").is_none());
        assert_eq!(m.to_json(), "{\"counters\":{\"hit\":1},\"histograms\":{}}");
        // And a registry without the dormant slots compares equal.
        let mut plain = MetricsRegistry::new();
        plain.incr("hit", 1);
        assert_eq!(m, plain);
    }

    #[test]
    fn clones_share_the_name_index_until_one_interns_a_new_name() {
        let mut template = MetricsRegistry::new();
        let sent = template.counter_id("messages.sent");
        let mut a = template.clone();
        let mut b = template.clone();
        assert!(Arc::ptr_eq(&a.counter_index, &template.counter_index));
        a.incr_by_id(sent, 2);
        a.incr("only.in.a", 1);
        b.observe("only.in.b", 5);
        assert!(!Arc::ptr_eq(&a.counter_index, &template.counter_index));
        assert_eq!(a.counter("messages.sent"), 2);
        assert_eq!(b.counter("messages.sent"), 0);
        assert_eq!(b.counter("only.in.a"), 0);
        assert!(a.histogram("only.in.b").is_none());
        assert_eq!(template.to_json(), "{\"counters\":{},\"histograms\":{}}");
        assert_eq!(
            a.to_json(),
            "{\"counters\":{\"messages.sent\":2,\"only.in.a\":1},\"histograms\":{}}"
        );
        // The template still hands out the slot it always had.
        assert_eq!(template.counter_id("messages.sent"), sent);
        assert_eq!(template.counter_index.len(), 1);
    }

    #[test]
    fn histogram_exact_stats() {
        let mut h = TickHistogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_bounded_by_observations() {
        let mut h = TickHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((1..=100).contains(&p50));
        assert!(p50 <= p99);
        assert!(p99 <= 100);
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = TickHistogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn zero_lands_in_bucket_zero() {
        let mut h = TickHistogram::new();
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let mut a = MetricsRegistry::new();
        a.incr("zeta", 1);
        a.incr("alpha", 2);
        a.observe("delay", 7);
        let mut b = MetricsRegistry::new();
        b.observe("delay", 7);
        b.incr("alpha", 2);
        b.incr("zeta", 1);
        assert_eq!(a.to_json(), b.to_json());
        // alpha sorts before zeta regardless of insertion order.
        let j = a.to_json();
        assert!(j.find("alpha").unwrap() < j.find("zeta").unwrap());
    }
}
