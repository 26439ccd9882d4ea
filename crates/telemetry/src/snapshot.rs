//! Point-in-time views of recorded metrics.

use crate::json::Json;
use std::collections::BTreeMap;

/// Number of fixed log-spaced percentile bins: one underflow bin
/// (values `< BIN_LO`, including 0 and negatives), 64 bins spanning
/// `BIN_LO..BIN_HI` at 4 per decade, and one overflow bin.
const NUM_BINS: usize = 66;
/// Lower edge of the log-spaced range.
const BIN_LO: f64 = 1e-9;
/// Upper edge of the log-spaced range.
const BIN_HI: f64 = 1e7;
/// Log-spaced bin resolution.
const BINS_PER_DECADE: f64 = 4.0;

/// Aggregate view of one histogram: exact count/sum/min/max plus fixed
/// log-spaced bins for p50/p95/p99 estimates. Estimates are accurate to
/// one bin width (a factor of `10^(1/4) ≈ 1.78`) within
/// `[1e-9, 1e7)` and clamped to the exact `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Log-spaced observation counts backing the percentile estimates.
    pub bins: [u64; NUM_BINS],
}

impl HistogramSummary {
    /// Summary of zero observations.
    pub const fn empty() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: [0; NUM_BINS],
        }
    }

    fn bin_index(value: f64) -> usize {
        if value.is_nan() || value < BIN_LO {
            // NaN, negatives, zero, and sub-BIN_LO values underflow.
            return 0;
        }
        if value >= BIN_HI {
            return NUM_BINS - 1;
        }
        let i = ((value / BIN_LO).log10() * BINS_PER_DECADE).floor() as usize;
        (i + 1).min(NUM_BINS - 2)
    }

    /// Geometric midpoint of a log-spaced bin, the representative value
    /// a percentile landing in that bin reports.
    fn bin_value(&self, index: usize) -> f64 {
        if index == 0 {
            return self.min;
        }
        if index == NUM_BINS - 1 {
            return self.max;
        }
        BIN_LO * 10f64.powf((index as f64 - 0.5) / BINS_PER_DECADE)
    }

    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.bins[Self::bin_index(value)] += 1;
    }

    /// Combines with another summary (as if both observation streams had
    /// gone into one histogram).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.bins.iter_mut().zip(other.bins.iter()) {
            *mine += theirs;
        }
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`), or `None` when no value has
    /// been observed. Single-sample and constant streams report the exact
    /// observed value; everything else is a log-bin estimate clamped to
    /// the exact `[min, max]`.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // Degenerate distributions have an exact answer — never report a
        // bin midpoint for them.
        if self.count == 1 || self.min == self.max {
            return Some(self.min);
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, n) in self.bins.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return Some(self.bin_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Estimated `q`-quantile as a plain `f64`; 0.0 when empty. Prefer
    /// [`Self::try_quantile`] where "no data" must stay distinguishable
    /// from "observed zero" (the JSON exporter renders empties as `null`).
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).unwrap_or(0.0)
    }

    /// Estimated median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl Default for HistogramSummary {
    fn default() -> Self {
        Self::empty()
    }
}

/// An immutable snapshot of every metric a recorder (or a whole registry)
/// has seen. Sorted maps make output deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (last written value).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl TelemetrySnapshot {
    /// Value of a counter, 0 if never written.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge, if ever written.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram summary, empty if never observed.
    pub fn histogram(&self, name: &str) -> HistogramSummary {
        self.histograms
            .get(name)
            .copied()
            .unwrap_or_else(HistogramSummary::empty)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Folds `other` into `self`: counters add, histograms combine, gauges
    /// take `other`'s value (last write wins).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_insert_with(HistogramSummary::empty)
                .merge(h);
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Converts to a JSON document (used by the JSONL exporter).
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::U64(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::F64(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    // An empty histogram has no min/mean/percentiles; null
                    // keeps "no data" distinguishable from "observed 0.0".
                    let stat = |v: Option<f64>| v.map_or(Json::Null, Json::F64);
                    let nonempty = h.count > 0;
                    (
                        k.clone(),
                        Json::obj([
                            ("count", Json::U64(h.count)),
                            ("sum", Json::F64(h.sum)),
                            ("min", stat(nonempty.then_some(h.min))),
                            ("max", stat(nonempty.then_some(h.max))),
                            ("mean", stat(nonempty.then(|| h.mean()))),
                            ("p50", stat(h.try_quantile(0.50))),
                            ("p95", stat(h.try_quantile(0.95))),
                            ("p99", stat(h.try_quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// Renders a human-readable table of every metric, sorted by name.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        out.push_str(&format!("{:<width$}  value\n", "metric"));
        out.push_str(&format!("{:-<width$}  -----\n", ""));
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<width$}  {v:.6}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<width$}  n={} sum={:.6} mean={:.6} p50={:.6} p95={:.6} p99={:.6}\n",
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        s.counters.insert("traffic.bytes.embed_data".into(), 100);
        s.counters.insert("traffic.bytes.allreduce".into(), 40);
        s.gauges.insert("clock.now_secs".into(), 1.5);
        let mut h = HistogramSummary::empty();
        h.observe(2.0);
        h.observe(4.0);
        s.histograms.insert("time.compute_secs".into(), h);
        s
    }

    #[test]
    fn merge_adds_counters_and_combines_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("traffic.bytes.embed_data"), 200);
        let h = a.histogram("time.compute_secs");
        assert_eq!(h.count, 4);
        assert!((h.sum - 12.0).abs() < 1e-12);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_sum_covers_exactly_the_prefix() {
        let s = sample();
        assert_eq!(s.counter_prefix_sum("traffic.bytes."), 140);
        assert_eq!(s.counter_prefix_sum("traffic.bytes.embed"), 100);
        assert_eq!(s.counter_prefix_sum("nothing."), 0);
    }

    #[test]
    fn json_round_trips_key_facts() {
        let rendered = sample().to_json().render();
        assert!(
            rendered.contains(r#""traffic.bytes.embed_data":100"#),
            "{rendered}"
        );
        assert!(rendered.contains(r#""count":2"#), "{rendered}");
        assert!(rendered.contains(r#""mean":3.0"#), "{rendered}");
    }

    #[test]
    fn quantiles_are_bin_accurate() {
        // One log-spaced bin is a factor of 10^(1/4) ≈ 1.78 wide; the
        // estimate must land within one bin width of the exact quantile on
        // each side, across distributions spanning several decades.
        let tol = 10f64.powf(1.0 / 4.0);
        let uniform: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        let geometric: Vec<f64> = (0..600).map(|i| 1e-6 * 1.05f64.powi(i)).collect();
        for values in [uniform, geometric] {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let mut h = HistogramSummary::empty();
            for v in &values {
                h.observe(*v);
            }
            for q in [0.50, 0.95, 0.99] {
                let exact =
                    sorted[((q * sorted.len() as f64).ceil() as usize - 1).min(sorted.len() - 1)];
                let est = h.quantile(q);
                assert!(
                    est >= exact / tol && est <= exact * tol,
                    "q={q}: estimate {est} off by more than one bin from {exact}"
                );
            }
        }
    }

    #[test]
    fn quantiles_clamp_to_observed_range_and_handle_edges() {
        // A single sample is exact, not a bin midpoint — even at a value
        // far from any bin center.
        let mut single = HistogramSummary::empty();
        single.observe(3.0);
        assert_eq!(single.p50(), 3.0);
        assert_eq!(single.p99(), 3.0);
        assert_eq!(single.try_quantile(0.5), Some(3.0));

        // Constant streams are exact too (min == max short-circuit).
        let mut constant = HistogramSummary::empty();
        for _ in 0..10 {
            constant.observe(7.3);
        }
        assert_eq!(constant.p50(), 7.3);
        assert_eq!(constant.p95(), 7.3);

        let mut zeros = HistogramSummary::empty();
        zeros.observe(0.0);
        zeros.observe(0.0);
        assert_eq!(zeros.p50(), 0.0);
        assert_eq!(zeros.p99(), 0.0);

        // Empty: no data, not "observed zero".
        assert_eq!(HistogramSummary::empty().try_quantile(0.95), None);
        assert_eq!(HistogramSummary::empty().p95(), 0.0);

        let mut merged = HistogramSummary::empty();
        for _ in 0..95 {
            merged.observe(1.0);
        }
        let mut tail = HistogramSummary::empty();
        for _ in 0..5 {
            tail.observe(100.0);
        }
        merged.merge(&tail);
        assert!(merged.p50() < 2.0, "median near 1: {}", merged.p50());
        assert!(merged.p99() > 50.0, "p99 near the tail: {}", merged.p99());
    }

    #[test]
    fn empty_histogram_exports_null_statistics() {
        let mut s = TelemetrySnapshot::default();
        s.histograms
            .insert("empty.hist".into(), HistogramSummary::empty());
        let rendered = s.to_json().render();
        assert!(
            rendered.contains(
                r#""empty.hist":{"count":0,"sum":0.0,"min":null,"max":null,"mean":null,"p50":null,"p95":null,"p99":null}"#
            ),
            "{rendered}"
        );
    }

    #[test]
    fn table_lists_every_metric() {
        let t = sample().render_table();
        for name in [
            "traffic.bytes.embed_data",
            "traffic.bytes.allreduce",
            "clock.now_secs",
            "time.compute_secs",
        ] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }
}
