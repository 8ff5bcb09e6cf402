//! The benchmark's own statistics: tail quantiles with a sample-size
//! rule, due-time latency accounting, interpolated histogram quantiles
//! and in-memory spans with self time.

use sempair_net::audit::Histogram;

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// A quantile as reported: the value at the highest supported
/// percentile not above the one asked for, with the evidence for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The value at `percentile`.
    pub value: f64,
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: f64,
    /// Samples the quantile was taken over.
    pub samples: usize,
}

impl Quantile {
    /// One report line: `p99.0 = 3.214 (n=2400)`.
    pub fn describe(&self) -> String {
        format!(
            "p{:.1} = {:.4} (n={})",
            self.percentile, self.value, self.samples
        )
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of `samples` by the rule "highest
/// percentile with at least [`MIN_BEYOND`] samples beyond it": when `n`
/// samples cannot support `q`, the percentile falls to
/// `1 − MIN_BEYOND / n`. The median is always supported. `None` for
/// an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let supported = 1.0 - MIN_BEYOND as f64 / n as f64;
    let q = if q <= 0.5 {
        q
    } else {
        q.min(supported.max(0.5))
    };
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it, so exactly n − rank samples lie beyond it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        percentile: q * 100.0,
        samples: n,
    })
}

/// Median of `samples` (`0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |q| q.value)
}

/// Latency of a request in an open-loop phase, charged from the time
/// it was due, not the time the generator got round to sending it: a
/// stall that delays later sends is counted against those requests.
pub fn due_latency_ns(due_ns: u64, recv_ns: u64) -> u64 {
    recv_ns.saturating_sub(due_ns)
}

/// Bucket-wise difference `after − before` of two snapshots of one
/// monotone server histogram.
pub fn histogram_delta(before: &Histogram, after: &Histogram) -> Vec<u64> {
    (0..after.buckets())
        .map(|i| {
            let earlier = if i < before.buckets() {
                before.bucket_count(i)
            } else {
                0
            };
            after.bucket_count(i).saturating_sub(earlier)
        })
        .collect()
}

/// The `q`-quantile of a log₂-bucketed count vector (bucket `i` holds
/// `[2^i, 2^(i+1))`, bucket 0 also holds 0), interpolated linearly
/// inside its bucket. `0.0` for no observations.
pub fn bucket_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = seen + c as f64;
        if next >= target {
            let low = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let high = (1u64 << (i + 1)) as f64;
            return low + (high - low) * ((target - seen) / c as f64);
        }
        seen = next;
    }
    (1u64 << counts.len()) as f64
}

/// One span: a named interval on the run's clock, its parent (index
/// into the same [`Trace`]) and the request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `tcp.rtt`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start: u64,
    /// End, nanoseconds since the run's origin.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by one request's spans.
    pub req: u64,
}

/// Spans kept in memory for the run and written out when it ends.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its index (for children to name as
    /// their parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `index` (opened with a placeholder end).
    pub fn close(&mut self, index: usize, end: u64) {
        self.spans[index].end = end;
    }

    /// Appends another trace's spans, re-basing their parent indices.
    pub fn extend(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children are
    /// counted once; a child sticking out of its parent is clipped).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start;
                for (start, end) in kids {
                    let start = start.max(cursor);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times (in `unit_ns` units) of every span called `name`.
    pub fn self_times_of(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(span, _)| span.name == name)
            .map(|(_, t)| t as f64 / unit_ns)
            .collect()
    }

    /// One line per span name: count, and self-time median and tail in
    /// microseconds, sorted by name.
    pub fn summary(&self) -> Vec<String> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let times = self.self_times_of(name, 1e3);
                let tail = quantile(&times, 0.99).map_or_else(String::new, |q| q.describe());
                format!(
                    "span {name}: count={} self_us p50 = {:.3}, {tail}",
                    times.len(),
                    median(&times)
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!(p99.percentile, 99.0);
        assert_eq!(p99.samples, 2000);
        assert_eq!(p99.value, 1980.0);
        assert_eq!(samples.iter().filter(|&&v| v > p99.value).count(), 20);

        // 500 samples support only p98: exactly ten beyond it.
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        let tail = quantile(&samples, 0.99).unwrap();
        assert!((tail.percentile - 98.0).abs() < 1e-9);
        assert_eq!(samples.iter().filter(|&&v| v > tail.value).count(), 10);
        assert!(tail.describe().contains("n=500"));

        // Tiny samples fall back to the median, never below it.
        let tail = quantile(&[3.0, 1.0, 2.0], 0.99).unwrap();
        assert_eq!((tail.percentile, tail.value), (50.0, 2.0));
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn stalled_generator_is_charged_from_due_time() {
        // Requests due every 1 ms; the generator stalls 20 ms before
        // sending the first, then sends all five at once, each served
        // in 0.1 ms after it was sent.
        let period = 1_000_000u64;
        let stall = 20_000_000u64;
        let service = 100_000u64;
        let latencies: Vec<u64> = (0..5u64)
            .map(|i| {
                let due = i * period;
                let sent = stall;
                due_latency_ns(due, sent + service)
            })
            .collect();
        // Send-time latency would read 0.1 ms for every request.
        assert_eq!(
            latencies,
            vec![20_100_000, 19_100_000, 18_100_000, 17_100_000, 16_100_000]
        );
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut trace = Trace::default();
        let root = trace.push("root", 0, 100, None, 7);
        let a = trace.push("a", 10, 40, Some(root), 7);
        // Overlaps `a`: the union [10, 50) is covered, not 30 + 20.
        trace.push("b", 30, 50, Some(root), 7);
        // Sticks out past the parent's end: clipped to [90, 100).
        trace.push("c", 90, 120, Some(root), 7);
        // Grandchild: counts against `a`, not against the root.
        trace.push("leaf", 15, 25, Some(a), 7);
        assert_eq!(trace.self_times(), vec![100 - 40 - 10, 30 - 10, 20, 30, 10]);
        assert_eq!(trace.self_times_of("a", 1.0), vec![20.0]);

        let mut merged = Trace::default();
        merged.push("other", 0, 5, None, 1);
        merged.extend(trace);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert_eq!(merged.self_times()[1], 50);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_a_bucket() {
        // 10 observations in [256, 512).
        let mut counts = vec![0u64; 12];
        counts[8] = 10;
        assert_eq!(bucket_quantile(&counts, 0.5), 384.0);
        assert_eq!(bucket_quantile(&counts, 1.0), 512.0);
        assert_eq!(bucket_quantile(&[0, 0], 0.5), 0.0);

        let mut before = Histogram::new(4);
        before.observe(3);
        let mut after = before.clone();
        after.observe(5);
        after.observe(6);
        assert_eq!(histogram_delta(&before, &after), vec![0, 0, 2, 0]);
    }
}
