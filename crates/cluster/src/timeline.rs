//! Per-minute timeline aggregation for the Fig. 22 series.
//!
//! The paper's cluster figure plots three stacked panels over the two-hour
//! trace: throughput (requests per second), 99%-ile latency, and average
//! latency, for Abacus and Clockwork against the offered load.

use abacus_metrics::{percentile, QueryOutcome, QueryRecord};
use telemetry::{ChromeTrace, PID_COUNTERS};
use workload::Arrival;

/// One minute of the Fig. 22 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Bucket index (a minute in the Fig. 22 series; arbitrary width via
    /// [`build_timeline_bucketed`]).
    pub minute: usize,
    /// Offered load, requests/s (arrival batch sizes summed).
    pub offered_rps: f64,
    /// Achieved throughput, completed requests/s.
    pub achieved_rps: f64,
    /// 99%-ile latency of completions in this minute, ms.
    pub p99_ms: f64,
    /// Mean latency of completions in this minute, ms.
    pub avg_ms: f64,
}

/// Build the per-minute series from arrivals (with batch sizes) and records.
pub fn build_timeline(
    arrivals: &[Arrival],
    arrival_requests: &[u32],
    records: &[QueryRecord],
    minutes: usize,
) -> Vec<TimelinePoint> {
    build_timeline_bucketed(arrivals, arrival_requests, records, minutes, 60_000.0)
}

/// [`build_timeline`] with an arbitrary bucket width (ms). With
/// `bucket_ms = 60_000.0` this is exactly the per-minute Fig. 22 series
/// (the /60 denominator falls out of `bucket_ms / 1000`, both exact).
pub fn build_timeline_bucketed(
    arrivals: &[Arrival],
    arrival_requests: &[u32],
    records: &[QueryRecord],
    buckets: usize,
    bucket_ms: f64,
) -> Vec<TimelinePoint> {
    assert_eq!(arrivals.len(), arrival_requests.len());
    assert!(bucket_ms > 0.0);
    let bucket_s = bucket_ms / 1000.0;
    let mut offered = vec![0.0f64; buckets];
    for (a, &req) in arrivals.iter().zip(arrival_requests) {
        let m = (a.at_ms / bucket_ms) as usize;
        if m < buckets {
            offered[m] += f64::from(req);
        }
    }
    let mut achieved = vec![0.0f64; buckets];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); buckets];
    for r in records {
        if r.outcome != QueryOutcome::Completed {
            continue;
        }
        let end = r.arrival_ms + r.latency_ms;
        let m = (end / bucket_ms) as usize;
        if m < buckets {
            achieved[m] += f64::from(r.requests);
            latencies[m].push(r.latency_ms);
        }
    }
    (0..buckets)
        .map(|m| TimelinePoint {
            minute: m,
            offered_rps: offered[m] / bucket_s,
            achieved_rps: achieved[m] / bucket_s,
            p99_ms: percentile(&latencies[m], 99.0),
            avg_ms: abacus_metrics::mean(&latencies[m]),
        })
        .collect()
}

/// Lower a timeline onto Chrome trace counter (`C`) tracks: one sample per
/// bucket for offered vs achieved load, and one for the bucket's p99
/// latency — the Perfetto view of the Fig. 22 panels.
pub fn add_counter_tracks(trace: &mut ChromeTrace, points: &[TimelinePoint], bucket_ms: f64) {
    trace.add_process_name(PID_COUNTERS, "load");
    for p in points {
        let ts = p.minute as f64 * bucket_ms;
        trace.add_counter(
            PID_COUNTERS,
            "rps",
            ts,
            &[("offered", p.offered_rps), ("achieved", p.achieved_rps)],
        );
        trace.add_counter(PID_COUNTERS, "p99_ms", ts, &[("p99", p.p99_ms)]);
    }
}

/// Aggregate over the whole run (skipping a warm-up prefix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSummary {
    /// Mean achieved throughput, requests/s.
    pub mean_rps: f64,
    /// 99%-ile latency over all completions, ms.
    pub p99_ms: f64,
    /// Mean latency over all completions, ms.
    pub avg_ms: f64,
    /// Fraction of queries dropped.
    pub drop_ratio: f64,
}

/// Summarise a run, ignoring the first `warmup_minutes` of the trace.
pub fn summarize(
    records: &[QueryRecord],
    warmup_minutes: usize,
    minutes: usize,
) -> TimelineSummary {
    let start = warmup_minutes as f64 * 60_000.0;
    let span_s = ((minutes - warmup_minutes) as f64) * 60.0;
    let mut requests = 0.0;
    let mut lats = Vec::new();
    let mut dropped = 0usize;
    let mut total = 0usize;
    for r in records {
        if r.arrival_ms < start {
            continue;
        }
        total += 1;
        match r.outcome {
            QueryOutcome::Completed => {
                requests += f64::from(r.requests);
                lats.push(r.latency_ms);
            }
            QueryOutcome::Dropped | QueryOutcome::TimedOut => dropped += 1,
        }
    }
    TimelineSummary {
        mean_rps: requests / span_s,
        p99_ms: percentile(&lats, 99.0),
        avg_ms: abacus_metrics::mean(&lats),
        drop_ratio: if total == 0 {
            0.0
        } else {
            dropped as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival: f64, latency: f64, outcome: QueryOutcome, requests: u32) -> QueryRecord {
        QueryRecord {
            service: 0,
            arrival_ms: arrival,
            latency_ms: latency,
            qos_ms: 100.0,
            outcome,
            requests,
            queue_ms: latency * 0.5,
        }
    }

    #[test]
    fn timeline_buckets_by_completion_minute() {
        let arrivals = vec![
            Arrival {
                service: 0,
                at_ms: 1_000.0,
            },
            Arrival {
                service: 0,
                at_ms: 59_900.0,
            },
        ];
        let reqs = vec![8, 16];
        // First completes in minute 0; second crosses into minute 1.
        let records = vec![
            rec(1_000.0, 50.0, QueryOutcome::Completed, 8),
            rec(59_900.0, 500.0, QueryOutcome::Completed, 16),
        ];
        let tl = build_timeline(&arrivals, &reqs, &records, 2);
        assert_eq!(tl.len(), 2);
        assert!((tl[0].offered_rps - 24.0 / 60.0).abs() < 1e-12);
        assert!((tl[0].achieved_rps - 8.0 / 60.0).abs() < 1e-12);
        assert!((tl[1].achieved_rps - 16.0 / 60.0).abs() < 1e-12);
        assert_eq!(tl[0].p99_ms, 50.0);
    }

    #[test]
    fn summary_skips_warmup_and_counts_drops() {
        let records = vec![
            rec(10_000.0, 10.0, QueryOutcome::Completed, 4), // warm-up, skipped
            rec(70_000.0, 20.0, QueryOutcome::Completed, 4),
            rec(80_000.0, 30.0, QueryOutcome::Dropped, 4),
        ];
        let s = summarize(&records, 1, 2);
        assert!((s.drop_ratio - 0.5).abs() < 1e-12);
        assert!((s.avg_ms - 20.0).abs() < 1e-12);
        assert!((s.mean_rps - 4.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn empty_minutes_have_zero_stats() {
        let tl = build_timeline(&[], &[], &[], 3);
        assert_eq!(tl.len(), 3);
        assert!(tl.iter().all(|p| p.achieved_rps == 0.0 && p.p99_ms == 0.0));
    }

    #[test]
    fn bucketed_with_minute_width_matches_build_timeline() {
        let arrivals = vec![
            Arrival {
                service: 0,
                at_ms: 1_000.0,
            },
            Arrival {
                service: 1,
                at_ms: 61_000.0,
            },
        ];
        let reqs = vec![8, 16];
        let records = vec![
            rec(1_000.0, 50.0, QueryOutcome::Completed, 8),
            rec(61_000.0, 70.0, QueryOutcome::Completed, 16),
        ];
        let a = build_timeline(&arrivals, &reqs, &records, 2);
        let b = build_timeline_bucketed(&arrivals, &reqs, &records, 2, 60_000.0);
        assert_eq!(a, b);
        // Finer buckets re-normalise the rates to the bucket width.
        let fine = build_timeline_bucketed(&arrivals, &reqs, &records, 4, 30_000.0);
        assert_eq!(fine.len(), 4);
        assert!((fine[0].offered_rps - 8.0 / 30.0).abs() < 1e-12);
        assert!((fine[2].achieved_rps - 16.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn counter_tracks_emit_one_sample_pair_per_bucket() {
        let points = vec![
            TimelinePoint {
                minute: 0,
                offered_rps: 10.0,
                achieved_rps: 9.0,
                p99_ms: 40.0,
                avg_ms: 20.0,
            },
            TimelinePoint {
                minute: 1,
                offered_rps: 12.0,
                achieved_rps: 11.0,
                p99_ms: 45.0,
                avg_ms: 22.0,
            },
        ];
        let mut trace = ChromeTrace::new();
        add_counter_tracks(&mut trace, &points, 500.0);
        // 1 process-name event + 2 counter events per point.
        assert_eq!(trace.len(), 1 + 2 * points.len());
        let json = trace.to_json();
        assert!(json.contains("\"offered\":12"));
        assert!(json.contains("\"ts\":500000")); // minute 1 at 500 ms = 5e5 µs
    }
}
