//! Communication traces and CYPRESS-style compression.
//!
//! The paper profiles applications with CYPRESS (Zhai et al., SC'14),
//! which combines static program structure with runtime trace compression:
//! loops in the source produce repeated communication phases, and the
//! compressor stores `body × repeat-count` instead of the flat event list.
//! This module reproduces that idea: a flat [`Trace`] of send events and a
//! [`CompressedTrace`] built by greedy periodic-run detection, with exact
//! (lossless) round-tripping. Both forms aggregate into a
//! [`CommPattern`].

use crate::pattern::{CommPattern, PatternBuilder};
use serde::{Deserialize, Serialize};

/// One traced communication event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message size in bytes.
    pub bytes: u64,
}

/// A flat, ordered list of communication events (one application run).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from events.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Self { events }
    }

    /// Record an event.
    pub fn push(&mut self, src: usize, dst: usize, bytes: u64) {
        self.events.push(TraceEvent { src, dst, bytes });
    }

    /// The raw events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Aggregate into a [`CommPattern`] over `n` ranks.
    pub fn to_pattern(&self, n: usize) -> CommPattern {
        let mut b = PatternBuilder::new(n);
        for e in &self.events {
            b.record(e.src, e.dst, e.bytes);
        }
        b.build()
    }

    /// Compress with greedy periodic-run detection (CYPRESS's dynamic
    /// compression step).
    pub fn compress(&self) -> CompressedTrace {
        CompressedTrace::compress(self)
    }
}

/// One segment of a compressed trace: a body repeated `repeats` times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// The events of one period.
    pub body: Vec<TraceEvent>,
    /// How many consecutive times the body occurs (≥ 1).
    pub repeats: usize,
}

/// A losslessly compressed trace: a sequence of repeated segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressedTrace {
    segments: Vec<Segment>,
    original_len: usize,
}

impl CompressedTrace {
    /// Greedy left-to-right periodic-run compression.
    ///
    /// At each position we look for the period `p` (up to `MAX_PERIOD`)
    /// whose repetition from here covers the most events, emit it as one
    /// segment and continue after the run. Linear scans bound the work to
    /// `O(len · MAX_PERIOD)`.
    pub fn compress(trace: &Trace) -> Self {
        const MAX_PERIOD: usize = 4096;
        let ev = &trace.events;
        let mut segments: Vec<Segment> = Vec::new();
        let mut i = 0usize;
        while i < ev.len() {
            let remaining = ev.len() - i;
            let mut best_p = 1usize;
            let mut best_reps = 1usize;
            let max_p = MAX_PERIOD.min(remaining / 2);
            for p in 1..=max_p {
                // Count how many extra periods of length p follow.
                let mut reps = 1usize;
                while (reps + 1) * p <= remaining
                    && ev[i + reps * p..i + (reps + 1) * p] == ev[i..i + p]
                {
                    reps += 1;
                }
                if reps > 1 && reps * p > best_reps * best_p {
                    best_p = p;
                    best_reps = reps;
                }
            }
            if best_reps > 1 {
                segments.push(Segment {
                    body: ev[i..i + best_p].to_vec(),
                    repeats: best_reps,
                });
                i += best_p * best_reps;
            } else {
                // No repetition here; extend (or start) a literal segment.
                match segments.last_mut() {
                    Some(seg) if seg.repeats == 1 => seg.body.push(ev[i]),
                    _ => segments.push(Segment {
                        body: vec![ev[i]],
                        repeats: 1,
                    }),
                }
                i += 1;
            }
        }
        Self {
            segments,
            original_len: ev.len(),
        }
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Events stored after compression.
    pub fn compressed_len(&self) -> usize {
        self.segments.iter().map(|s| s.body.len()).sum()
    }

    /// Events in the original trace.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// `original / compressed` (≥ 1; 1 means incompressible).
    pub fn compression_ratio(&self) -> f64 {
        if self.original_len == 0 {
            return 1.0;
        }
        self.original_len as f64 / self.compressed_len().max(1) as f64
    }

    /// Expand back to the flat trace (lossless inverse of `compress`).
    pub fn decompress(&self) -> Trace {
        let mut events = Vec::with_capacity(self.original_len);
        for seg in &self.segments {
            for _ in 0..seg.repeats {
                events.extend_from_slice(&seg.body);
            }
        }
        Trace { events }
    }

    /// Aggregate into a [`CommPattern`] *without* expanding — each body
    /// event contributes `repeats` messages. This is why profiling stays
    /// cheap for long runs (the paper's 100 back-to-back executions).
    pub fn to_pattern(&self, n: usize) -> CommPattern {
        let mut b = PatternBuilder::new(n);
        for seg in &self.segments {
            for e in &seg.body {
                b.record_many(e.src, e.dst, e.bytes, seg.repeats as u64);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: usize, dst: usize, bytes: u64) -> TraceEvent {
        TraceEvent { src, dst, bytes }
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        let c = t.compress();
        assert_eq!(c.compression_ratio(), 1.0);
        assert_eq!(c.decompress(), t);
    }

    #[test]
    fn simple_loop_is_collapsed() {
        // (0->1, 1->0) repeated 50 times: body of 2, repeats 50.
        let mut t = Trace::new();
        for _ in 0..50 {
            t.push(0, 1, 100);
            t.push(1, 0, 100);
        }
        let c = t.compress();
        assert_eq!(c.segments().len(), 1);
        assert_eq!(c.segments()[0].repeats, 50);
        assert_eq!(c.compressed_len(), 2);
        assert_eq!(c.compression_ratio(), 50.0);
        assert_eq!(c.decompress(), t);
    }

    #[test]
    fn nested_structure_prefix_suffix() {
        let mut t = Trace::new();
        t.push(9, 8, 1); // prologue
        for _ in 0..10 {
            t.push(0, 1, 42);
        }
        t.push(8, 9, 1); // epilogue
        let c = t.compress();
        assert_eq!(c.decompress(), t);
        assert!(c.compressed_len() <= 3, "got {}", c.compressed_len());
    }

    #[test]
    fn incompressible_trace_stays_flat() {
        let mut t = Trace::new();
        for i in 0..20 {
            t.push(i, i + 1, (i * 7 + 1) as u64);
        }
        let c = t.compress();
        assert_eq!(c.compression_ratio(), 1.0);
        assert_eq!(c.decompress(), t);
    }

    #[test]
    fn pattern_from_compressed_equals_pattern_from_flat() {
        let mut t = Trace::new();
        for it in 0..30 {
            t.push(0, 1, 43_000);
            t.push(0, 2, 83_000);
            t.push(1, 3, 43_000);
            if it % 3 == 0 {
                t.push(3, 0, 8);
            }
        }
        let flat = t.to_pattern(4);
        let compressed = t.compress().to_pattern(4);
        assert_eq!(flat, compressed);
    }

    #[test]
    fn longer_period_detected() {
        // Period of 3 events repeated 7 times.
        let body = [ev(0, 1, 5), ev(1, 2, 6), ev(2, 0, 7)];
        let mut events = Vec::new();
        for _ in 0..7 {
            events.extend_from_slice(&body);
        }
        let c = Trace::from_events(events).compress();
        assert_eq!(c.segments().len(), 1);
        assert_eq!(c.segments()[0].body.len(), 3);
        assert_eq!(c.segments()[0].repeats, 7);
    }

    #[test]
    fn compression_is_lossless_on_mixed_input() {
        let mut t = Trace::new();
        // literal, loop, literal, different loop
        t.push(5, 6, 1);
        for _ in 0..4 {
            t.push(0, 1, 2);
        }
        t.push(6, 5, 1);
        for _ in 0..9 {
            t.push(2, 3, 10);
            t.push(3, 2, 11);
        }
        let c = t.compress();
        assert_eq!(c.decompress(), t);
        assert_eq!(c.original_len(), t.len());
        assert!(c.compression_ratio() > 2.0);
    }

    #[test]
    fn to_pattern_counts_messages() {
        let mut t = Trace::new();
        t.push(0, 1, 10);
        t.push(0, 1, 20);
        let p = t.to_pattern(2);
        assert_eq!(p.bytes(0, 1), 30.0);
        assert_eq!(p.msgs(0, 1), 2.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_compress_roundtrip(
            raw in proptest::collection::vec((0usize..6, 0usize..6, 1u64..4), 0..200),
            reps in 1usize..5,
        ) {
            // Build a trace with artificial repetition structure.
            let mut t = Trace::new();
            for _ in 0..reps {
                for &(s, d, b) in &raw {
                    t.push(s, d, b);
                }
            }
            let c = t.compress();
            proptest::prop_assert_eq!(c.decompress(), t.clone());
            proptest::prop_assert_eq!(c.to_pattern(6), t.to_pattern(6));
            proptest::prop_assert!(c.compressed_len() <= t.len().max(1));
        }
    }
}
