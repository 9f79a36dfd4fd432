//! The communication pattern: the paper's `CG` (volume) and `AG` (count)
//! matrices.
//!
//! The representation is sparse-first: each process keeps a sorted edge
//! list of the peers it sends to. Real HPC patterns are sparse (LU talks
//! to ≤ 4 neighbours; recursive doubling to log₂N partners), and the
//! paper simulates up to 8192 processes, where dense `N×N` matrices would
//! cost gigabytes. Dense `CG`/`AG` exports are available for small `N`
//! (display, MPIPP's dense partitioner).

use geonet::SquareMatrix;
use serde::{Deserialize, Serialize};

/// One directed communication edge: everything process `src` sends to
/// `dst` over the whole execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Destination process.
    pub dst: usize,
    /// Total bytes sent (`CG(src, dst)`).
    pub bytes: f64,
    /// Number of messages (`AG(src, dst)`).
    pub msgs: f64,
}

/// Undirected view of the traffic between two processes, used by the
/// greedy mappers ("communication quantity between i and j").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partner {
    /// The peer process.
    pub peer: usize,
    /// `CG(i,peer) + CG(peer,i)`.
    pub bytes: f64,
    /// `AG(i,peer) + AG(peer,i)`.
    pub msgs: f64,
}

/// A communication pattern over `n` processes: sparse `CG`/`AG`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommPattern {
    n: usize,
    /// Out-edges per source, sorted by destination.
    out: Vec<Vec<Edge>>,
    total_bytes: f64,
    total_msgs: f64,
}

/// Incremental builder accumulating traffic before freezing into a
/// [`CommPattern`].
#[derive(Debug, Clone)]
pub struct PatternBuilder {
    n: usize,
    /// Out-edges per source, kept sorted by destination and updated in
    /// place.
    rows: Vec<Vec<Edge>>,
}

impl PatternBuilder {
    /// Start a builder for `n` processes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Add traffic to the edge `src → dst` (in range, not a self-edge).
    /// A destination past the row's last edge is appended; otherwise a
    /// binary search finds it, and a repeat adds in recording order
    /// while a new destination is inserted in place. A new edge holds
    /// `0.0 + weight`, so a `-0.0` weight is stored as `+0.0`.
    fn add(&mut self, src: usize, dst: usize, bytes: f64, msgs: f64) {
        let row = &mut self.rows[src];
        let at = match row.last() {
            Some(last) if last.dst >= dst => row.partition_point(|e| e.dst < dst),
            _ => row.len(),
        };
        match row.get_mut(at) {
            Some(e) if e.dst == dst => {
                e.bytes += bytes;
                e.msgs += msgs;
            }
            _ => row.insert(
                at,
                Edge {
                    dst,
                    bytes: 0.0 + bytes,
                    msgs: 0.0 + msgs,
                },
            ),
        }
    }

    /// Record one message of `bytes` bytes from `src` to `dst`.
    ///
    /// Self-messages are ignored (local copies are free in the paper's
    /// model — the diagonal of Fig. 3 is empty).
    pub fn record(&mut self, src: usize, dst: usize, bytes: u64) {
        self.record_many(src, dst, bytes, 1);
    }

    /// Record `count` messages of `bytes` bytes each from `src` to `dst`.
    pub fn record_many(&mut self, src: usize, dst: usize, bytes: u64, count: u64) {
        assert!(
            src < self.n && dst < self.n,
            "rank out of range ({src},{dst}) for n={}",
            self.n
        );
        if src == dst || count == 0 {
            return;
        }
        self.add(src, dst, (bytes * count) as f64, count as f64);
    }

    /// Record pre-aggregated traffic from `src` to `dst` — the entry
    /// point for graph contraction, where summed coarse-edge weights
    /// are already fractional-free `f64` totals rather than message
    /// counts. Self-edges and empty transfers are ignored like
    /// [`record_many`](Self::record_many); weights must be finite and
    /// non-negative.
    pub fn record_weighted(&mut self, src: usize, dst: usize, bytes: f64, msgs: f64) {
        assert!(
            src < self.n && dst < self.n,
            "rank out of range ({src},{dst}) for n={}",
            self.n
        );
        assert!(
            bytes.is_finite() && msgs.is_finite() && bytes >= 0.0 && msgs >= 0.0,
            "non-finite or negative edge weight ({bytes}, {msgs})"
        );
        if src == dst || (bytes == 0.0 && msgs == 0.0) {
            return;
        }
        self.add(src, dst, bytes, msgs);
    }

    /// Freeze into an immutable pattern. Each row is copied into an
    /// allocation of its exact length: a grown row carries up to half
    /// its capacity spare, which every cached problem would hold.
    pub fn build(self) -> CommPattern {
        let rows = self.rows.into_iter().map(|r| r.to_vec()).collect();
        CommPattern::from_sorted_rows(self.n, rows)
    }
}

impl CommPattern {
    /// An empty pattern over `n` processes.
    pub fn empty(n: usize) -> Self {
        PatternBuilder::new(n).build()
    }

    /// Build a pattern from dense `CG` (bytes) and `AG` (counts) matrices.
    ///
    /// # Panics
    /// Panics if the matrices disagree in size or an element is negative,
    /// or if volume and count disagree about an edge existing.
    pub fn from_dense(cg: &SquareMatrix, ag: &SquareMatrix) -> Self {
        assert_eq!(cg.n(), ag.n(), "CG and AG must agree in size");
        let n = cg.n();
        let mut b = PatternBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (v, c) = (cg.get(i, j), ag.get(i, j));
                assert!(v >= 0.0 && c >= 0.0, "negative traffic at ({i},{j})");
                assert!(
                    (v > 0.0) == (c > 0.0),
                    "CG and AG disagree about edge ({i},{j}): volume {v}, count {c}"
                );
                if c > 0.0 {
                    b.rows[i].push(Edge {
                        dst: j,
                        bytes: v,
                        msgs: c,
                    });
                }
            }
        }
        b.build()
    }

    /// Build a pattern directly from per-source out-edge lists, each
    /// sorted by destination with at most one entry per destination —
    /// the graph-contraction path. Coarsening sorts and merges its edges
    /// itself, so the rows are only checked and moved in, not re-sorted.
    ///
    /// # Panics
    /// Panics if a row is unsorted or repeats a destination, an edge is
    /// a self-loop or out of range, or a weight is negative, non-finite,
    /// or entirely zero.
    pub fn from_edge_lists(rows: Vec<Vec<Edge>>) -> Self {
        let n = rows.len();
        for (src, row) in rows.iter().enumerate() {
            let mut prev: Option<usize> = None;
            for e in row {
                assert!(
                    e.dst < n && e.dst != src,
                    "bad edge ({src},{}) for n={n}",
                    e.dst
                );
                assert!(
                    prev.is_none_or(|p| p < e.dst),
                    "row {src} not sorted/deduplicated at dst {}",
                    e.dst
                );
                assert!(
                    e.bytes.is_finite()
                        && e.msgs.is_finite()
                        && e.bytes >= 0.0
                        && e.msgs >= 0.0
                        && (e.bytes > 0.0 || e.msgs > 0.0),
                    "bad edge weight ({src},{}): {} bytes, {} msgs",
                    e.dst,
                    e.bytes,
                    e.msgs
                );
                prev = Some(e.dst);
            }
        }
        Self::from_sorted_rows(n, rows)
    }

    /// Wrap rows already sorted by destination, summing the totals in
    /// row order.
    fn from_sorted_rows(n: usize, out: Vec<Vec<Edge>>) -> Self {
        let (mut total_bytes, mut total_msgs) = (0.0, 0.0);
        for e in out.iter().flatten() {
            total_bytes += e.bytes;
            total_msgs += e.msgs;
        }
        CommPattern {
            n,
            out,
            total_bytes,
            total_msgs,
        }
    }

    /// Number of processes `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Out-edges of process `i`, sorted by destination.
    #[inline]
    pub fn out_edges(&self, i: usize) -> &[Edge] {
        &self.out[i]
    }

    /// Volume `CG(i, j)` in bytes (0 if no edge).
    pub fn bytes(&self, i: usize, j: usize) -> f64 {
        self.find(i, j).map_or(0.0, |e| e.bytes)
    }

    /// Message count `AG(i, j)` (0 if no edge).
    pub fn msgs(&self, i: usize, j: usize) -> f64 {
        self.find(i, j).map_or(0.0, |e| e.msgs)
    }

    fn find(&self, i: usize, j: usize) -> Option<&Edge> {
        let row = &self.out[i];
        row.binary_search_by_key(&j, |e| e.dst)
            .ok()
            .map(|idx| &row[idx])
    }

    /// Total traffic volume in bytes (`Σ CG`).
    #[inline]
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// Total number of messages (`Σ AG`).
    #[inline]
    pub fn total_msgs(&self) -> f64 {
        self.total_msgs
    }

    /// Number of directed non-zero edges.
    pub fn num_edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// The "communication quantity" of process `i`: all bytes it sends
    /// plus all bytes it receives (Algorithm 1's selection key).
    pub fn comm_quantity(&self, i: usize) -> f64 {
        let sent: f64 = self.out[i].iter().map(|e| e.bytes).sum();
        let recv: f64 = (0..self.n)
            .filter(|&j| j != i)
            .map(|j| self.bytes(j, i))
            .sum();
        sent + recv
    }

    /// Undirected partner lists: for each `i`, the peers it exchanges any
    /// traffic with, sorted by peer, with summed bidirectional
    /// volume/count. The mappers call this once and reuse it.
    ///
    /// `O(E)`: a counting sort lays the in-edges out as a CSR whose rows
    /// are sorted by source, and each out-row is merged with its in-row.
    /// Each sum is `0.0 + out + in` (a missing direction adds `0.0`), so
    /// it has the same bits whichever endpoint computes it. Every row is
    /// allocated at its exact length.
    pub fn partners(&self) -> Vec<Vec<Partner>> {
        // The zero-weight stand-in for a missing edge in the merge.
        const NO_EDGE: Edge = Edge {
            dst: usize::MAX,
            bytes: 0.0,
            msgs: 0.0,
        };
        let n = self.n;
        let mut start = vec![0usize; n + 1];
        for e in self.out.iter().flatten() {
            start[e.dst + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut inc = vec![NO_EDGE; start[n]];
        for (src, row) in self.out.iter().enumerate() {
            for e in row {
                inc[next[e.dst]] = Edge { dst: src, ..*e };
                next[e.dst] += 1;
            }
        }

        let dst = |e: Option<&Edge>| e.map_or(usize::MAX, |e| e.dst);
        let mut merged = Vec::new();
        (0..n)
            .map(|i| {
                let (out, inr) = (&self.out[i], &inc[start[i]..start[i + 1]]);
                let (mut a, mut b) = (0, 0);
                merged.clear();
                while a < out.len() || b < inr.len() {
                    let peer = dst(out.get(a)).min(dst(inr.get(b)));
                    let o = out.get(a).filter(|e| e.dst == peer);
                    let r = inr.get(b).filter(|e| e.dst == peer);
                    a += usize::from(o.is_some());
                    b += usize::from(r.is_some());
                    let (o, r) = (o.unwrap_or(&NO_EDGE), r.unwrap_or(&NO_EDGE));
                    merged.push(Partner {
                        peer,
                        bytes: 0.0 + o.bytes + r.bytes,
                        msgs: 0.0 + o.msgs + r.msgs,
                    });
                }
                merged.clone()
            })
            .collect()
    }

    /// Dense `CG` export (bytes). Intended for small `N` (display, MPIPP).
    pub fn to_dense_cg(&self) -> SquareMatrix {
        self.to_dense(|e| e.bytes)
    }

    /// Dense `AG` export (counts).
    pub fn to_dense_ag(&self) -> SquareMatrix {
        self.to_dense(|e| e.msgs)
    }

    fn to_dense(&self, weight: impl Fn(&Edge) -> f64) -> SquareMatrix {
        let mut m = SquareMatrix::zeros(self.n);
        for (src, row) in self.out.iter().enumerate() {
            for e in row {
                m.set(src, e.dst, weight(e));
            }
        }
        m
    }

    /// Fraction of traffic volume on edges with `|i−j| ≤ band`.
    ///
    /// The paper observes (Fig. 3) that LU/BT/SP have "near diagonal"
    /// matrices — high locality under this metric — while K-means is
    /// complex and spread out.
    pub fn diagonal_locality(&self, band: usize) -> f64 {
        if self.total_bytes == 0.0 {
            return 1.0;
        }
        let mut near = 0.0;
        for (src, row) in self.out.iter().enumerate() {
            for e in row {
                if src.abs_diff(e.dst) <= band {
                    near += e.bytes;
                }
            }
        }
        near / self.total_bytes
    }

    /// ASCII heatmap of `CG` (log-scaled), for Fig. 3-style display.
    pub fn ascii_heatmap(&self, cell: usize) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let n = self.n;
        let buckets = n.div_ceil(cell.max(1));
        let mut grid = vec![0.0f64; buckets * buckets];
        for (src, row) in self.out.iter().enumerate() {
            for e in row {
                grid[(src / cell) * buckets + e.dst / cell] += e.bytes;
            }
        }
        let max = grid.iter().cloned().fold(0.0f64, f64::max);
        let mut s = String::with_capacity(buckets * (buckets + 1));
        for r in 0..buckets {
            for c in 0..buckets {
                let v = grid[r * buckets + c];
                let idx = if v <= 0.0 || max <= 0.0 {
                    0
                } else {
                    let t = (1.0 + v).ln() / (1.0 + max).ln();
                    1 + ((t * (SHADES.len() - 2) as f64).round() as usize).min(SHADES.len() - 2)
                };
                s.push(SHADES[idx] as char);
            }
            s.push('\n');
        }
        s
    }

    /// CSV of the non-zero edges: `src,dst,bytes,msgs`.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(20 + 24 * self.num_edges());
        s.push_str("src,dst,bytes,msgs\n");
        for (src, row) in self.out.iter().enumerate() {
            for e in row {
                writeln!(s, "{},{},{},{}", src, e.dst, e.bytes, e.msgs)
                    .expect("writing to a String");
            }
        }
        s
    }

    /// Parse a pattern from the [`CommPattern::to_csv`] edge-list format
    /// over `n` processes (e.g. a CYPRESS dump converted by the user).
    /// Repeated `src,dst` rows accumulate. Ranks are whole numbers below
    /// `n`; traffic is finite, with `bytes ≥ 0` and `msgs > 0`.
    pub fn from_csv(n: usize, csv: &str) -> Result<CommPattern, String> {
        let header = csv.lines().next().ok_or("empty input")?;
        let mut at = csv.find('\n').map_or(csv.len(), |k| k + 1);
        if header.trim() != "src,dst,bytes,msgs" {
            return Err(format!(
                "bad header {header:?}, expected \"src,dst,bytes,msgs\""
            ));
        }
        let mut b = PatternBuilder::new(n);
        for lineno in 1.. {
            if at >= csv.len() {
                break;
            }
            let fields = match digit_line(csv.as_bytes(), at) {
                Some((fields, next)) => {
                    at = next;
                    fields
                }
                None => {
                    let line = csv[at..].lines().next().unwrap_or_default();
                    at = csv[at..].find('\n').map_or(csv.len(), |k| at + k + 1);
                    if line.trim().is_empty() {
                        continue;
                    }
                    let mut fields = line.splitn(5, ',');
                    let (Some(f0), Some(f1), Some(f2), Some(f3), None) = (
                        fields.next(),
                        fields.next(),
                        fields.next(),
                        fields.next(),
                        fields.next(),
                    ) else {
                        return Err(format!(
                            "line {}: expected 4 fields, got {}",
                            lineno + 1,
                            line.split(',').count()
                        ));
                    };
                    (
                        csv_field(f0, "src", lineno)?,
                        csv_field(f1, "dst", lineno)?,
                        csv_field(f2, "bytes", lineno)?,
                        csv_field(f3, "msgs", lineno)?,
                    )
                }
            };
            let (src, dst, bytes, msgs) = fields;
            if src >= n || dst >= n {
                return Err(format!("line {}: rank out of range for n={n}", lineno + 1));
            }
            if !bytes.is_finite() || !msgs.is_finite() {
                return Err(format!("line {}: non-finite traffic", lineno + 1));
            }
            if bytes < 0.0 || msgs <= 0.0 {
                return Err(format!("line {}: non-positive traffic", lineno + 1));
            }
            if src != dst {
                b.add(src, dst, bytes, msgs);
            }
        }
        Ok(b.build())
    }

    /// Scale all volumes and counts by a factor (e.g. the paper's "run
    /// each application 100 times back-to-back").
    pub fn scaled(&self, factor: f64) -> CommPattern {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut p = self.clone();
        for e in p.out.iter_mut().flatten() {
            e.bytes *= factor;
            e.msgs *= factor;
        }
        p.total_bytes *= factor;
        p.total_msgs *= factor;
        p
    }
}

/// The common line shape in one byte scan: four fields of 1–15 ASCII
/// digits, comma-separated, ended by `\n`, `\r\n` or the input's end.
/// Fifteen digits stay below 2⁵³, so the `u64` converts to the same
/// exact `f64` that `str::parse` returns. Returns the fields and the
/// offset past the line, or `None` for any other line.
fn digit_line(csv: &[u8], mut at: usize) -> Option<((usize, usize, f64, f64), usize)> {
    let mut v = [0u64; 4];
    for (k, field) in v.iter_mut().enumerate() {
        let begin = at;
        while let Some(d) = csv.get(at).filter(|c| c.is_ascii_digit()) {
            *field = *field * 10 + u64::from(d - b'0');
            at += 1;
        }
        if at == begin || at - begin > 15 {
            return None;
        }
        at += match (k, &csv[at..]) {
            (0..=2, [b',', ..]) => 1,
            (3, []) => 0,
            (3, [b'\n', ..]) => 1,
            (3, [b'\r', b'\n', ..]) => 2,
            _ => return None,
        };
    }
    let rank = |x: u64| usize::try_from(x).ok();
    Some(((rank(v[0])?, rank(v[1])?, v[2] as f64, v[3] as f64), at))
}

/// One trimmed CSV field of (0-based) line `lineno`, parsed as `T`.
fn csv_field<T: std::str::FromStr>(s: &str, what: &str, lineno: usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.trim()
        .parse()
        .map_err(|e| format!("line {}: bad {what} {s:?}: {e}", lineno + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn small() -> CommPattern {
        let mut b = PatternBuilder::new(4);
        b.record(0, 1, 100);
        b.record(0, 1, 100);
        b.record(1, 0, 50);
        b.record(2, 3, 75);
        b.build()
    }

    #[test]
    fn accumulation() {
        let p = small();
        assert_eq!(p.bytes(0, 1), 200.0);
        assert_eq!(p.msgs(0, 1), 2.0);
        assert_eq!(p.bytes(1, 0), 50.0);
        assert_eq!(p.bytes(3, 2), 0.0);
        assert_eq!(p.total_bytes(), 325.0);
        assert_eq!(p.total_msgs(), 4.0);
        assert_eq!(p.num_edges(), 3);
    }

    #[test]
    fn self_messages_ignored() {
        let mut b = PatternBuilder::new(2);
        b.record(0, 0, 1000);
        let p = b.build();
        assert_eq!(p.total_bytes(), 0.0);
    }

    #[test]
    fn comm_quantity_counts_both_directions() {
        let p = small();
        assert_eq!(p.comm_quantity(0), 250.0);
        assert_eq!(p.comm_quantity(1), 250.0);
        assert_eq!(p.comm_quantity(2), 75.0);
    }

    #[test]
    fn partners_merge_directions() {
        let p = small();
        let parts = p.partners();
        assert_eq!(parts[0].len(), 1);
        assert_eq!(parts[0][0].peer, 1);
        assert_eq!(parts[0][0].bytes, 250.0);
        assert_eq!(parts[0][0].msgs, 3.0);
        assert_eq!(parts[3][0].peer, 2);
    }

    #[test]
    fn dense_roundtrip() {
        let p = small();
        let cg = p.to_dense_cg();
        let ag = p.to_dense_ag();
        let p2 = CommPattern::from_dense(&cg, &ag);
        assert_eq!(p, p2);
    }

    #[test]
    fn diagonal_locality_metric() {
        let mut b = PatternBuilder::new(10);
        b.record(0, 1, 100);
        b.record(5, 6, 100);
        b.record(0, 9, 100);
        let p = b.build();
        assert!((p.diagonal_locality(1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.diagonal_locality(9), 1.0);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let p = small().scaled(100.0);
        assert_eq!(p.bytes(0, 1), 20_000.0);
        assert_eq!(p.msgs(0, 1), 200.0);
        assert_eq!(p.total_msgs(), 400.0);
    }

    #[test]
    fn heatmap_has_expected_shape() {
        let p = small();
        let map = p.ascii_heatmap(1);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == 4));
        // Heaviest cell gets the darkest shade.
        assert_eq!(lines[0].as_bytes()[1], b'@');
        // Empty cell is blank.
        assert_eq!(lines[3].as_bytes()[3], b' ');
    }

    #[test]
    fn csv_lists_all_edges() {
        let csv = small().to_csv();
        assert_eq!(csv.lines().count(), 4); // header + 3 edges
        assert!(csv.contains("0,1,200,2"));
    }

    #[test]
    fn csv_roundtrip() {
        let p = small();
        let back = CommPattern::from_csv(4, &p.to_csv()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn csv_accumulates_duplicate_rows() {
        let csv = "src,dst,bytes,msgs\n0,1,100,1\n0,1,50,2\n";
        let p = CommPattern::from_csv(3, csv).unwrap();
        assert_eq!(p.bytes(0, 1), 150.0);
        assert_eq!(p.msgs(0, 1), 3.0);
    }

    #[test]
    fn csv_errors_are_descriptive() {
        assert!(CommPattern::from_csv(2, "").unwrap_err().contains("empty"));
        assert!(CommPattern::from_csv(2, "x,y\n")
            .unwrap_err()
            .contains("bad header"));
        assert!(CommPattern::from_csv(2, "src,dst,bytes,msgs\n0,1,5\n")
            .unwrap_err()
            .contains("4 fields"));
        assert!(CommPattern::from_csv(2, "src,dst,bytes,msgs\n0,9,5,1\n")
            .unwrap_err()
            .contains("out of range"));
        assert!(CommPattern::from_csv(2, "src,dst,bytes,msgs\n0,1,5,0\n")
            .unwrap_err()
            .contains("non-positive"));
        assert!(CommPattern::from_csv(2, "src,dst,bytes,msgs\n0,zz,5,1\n")
            .unwrap_err()
            .contains("bad dst"));
    }

    #[test]
    fn csv_ranks_are_whole_numbers() {
        for rank in ["-1", "1.7", "NaN", "inf"] {
            let csv = format!("src,dst,bytes,msgs\n{rank},1,5,1\n");
            let err = CommPattern::from_csv(2, &csv).unwrap_err();
            assert!(err.starts_with("line 2: bad src"), "{rank}: {err}");
        }
        let err = CommPattern::from_csv(2, "src,dst,bytes,msgs\n0,-1,5,1\n").unwrap_err();
        assert!(err.starts_with("line 2: bad dst"), "{err}");
    }

    #[test]
    fn csv_traffic_must_be_finite() {
        for (bytes, msgs) in [
            ("NaN", "1"),
            ("5", "NaN"),
            ("inf", "1"),
            ("5", "inf"),
            ("1e400", "1"),
        ] {
            let csv = format!("src,dst,bytes,msgs\n0,1,5,1\n1,0,{bytes},{msgs}\n");
            assert_eq!(
                CommPattern::from_csv(2, &csv).unwrap_err(),
                "line 3: non-finite traffic",
                "bytes {bytes}, msgs {msgs}"
            );
        }
    }

    #[test]
    fn from_edge_lists_matches_builder() {
        let direct = CommPattern::from_edge_lists(vec![
            vec![Edge {
                dst: 1,
                bytes: 200.0,
                msgs: 2.0,
            }],
            vec![Edge {
                dst: 0,
                bytes: 50.0,
                msgs: 1.0,
            }],
            vec![Edge {
                dst: 3,
                bytes: 75.0,
                msgs: 1.0,
            }],
            vec![],
        ]);
        assert_eq!(direct, small());
        assert_eq!(direct.total_bytes(), 325.0);
        assert_eq!(direct.total_msgs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn from_edge_lists_rejects_unsorted_rows() {
        let e = |dst| Edge {
            dst,
            bytes: 1.0,
            msgs: 1.0,
        };
        CommPattern::from_edge_lists(vec![vec![e(2), e(1)], vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "bad edge (0,0)")]
    fn from_edge_lists_rejects_self_loops() {
        CommPattern::from_edge_lists(vec![vec![Edge {
            dst: 0,
            bytes: 1.0,
            msgs: 1.0,
        }]]);
    }

    #[test]
    #[should_panic(expected = "bad edge weight")]
    fn from_edge_lists_rejects_non_finite_weights() {
        CommPattern::from_edge_lists(vec![
            vec![Edge {
                dst: 1,
                bytes: f64::NAN,
                msgs: 1.0,
            }],
            vec![],
        ]);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn record_checks_bounds() {
        PatternBuilder::new(2).record(0, 5, 1);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn from_dense_checks_consistency() {
        let mut cg = SquareMatrix::zeros(2);
        cg.set(0, 1, 10.0);
        let ag = SquareMatrix::zeros(2);
        CommPattern::from_dense(&cg, &ag);
    }

    #[test]
    fn empty_pattern() {
        let p = CommPattern::empty(3);
        assert_eq!(p.n(), 3);
        assert_eq!(p.num_edges(), 0);
        assert_eq!(p.diagonal_locality(0), 1.0);
    }

    /// The `BTreeMap` constructions the builder, the parser and
    /// [`CommPattern::partners`] replaced: the bitwise reference the
    /// oracles below hold them to.
    mod reference {
        use super::super::*;
        use std::collections::BTreeMap;

        pub type Rows = Vec<BTreeMap<usize, (f64, f64)>>;

        pub fn add(rows: &mut Rows, src: usize, dst: usize, bytes: f64, msgs: f64) {
            let e = rows[src].entry(dst).or_insert((0.0, 0.0));
            e.0 += bytes;
            e.1 += msgs;
        }

        pub fn build(n: usize, rows: Rows) -> CommPattern {
            let mut total_bytes = 0.0;
            let mut total_msgs = 0.0;
            let out: Vec<Vec<Edge>> = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(dst, (bytes, msgs))| {
                            total_bytes += bytes;
                            total_msgs += msgs;
                            Edge { dst, bytes, msgs }
                        })
                        .collect()
                })
                .collect();
            CommPattern {
                n,
                out,
                total_bytes,
                total_msgs,
            }
        }

        pub fn from_csv(n: usize, csv: &str) -> Result<CommPattern, String> {
            let mut lines = csv.lines().enumerate();
            let (_, header) = lines.next().ok_or("empty input")?;
            if header.trim() != "src,dst,bytes,msgs" {
                return Err(format!(
                    "bad header {header:?}, expected \"src,dst,bytes,msgs\""
                ));
            }
            let mut rows: Rows = vec![BTreeMap::new(); n];
            for (lineno, line) in lines {
                if line.trim().is_empty() {
                    continue;
                }
                let mut fields = line.splitn(5, ',');
                let (Some(f0), Some(f1), Some(f2), Some(f3), None) = (
                    fields.next(),
                    fields.next(),
                    fields.next(),
                    fields.next(),
                    fields.next(),
                ) else {
                    return Err(format!(
                        "line {}: expected 4 fields, got {}",
                        lineno + 1,
                        line.split(',').count()
                    ));
                };
                let src: usize = csv_field(f0, "src", lineno)?;
                let dst: usize = csv_field(f1, "dst", lineno)?;
                let bytes: f64 = csv_field(f2, "bytes", lineno)?;
                let msgs: f64 = csv_field(f3, "msgs", lineno)?;
                if src >= n || dst >= n {
                    return Err(format!("line {}: rank out of range for n={n}", lineno + 1));
                }
                if !bytes.is_finite() || !msgs.is_finite() {
                    return Err(format!("line {}: non-finite traffic", lineno + 1));
                }
                if bytes < 0.0 || msgs <= 0.0 {
                    return Err(format!("line {}: non-positive traffic", lineno + 1));
                }
                if src != dst {
                    add(&mut rows, src, dst, bytes, msgs);
                }
            }
            Ok(build(n, rows))
        }

        pub fn partners(p: &CommPattern) -> Vec<Vec<Partner>> {
            let mut acc: Rows = vec![BTreeMap::new(); p.n()];
            for src in 0..p.n() {
                for e in p.out_edges(src) {
                    add(&mut acc, src, e.dst, e.bytes, e.msgs);
                    add(&mut acc, e.dst, src, e.bytes, e.msgs);
                }
            }
            acc.into_iter()
                .map(|m| {
                    m.into_iter()
                        .map(|(peer, (bytes, msgs))| Partner { peer, bytes, msgs })
                        .collect()
                })
                .collect()
        }
    }

    /// One edge as `(src, dst, bytes bits, msgs bits)`.
    type EdgeBits = (usize, usize, u64, u64);

    /// Every edge and both totals as bits.
    fn pattern_bits(p: &CommPattern) -> (Vec<EdgeBits>, [u64; 2]) {
        let edges = (0..p.n())
            .flat_map(|i| {
                p.out_edges(i)
                    .iter()
                    .map(move |e| (i, e.dst, e.bytes.to_bits(), e.msgs.to_bits()))
            })
            .collect();
        (edges, [p.total_bytes().to_bits(), p.total_msgs().to_bits()])
    }

    fn partner_bits(rows: &[Vec<Partner>]) -> Vec<Vec<(usize, u64, u64)>> {
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|p| (p.peer, p.bytes.to_bits(), p.msgs.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// One recorded transfer: `src`, `dst`, bytes, messages, and the
    /// `(bytes per message, count)` of an integral `record_many`.
    type Record = (usize, usize, f64, f64, Option<(u64, u64)>);

    /// A random record stream over `n` ranks: repeated `(src, dst)`
    /// rows, one-way edges, self-edges, integral counts, fractional and
    /// `-0.0` weights, and ranks past `active` left isolated.
    fn random_records(rng: &mut StdRng) -> (usize, Vec<Record>) {
        let n = rng.random_range(1..40usize);
        let active = rng.random_range(1..=n);
        let mut records: Vec<Record> = Vec::new();
        for _ in 0..rng.random_range(0..5 * n) {
            let (src, dst) = match records.last() {
                Some(&(s, d, ..)) if rng.random_bool(0.3) => (s, d),
                _ => (rng.random_range(0..active), rng.random_range(0..active)),
            };
            let record = match rng.random_range(0..4u8) {
                0 => {
                    let (each, count) =
                        (rng.random_range(0..250_000u64), rng.random_range(1..5u64));
                    (
                        src,
                        dst,
                        (each * count) as f64,
                        count as f64,
                        Some((each, count)),
                    )
                }
                1 => (
                    src,
                    dst,
                    rng.random_range(0.0..1e4),
                    rng.random_range(0.01..8.0),
                    None,
                ),
                2 => (src, dst, -0.0, rng.random_range(0.5..2.0), None),
                _ => (src, dst, rng.random_range(0.0..1e-3), 1.0 / 3.0, None),
            };
            records.push(record);
        }
        (n, records)
    }

    #[test]
    fn builder_and_partners_match_the_btreemap_reference_bitwise() {
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, records) = random_records(&mut rng);
            let mut b = PatternBuilder::new(n);
            let mut rows: reference::Rows = vec![Default::default(); n];
            for &(src, dst, bytes, msgs, many) in &records {
                match many {
                    Some((each, count)) => b.record_many(src, dst, each, count),
                    None => b.record_weighted(src, dst, bytes, msgs),
                }
                if src != dst {
                    reference::add(&mut rows, src, dst, bytes, msgs);
                }
            }
            let (p, want) = (b.build(), reference::build(n, rows));
            assert_eq!(pattern_bits(&p), pattern_bits(&want), "seed {seed}");
            let parts = p.partners();
            assert_eq!(
                partner_bits(&parts),
                partner_bits(&reference::partners(&p)),
                "seed {seed}"
            );
            assert!(p.out.iter().all(|r| r.capacity() == r.len()), "seed {seed}");
            assert!(parts.iter().all(|r| r.capacity() == r.len()), "seed {seed}");
        }
    }

    #[test]
    fn from_csv_matches_the_btreemap_reference_bitwise() {
        let mut parsed = 0;
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, records) = random_records(&mut rng);
            let mut csv = String::from("src,dst,bytes,msgs\n");
            if rng.random_bool(0.1) {
                csv = " src,dst,bytes,msgs \r\n".into();
            }
            // Plain digits take the byte scan; padding, signs, exponents,
            // fractions and 16-digit fields take `str::parse`.
            let mut field = |v: f64, rank: bool| match rng.random_range(0..10u8) {
                0 => format!(" {v}\t"),
                1 if v.is_sign_positive() => format!("+{v}"),
                2 if !rank => format!("{v:e}"),
                3 => format!("{v:016}"),
                _ => format!("{v}"),
            };
            for &(src, dst, bytes, msgs, _) in &records {
                let line = [
                    field(src as f64, true),
                    field(dst as f64, true),
                    field(bytes, false),
                    field(msgs, false),
                ]
                .join(",");
                csv.push_str(&line);
                csv.push_str(["\n", "\r\n", "\n \n", "\n\r\n"][seed as usize % 4]);
            }
            if seed % 7 == 0 {
                csv.push_str(
                    ["1,2,3", "x,1,1,1", "0,1,5,0", "0,1,NaN,1", "0,1,5,1,9"][seed as usize % 5],
                );
            } else if seed % 5 == 0 {
                csv.push_str(&format!("0,{n},1,1\r"));
            } else if seed % 3 == 0 {
                csv.pop();
            }
            match (CommPattern::from_csv(n, &csv), reference::from_csv(n, &csv)) {
                (Ok(p), Ok(want)) => {
                    assert_eq!(pattern_bits(&p), pattern_bits(&want), "seed {seed}");
                    parsed += 1;
                }
                (Err(e), Err(want)) => assert_eq!(e, want, "seed {seed}"),
                (got, want) => panic!("seed {seed}: {got:?} vs {want:?}"),
            }
        }
        assert!(parsed > 250, "only {parsed} inputs parsed");
    }
}
