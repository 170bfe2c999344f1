//! Order statistics over samples, and the hash behind `sim_digest`.

/// Median of `values` (mean of the middle pair for an even count); 0 for an
/// empty slice. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of an ascending slice by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// An FNV-1a-style hash over everything a run *simulated*: counters,
/// convergence times, routing state and artifact bytes — never a host-time
/// field. Two runs of one seed must agree on it, and so must a parent
/// commit and a perf-only change; no golden value is committed, so model
/// fixes stay possible. It folds eight bytes per multiply so that hashing
/// megabytes of artifact text stays invisible next to producing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
        self.word(bytes.len() as u64);
    }

    /// Fold one integer in.
    pub fn u64(&mut self, v: u64) {
        self.word(v);
    }

    /// Fold text in (its length too, so adjacent fields cannot run together).
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Fold another digest in.
    pub fn fold(&mut self, other: Digest) {
        self.word(other.0);
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
