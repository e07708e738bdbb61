//! Statistics, process probes, and a minimal JSON writer.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: a percentile with at least
/// [`TAIL_BEYOND`] samples beyond it (nearest-rank).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Computes the tail of `xs` at the highest ladder percentile not above
/// `preferred` that has at least [`TAIL_BEYOND`] samples beyond it. Each
/// workload fixes `preferred` to what its usual sample count supports, so
/// the reported percentile does not hop between runs. With too few samples
/// for any rung the median is reported with however many samples lie
/// beyond it, which the run's `detail` shows.
pub fn tail(xs: &[f64], preferred: f64) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            beyond: 0,
        };
    }
    let at = |pct: f64| {
        let rank = (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        Tail {
            pct,
            value: v[rank - 1],
            beyond: n - rank,
        }
    };
    TAIL_LADDER
        .iter()
        .filter(|&&p| p <= preferred)
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds, from `/proc/self/stat` (clock ticks at the usual 100 Hz).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime/stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Widest f64 SIMD the build targets, in bits (the repo builds with
/// `target-cpu=native`, so this is the host's width).
pub fn simd_bits() -> u32 {
    if cfg!(target_feature = "avx512f") {
        512
    } else if cfg!(target_feature = "avx2") || cfg!(target_feature = "avx") {
        256
    } else if cfg!(target_feature = "sse2") || cfg!(target_feature = "neon") {
        128
    } else {
        64
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float for JSON with all its digits (non-finite → 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON array of already-encoded values.
pub fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// A JSON object assembled field by field.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// Adds a raw (already JSON-encoded) value.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.0.push(format!("{}: {}", json_str(key), value));
        self
    }

    /// Adds a number.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, json_num(value))
    }

    /// Adds an integer.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json_str(value))
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 99.9);
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&xs, 90.0);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 180.0, 20));
        let t = tail(&xs[..40], 99.0);
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        let t = tail(&xs[..12], 99.0);
        assert_eq!((t.pct, t.beyond), (50.0, 6));
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "0.0");
        let mut o = Obj::default();
        o.int("a", 1).str("b", "x");
        assert_eq!(o.render(), "{\"a\": 1, \"b\": \"x\"}");
    }
}
