//! Order statistics and process counters read from `/proc/self`.

use std::fs;

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every mainstream Linux architecture; reading it properly
/// needs `sysconf`, which the standard library does not expose.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Cumulative counters of this process, all threads included.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcCounters {
    /// Minor page faults.
    pub minflt: u64,
    /// User plus system CPU time, seconds (10 ms resolution).
    pub cpu_s: f64,
}

impl ProcCounters {
    /// Reads `/proc/self/stat`; all zero where it cannot be read.
    pub fn read() -> ProcCounters {
        let Ok(text) = fs::read_to_string("/proc/self/stat") else {
            return ProcCounters::default();
        };
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, minflt 10, utime 14, stime 15.
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest.split_whitespace().skip(1).map(|s| s.parse().unwrap_or(0)).collect();
        let field = |n: usize| f.get(n - 4).copied().unwrap_or(0);
        ProcCounters {
            minflt: field(10),
            cpu_s: (field(14) + field(15)) as f64 / CLOCK_TICKS_PER_S,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcCounters) -> ProcCounters {
        ProcCounters {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`), MiB; 0 where
/// `/proc/self/status` cannot be read.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn proc_counters_are_readable() {
        let a = ProcCounters::read();
        let _waste: Vec<u8> = vec![1; 8 << 20];
        let b = ProcCounters::read();
        assert!(b.minflt >= a.minflt);
        assert!(peak_rss_mb() > 0.0);
    }
}
