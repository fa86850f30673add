//! Measurement helpers: percentiles, process CPU time and peak RSS.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the resource probe below assumes the 64-bit Linux `struct rusage`");

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples beyond the `p`th percentile of `n` samples: the count the
/// header prints next to each tail percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time of every thread of this process, live and exited.
///
/// # Panics
///
/// When `getrusage` fails, which it cannot for `RUSAGE_SELF` and a
/// valid buffer.
pub fn cpu_time() -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&ru.utime) + micros(&ru.stime))
}

/// Peak resident set of this process image, in KiB: `VmHWM`. Not
/// `ru_maxrss`, which Linux carries across `exec` and so would report
/// the launcher's footprint (about 25 MB under `cargo run`) rather than
/// the benchmark's.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() > before);
        assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
    }
}
