//! What the benchmark reads from the host: process memory and CPU time
//! from `/proc`, the core count, and a calibration kernel written here
//! (not `nnet::kernel`) so drift of the machine shows separately from
//! drift of the code.

use std::time::Instant;

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where `/proc`
/// has no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU seconds this process has used, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks). Linux fixes
/// `USER_HZ` at 100 on every architecture this builds for.
pub fn cpu_times() -> (f64, f64) {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (utime, stime) = (tick(), tick());
    (utime / USER_HZ, stime / USER_HZ)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Nanoseconds for one 64×64×64 `f32` matrix product in a plain triple
/// loop: the best of `rounds` timings of `reps` products each.
pub fn calib_ns(rounds: usize, reps: usize) -> f64 {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect();
    let mut c = vec![0.0f32; N * N];
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        for _ in 0..reps.max(1) {
            c.fill(0.0);
            let (a, b) = (std::hint::black_box(&a), std::hint::black_box(&b));
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += aik * b[k * N + j];
                    }
                }
            }
            std::hint::black_box(&mut c);
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / reps.max(1) as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        let (u, s) = cpu_times();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(nproc() >= 1);
        assert!(calib_ns(1, 1) > 0.0);
    }
}
