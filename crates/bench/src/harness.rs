//! A dependency-free micro-benchmark harness.
//!
//! The workspace builds with no network access, so the benches cannot pull
//! in an external framework; this module provides the small subset actually
//! needed — auto-calibrated repetition around [`std::time::Instant`] with
//! mean/min reporting. Set `DAGMAP_BENCH_QUICK=1` to shrink the time budget
//! (used by the tier-1 smoke run).
//!
//! [`Counting`] is the allocation counter the allocation-reporting bench
//! binaries install as their global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Allocations (including reallocations) made through [`Counting`].
pub static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every allocation and reallocation in
/// [`ALLOCS`]. A binary opts in with
/// `#[global_allocator] static A: Counting = Counting;`.
pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// Timing of one benchmark case.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Case name, conventionally `suite/case/param`.
    pub name: String,
    /// Measured iterations (after the calibration pass).
    pub iters: u32,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest iteration in seconds — the least noisy statistic on a
    /// shared machine.
    pub min_s: f64,
}

fn time_budget() -> Duration {
    if std::env::var_os("DAGMAP_BENCH_QUICK").is_some() {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(200)
    }
}

/// Runs `f` repeatedly and reports per-iteration timing.
///
/// One warm-up call calibrates the iteration count toward the time budget
/// (clamped to `3..=1000` runs). The closure's result is passed through
/// [`std::hint::black_box`] so the optimizer cannot delete the work.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(100));
    let iters = (time_budget().as_secs_f64() / once.as_secs_f64()).clamp(3.0, 1000.0) as u32;
    let mut min_s = f64::INFINITY;
    let mut total = 0.0f64;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        min_s = min_s.min(dt);
    }
    Measurement {
        name: name.to_owned(),
        iters,
        mean_s: total / f64::from(iters),
        min_s,
    }
}

/// The fastest of `reps` timings returned by `f`: the least noisy
/// statistic on a shared machine.
pub fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// A mapped netlist as BLIF text — what the benches compare byte for byte
/// across configurations.
pub fn mapped_blif(mapped: &dagmap_core::MappedNetlist) -> String {
    dagmap_netlist::blif::to_string(&mapped.to_network().expect("lower")).expect("blif")
}

/// Formats seconds with an adaptive unit.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

/// Prints a suite of measurements as an aligned table.
pub fn report(suite: &str, rows: &[Measurement]) {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    println!("== {suite} ==");
    println!(
        "{:width$}  {:>6}  {:>12}  {:>12}",
        "case", "iters", "mean", "min"
    );
    for r in rows {
        println!(
            "{:width$}  {:>6}  {:>12}  {:>12}",
            r.name,
            r.iters,
            fmt_seconds(r.mean_s),
            fmt_seconds(r.min_s),
        );
    }
}
