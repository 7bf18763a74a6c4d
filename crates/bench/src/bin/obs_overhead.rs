//! Prices the observability substrate, with the tracking allocator
//! compiled in (it is the `#[global_allocator]` of every bench binary).
//!
//! Two measurements, printed as a table:
//!
//! 1. **Allocator hook, microbenched**: alloc/free pairs dispatched
//!    straight to `System` vs through the registered global allocator
//!    with tracking off vs on. The raw-vs-disabled gap is the whole
//!    disabled-path cost (one relaxed load plus call indirection).
//! 2. **End to end, A/B alternated**: the fast pipeline with everything
//!    off vs with recording *and* allocation accounting on, run in
//!    interleaved pairs on the same process so machine drift hits both
//!    arms equally.
//!
//! The disabled-path budget (<2% of wall, EXPERIMENTS.md) is asserted
//! by scaling the microbenched per-pair hook cost by the run's actual
//! allocation count: that estimate is far below the run-to-run noise
//! floor an end-to-end A/B could resolve, which is exactly the point.
//!
//! Exit codes: 0 = within budget, 1 = disabled-path estimate over
//! budget, 2 = usage error.

use dpo_af::pipeline::DpoAf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::time::Instant;

fn timed_run(fast_cfg: dpo_af::pipeline::PipelineConfig) -> f64 {
    let t = Instant::now();
    let pipeline = DpoAf::new(fast_cfg);
    let artifacts = pipeline.run();
    // Keep the run honest: consume a result the optimizer cannot drop.
    assert!(artifacts.dataset_size > 0);
    t.elapsed().as_secs_f64()
}

/// ns per alloc+free pair of a 64-byte block.
#[allow(unsafe_code, reason = "times raw allocator calls, which are unsafe")]
fn alloc_pair_ns(via_global: bool, iters: u64) -> f64 {
    let layout = Layout::new::<[u8; 64]>();
    let t = Instant::now();
    for _ in 0..iters {
        // SAFETY: layout is non-zero-sized; every pointer is checked
        // non-null, written once (so the loop cannot be elided), and
        // freed with the same layout by the allocator that returned it.
        unsafe {
            let p = if via_global {
                std::alloc::alloc(layout)
            } else {
                System.alloc(layout)
            };
            assert!(!p.is_null());
            std::ptr::write_volatile(p, 1u8);
            if via_global {
                std::alloc::dealloc(p, layout);
            } else {
                System.dealloc(p, layout);
            }
        }
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() -> ExitCode {
    let mut pairs = 3usize;
    let mut budget_pct = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pairs" => pairs = args.next().and_then(|v| v.parse().ok()).unwrap_or(3),
            "--budget-pct" => {
                budget_pct = args.next().and_then(|v| v.parse().ok()).unwrap_or(2.0);
            }
            _ => {
                eprintln!("usage: obs_overhead [--pairs N] [--budget-pct X]");
                return ExitCode::from(2);
            }
        }
    }

    // Microbench: interleave the variants, keep each variant's minimum
    // (the noise-free floor is what prices the hook).
    const ITERS: u64 = 2_000_000;
    let (mut raw, mut dis, mut ena) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        raw = raw.min(alloc_pair_ns(false, ITERS));
        dis = dis.min(alloc_pair_ns(true, ITERS));
        obskit::alloc::set_tracking(true);
        ena = ena.min(alloc_pair_ns(true, ITERS));
        obskit::alloc::set_tracking(false);
    }
    println!("== allocator hook (ns per 64-byte alloc+free pair, min of 5x{ITERS})");
    println!("raw System           {raw:7.2}");
    println!(
        "global, tracking off {dis:7.2}  (+{:.2} ns hook)",
        dis - raw
    );
    println!(
        "global, tracking on  {ena:7.2}  (+{:.2} ns accounting)",
        ena - dis
    );

    // End to end: alternate fully-off and fully-on fast pipeline runs.
    let cfg = || bench::pipeline_config(true);
    let mut walls_off = Vec::with_capacity(pairs);
    let mut walls_on = Vec::with_capacity(pairs);
    let mut allocs_per_run = 0u64;
    timed_run(cfg()); // warm-up, discarded
    for pair in 0..pairs {
        eprintln!("pair {}/{pairs} …", pair + 1);
        walls_off.push(timed_run(cfg()));
        obskit::enable();
        obskit::set_console(false);
        obskit::alloc::set_tracking(true);
        walls_on.push(timed_run(cfg()));
        allocs_per_run = obskit::alloc::totals().allocs;
        obskit::alloc::set_tracking(false);
        obskit::disable();
    }
    let off = median(&mut walls_off);
    let on = median(&mut walls_on);
    println!("\n== end to end (headline --fast pipeline, median of {pairs} interleaved pairs)");
    println!("recorder+alloc off   {off:7.3} s");
    println!(
        "recorder+alloc on    {on:7.3} s  ({:+.1}%)",
        (on / off - 1.0) * 100.0
    );
    println!("allocations per run  {allocs_per_run}");

    // The disabled-path budget check: per-pair hook cost x pairs/run,
    // as a share of the off-arm wall.
    let hook_pct = ((dis - raw).max(0.0) * allocs_per_run as f64) / (off * 1e9) * 100.0;
    println!(
        "\ndisabled-path allocator cost estimate: {hook_pct:.3}% of wall (budget {budget_pct}%)"
    );
    if hook_pct <= budget_pct {
        println!("PASS: disabled observability stays within the {budget_pct}% budget");
        ExitCode::SUCCESS
    } else {
        println!("FAIL: disabled-path estimate exceeds the {budget_pct}% budget");
        ExitCode::FAILURE
    }
}
