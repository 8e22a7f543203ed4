//! Region-launch microbenchmark: persistent pool vs scoped-spawn.
//!
//! Launches many *tiny* parallel regions — the BFS/SSSP/PR pattern of
//! one region per level, bucket, or sweep — and reports the per-region
//! overhead of the persistent pool in two arms:
//!
//! * **back-to-back** against the old per-region `std::thread::scope`
//!   baseline (kept as `gapbs_parallel::pool::scoped_run`). Workers are
//!   re-released before they have settled into their wait, so this arm
//!   measures the handshake itself and, at `--threads` above the core
//!   count, how politely waiters share cores.
//! * **gapped**: empty regions with [`GAP`] of serial work on the leader
//!   between them, as every kernel has (frontier swap, bucket scan).
//!   With no body this is the launch cost alone, and it is the arm a
//!   park-every-region barrier loses: the team is asleep by the time the
//!   next region opens and each launch pays a futex round trip (29 µs on
//!   the 2-core reference host, against under 1 µs polling).
//!
//! ```sh
//! cargo run --release -p gapbs-bench --bin region_bench -- \
//!     --threads 4 --regions 300 --n 256 --min-speedup 5
//! cargo run --release -p gapbs-bench --bin region_bench -- \
//!     --threads 2 --regions 2000 --max-us-per-region 5
//! ```
//!
//! With `--min-speedup X` the process exits non-zero unless the pool's
//! back-to-back arm is at least `X` times cheaper per region than scoped
//! spawning — the oversubscription guard at `--threads 4`. With
//! `--max-us-per-region U` it exits non-zero unless the gapped arm's
//! median launch costs at most `U` µs — an absolute bound that means
//! something at `--threads min(nproc, 4)`, where every worker has a
//! core. `scripts/verify.sh` runs both.

use gapbs_parallel::pool::scoped_run;
use gapbs_parallel::{Schedule, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Serial work between two regions of the gapped arm: the order of a
/// kernel's per-level bookkeeping, and long enough that a worker which
/// parks the moment its region ends is asleep when the next one opens.
const GAP: Duration = Duration::from_micros(5);

struct Args {
    threads: usize,
    regions: usize,
    n: usize,
    min_speedup: Option<f64>,
    max_us_per_region: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 4,
        regions: 300,
        n: 256,
        min_speedup: None,
        max_us_per_region: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        match flag.as_str() {
            "--threads" => args.threads = value("--threads") as usize,
            "--regions" => args.regions = value("--regions") as usize,
            "--n" => args.n = value("--n") as usize,
            "--min-speedup" => args.min_speedup = Some(value("--min-speedup")),
            "--max-us-per-region" => {
                args.max_us_per_region = Some(value("--max-us-per-region"));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} \
                     (supported: --threads --regions --n --min-speedup \
                     --max-us-per-region)"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(
        args.threads >= 2,
        "--threads must be >= 2 to launch regions"
    );
    assert!(args.regions > 0 && args.n > 0);
    args
}

/// One tiny region body: a `Dynamic`-style indexed loop touching a
/// shared counter, small enough that launch overhead dominates.
fn run_regions(regions: usize, launch: impl Fn(&AtomicU64)) -> (f64, u64) {
    let sink = AtomicU64::new(0);
    // Warm-up region outside the timed window (first pool region pays
    // the workers' first wake; first scoped region pays allocator warmup).
    launch(&sink);
    let start = Instant::now();
    for _ in 0..regions {
        launch(&sink);
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds, sink.load(Ordering::Relaxed))
}

/// Median µs to launch and join an empty region when [`GAP`] of serial
/// work separates the regions. Each launch is timed on its own so the
/// gap stays out of the number, and the median keeps a preempted launch
/// from deciding a gate.
fn run_gapped(regions: usize, pool: &ThreadPool) -> f64 {
    let mut us: Vec<f64> = (0..regions)
        .map(|_| {
            let gap = Instant::now();
            while gap.elapsed() < GAP {
                std::hint::spin_loop();
            }
            let start = Instant::now();
            pool.run(|_| {});
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

fn main() {
    let args = parse_args();
    let per = args.n.div_ceil(args.threads);
    let n = args.n;

    let pool = ThreadPool::new(args.threads);
    let (pool_seconds, pool_sum) = run_regions(args.regions, |sink| {
        pool.for_each_index(n, Schedule::Dynamic(per.max(1)), |i| {
            sink.fetch_add(i as u64, Ordering::Relaxed);
        });
    });
    let gapped_us = run_gapped(args.regions, &pool);

    let threads = args.threads;
    let (scoped_seconds, scoped_sum) = run_regions(args.regions, |sink| {
        // The pre-persistent-pool shape: fresh OS threads per region,
        // chunks claimed from one shared counter.
        let next = AtomicU64::new(0);
        scoped_run(threads, |_| loop {
            let lo = next.fetch_add(per as u64, Ordering::Relaxed) as usize;
            if lo >= n {
                break;
            }
            for i in lo..(lo + per).min(n) {
                sink.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
    });

    assert_eq!(
        pool_sum, scoped_sum,
        "both baselines must do identical work"
    );

    let pool_us = pool_seconds / args.regions as f64 * 1e6;
    let scoped_us = scoped_seconds / args.regions as f64 * 1e6;
    let speedup = scoped_us / pool_us;
    let stats = pool.stats();
    println!(
        "region_bench: threads={} regions={} n={}",
        args.threads, args.regions, args.n
    );
    println!("  scoped spawn-per-region : {scoped_us:>10.2} us/region");
    println!("  persistent pool         : {pool_us:>10.2} us/region");
    println!("  per-region overhead cut : {speedup:>10.2}x");
    println!(
        "  empty, {}us serial gaps   : {gapped_us:>10.2} us/region (median)",
        GAP.as_micros()
    );
    println!(
        "  pool stats              : spawn_events={} regions={} steals={} parks={}",
        stats.spawn_events, stats.regions, stats.steals, stats.parks
    );
    assert_eq!(
        stats.spawn_events, 1,
        "persistent pool must spawn its team exactly once"
    );

    if let Some(min) = args.min_speedup {
        if speedup < min {
            eprintln!("FAIL: per-region speedup {speedup:.2}x is below the {min:.2}x gate");
            std::process::exit(1);
        }
        println!("  gate                    : >= {min:.2}x passed");
    }
    if let Some(max) = args.max_us_per_region {
        if gapped_us > max {
            eprintln!(
                "FAIL: gapped launch costs {gapped_us:.2} us/region, above the {max:.2} us gate"
            );
            std::process::exit(1);
        }
        println!("  gate                    : gapped <= {max:.2} us/region passed");
    }
}
