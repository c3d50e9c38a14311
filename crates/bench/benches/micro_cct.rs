//! Micro-benchmarks for the profiler's hot data structures: CCT
//! insertion, escalation (inclusive counts), merging, and utilization
//! computation over realistic sample batches.
//!
//! Plain `harness = false` timing loops (like every other bench in this
//! crate) so the harness carries no external dependency: each case is
//! warmed once, then timed over enough iterations to smooth scheduler
//! noise, reporting mean wall-clock per iteration.

use std::hint::black_box;
use std::time::Instant;

use slimstart_appmodel::catalog::by_code;
use slimstart_core::cct::Cct;
use slimstart_core::profile::{PathTable, SampleRecord};
use slimstart_core::utilization::Utilization;
use slimstart_pyrt::stack::{Frame, FrameKind};
use slimstart_simcore::rng::SimRng;

/// Generates `n` synthetic samples with realistic path shapes (depth 3–9,
/// heavy path reuse as real workloads exhibit), as frames and init flag.
fn synth_samples(n: usize, seed: u64) -> Vec<(Vec<Frame>, bool)> {
    let mut rng = SimRng::seed_from(seed);
    // 64 distinct call sites reused across paths.
    let sites: Vec<Frame> = (0..64)
        .map(|i| Frame {
            kind: FrameKind::Call(slimstart_appmodel::FunctionId::from_index(i)),
            line: 10 + (i % 7) as u32,
        })
        .collect();
    (0..n)
        .map(|_| {
            let depth = 3 + rng.next_below(7);
            let path: Vec<Frame> = (0..depth)
                .map(|d| sites[(d * 7 + rng.next_below(8)) % sites.len()])
                .collect();
            (path, rng.chance(0.3))
        })
        .collect()
}

/// Interns `samples` into one table, as a profile store holds them.
fn intern(samples: &[(Vec<Frame>, bool)]) -> (PathTable, Vec<SampleRecord>) {
    let mut paths = PathTable::new();
    let records = samples
        .iter()
        .map(|(path, is_init)| SampleRecord {
            path: paths.intern(path),
            is_init: *is_init,
        })
        .collect();
    (paths, records)
}

/// The CCT of `samples`.
fn cct_of(samples: &[(Vec<Frame>, bool)]) -> Cct {
    let (paths, records) = intern(samples);
    Cct::from_samples(&paths, &records)
}

/// Times `f` over `iters` iterations (after one warm-up call) and prints
/// the mean per-iteration latency.
fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed() / iters;
    println!("{name:<28} {per_iter:>12.2?}/iter  ({iters} iters)");
}

fn main() {
    println!("== micro_cct: profiler hot-path micro-benchmarks ==\n");

    let samples = synth_samples(10_000, 42);
    bench("cct_insert_10k_samples", 50, || {
        let mut cct = Cct::new();
        for (path, is_init) in &samples {
            cct.insert(black_box(path), *is_init);
        }
        cct.len()
    });

    let (paths, records) = intern(&samples);
    bench("cct_from_samples_10k", 50, || {
        Cct::from_samples(&paths, black_box(&records)).len()
    });

    let cct = cct_of(&synth_samples(50_000, 43));
    bench("cct_escalation_inclusive", 200, || cct.inclusive());

    let a = cct_of(&synth_samples(5_000, 44));
    let b_tree = cct_of(&synth_samples(5_000, 45));
    bench("cct_merge_5k_into_5k", 200, || {
        let mut merged = a.clone();
        merged.merge(black_box(&b_tree));
        merged.total_samples()
    });

    // Real application shape: R-GB's profile-sized sample batch, with paths
    // drawn from the app's actual functions.
    let entry = by_code("R-GB").expect("catalog");
    let built = entry.build(7).expect("builds");
    let mut rng = SimRng::seed_from(46);
    let n_fns = built.app.functions().len();
    let app_samples: Vec<(Vec<Frame>, bool)> = (0..20_000)
        .map(|_| {
            let depth = 2 + rng.next_below(4);
            let path: Vec<Frame> = (0..depth)
                .map(|_| Frame {
                    kind: FrameKind::Call(slimstart_appmodel::FunctionId::from_index(
                        rng.next_below(n_fns),
                    )),
                    line: 10,
                })
                .collect();
            (path, rng.chance(0.3))
        })
        .collect();
    let (app_paths, app_records) = intern(&app_samples);
    bench("utilization_20k_samples", 50, || {
        Utilization::from_samples(&app_paths, &app_records, &built.app)
    });
}
