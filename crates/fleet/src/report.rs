//! The aggregated fleet report and its streaming builder.
//!
//! Everything in a [`FleetReport`] is a deterministic function of the
//! fleet configuration (population, experiment seed, cold starts, runs).
//! [`FleetAggregator`] builds it: each finished application folds into
//! constant-memory summary state (counts, integer-scaled sums, fixed-bin
//! histograms, a capped per-app detail window), and partials from any
//! number of workers merge in any order. Nothing retains a per-app
//! vector at 10k scale.
//!
//! Byte-identity across thread counts and chunk sizes rests on every
//! field being an order-free fold, with the two numeric choices
//! versioned in the JSON schema ([`REPORT_SCHEMA`]):
//!
//! 1. **Integer-scaled means.** Mean accumulation uses fixed-point
//!    `i128` sums (`round(v * 2^`[`HIST_SCALE_BITS`]`)`), which are
//!    associative and commutative — unlike `f64` addition — so any fold
//!    and merge order produces identical bits.
//! 2. **Fixed-bin histograms.** Quantiles come from deterministic
//!    log2-spaced bins ([`FixedHistogram`]) instead of exact retained
//!    samples: bin counts add, so the same guarantee holds.
//!
//! The rest adds or compares: integer counts, `f64` min/max over finite
//! values, an XOR seed digest, and the detail window, which keeps rows
//! by population index and is sorted once in
//! [`FleetAggregator::finish`].
//!
//! Wall-clock timing deliberately lives in [`crate::FleetRunStats`],
//! *outside* this report, so serialized output is byte-identical
//! regardless of worker-pool size.

use std::fmt::Write as _;

use slimstart_platform::metrics::Speedup;
use slimstart_simcore::json::{escape, num};

/// Version tag leading the serialized report. Bump whenever the summary
/// layout, histogram geometry, or scaling constants change.
///
/// v3 added the optional snapshot-cache counters (per-app `snapshot`
/// rows and the fleet-wide `snapshots` summary), present only when a
/// fleet runs with a [`crate::NodeSnapshotPool`].
pub const REPORT_SCHEMA: &str = "slimstart-fleet-report/v3";

/// Schema tag emitted when the fleet ran with a
/// [`crate::NodeZygotePool`]: v4 adds the per-app `zygote` rows and the
/// fleet-wide `zygotes` summary. Zygote-free fleets keep serializing as
/// [`REPORT_SCHEMA`], byte-identical to pre-zygote builds.
pub const REPORT_SCHEMA_ZYGOTE: &str = "slimstart-fleet-report/v4";

/// Per-app rows retained in the report's detail window. Fleets at or
/// below this size keep every row; larger fleets keep the first
/// `DETAIL_ROWS` (by population index) and set `detail_truncated` — the
/// report stays constant-memory at any scale.
pub const DETAIL_ROWS: usize = 32;

/// Histogram bins per speedup dimension.
pub const HIST_BINS: usize = 256;

/// log2 of the lowest bin edge: bin 0 starts at 2^-3 = 0.125x.
pub const HIST_LOG2_LO: f64 = -3.0;

/// log2 width of each bin (2^0.0625 ≈ 4.4 % relative resolution); 256
/// bins cover [0.125x, 8192x). Out-of-range values clamp to the edge
/// bins.
pub const HIST_LOG2_WIDTH: f64 = 0.0625;

/// Fixed-point fraction bits for mean accumulation: values are rounded
/// to multiples of 2^-24 before summing, making the sum exact and
/// associative in `i128`.
pub const HIST_SCALE_BITS: u32 = 24;

/// SplitMix64 finalizer — the mixing step behind the order-independent
/// seed digest.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The digest contribution of one `(population index, per-app seed)`
/// assignment. XOR-combining these is order-independent, so the digest
/// proves *which* seed every app received without retaining any rows —
/// the scheduling sweep tests compare it against a hand-rolled
/// sequential split at any fleet size.
pub fn seed_digest_term(index: usize, seed: u64) -> u64 {
    mix64(seed ^ mix64(index as u64))
}

/// One application's row in the fleet report.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// Position in the fleet population (stable across thread counts).
    pub index: usize,
    /// Catalog code (e.g. `R-GB`).
    pub code: String,
    /// Full application name.
    pub name: String,
    /// The per-app seed split from the experiment seed.
    pub seed: u64,
    /// Whether the profile-informed 10 % init-share gate passed.
    pub gate_passed: bool,
    /// Whether any import edits shipped.
    pub optimized: bool,
    /// Whether the pre-deployment verifier rolled the deployment back.
    pub rolled_back: bool,
    /// Detector findings (flagged packages).
    pub findings: usize,
    /// Packages actually deferred by the optimizer.
    pub deferred: usize,
    /// Pre-deployment analyzer diagnostics: errors.
    pub analyzer_errors: usize,
    /// Pre-deployment analyzer diagnostics: warnings.
    pub analyzer_warnings: usize,
    /// Mean speedup over the configured measurement runs.
    pub speedup: Speedup,
    /// Baseline cold-start init latency, ms (last run).
    pub baseline_init_ms: f64,
    /// Baseline end-to-end latency, ms (last run).
    pub baseline_e2e_ms: f64,
    /// Final-deployment end-to-end latency, ms (last run).
    pub optimized_e2e_ms: f64,
    /// Fault-injection summary; `None` when the fleet ran without chaos,
    /// which keeps the serialized row byte-identical to chaos-free builds.
    pub chaos: Option<AppChaosRecord>,
    /// Snapshot-cache counters; `None` when the fleet ran without a
    /// [`crate::NodeSnapshotPool`], which keeps the serialized row
    /// byte-identical to pool-free builds.
    pub snapshot: Option<AppSnapshotRecord>,
    /// Zygote fork counters; `None` when the fleet ran without a
    /// [`crate::NodeZygotePool`], which keeps the serialized row
    /// byte-identical to zygote-free builds.
    pub zygote: Option<AppZygoteRecord>,
}

/// One application's zygote-fork counters (zygote-pool fleets only).
///
/// Counters accumulate across every measurement run of the app: the
/// app's [`slimstart_pyrt::zygote::ZygoteCounters`] are shared across
/// its containers and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppZygoteRecord {
    /// Cold starts that forked from the node zygote.
    pub forks: u64,
    /// Module loads acquired at fork cost instead of full init cost.
    pub forked_loads: u64,
    /// Modules of this app resident in its node zygote.
    pub resident_modules: u64,
    /// Modeled bytes those modules pin in the zygote process.
    pub resident_bytes: u64,
}

impl AppZygoteRecord {
    fn to_json(self) -> String {
        format!(
            "{{\"forks\":{},\"forked_loads\":{},\"resident_modules\":{},\"resident_bytes\":{}}}",
            self.forks, self.forked_loads, self.resident_modules, self.resident_bytes,
        )
    }
}

/// One application's snapshot-cache counters (pool-enabled fleets only).
///
/// Counters accumulate across every measurement run of the app: the
/// app's store spans its runs, so later runs hit snapshots captured by
/// earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppSnapshotRecord {
    /// Cold starts served from a stored snapshot.
    pub hits: u64,
    /// Cold starts that had to replay the full module-load path.
    pub misses: u64,
    /// Entries evicted under byte pressure or fingerprint invalidation.
    pub evictions: u64,
    /// Modules faulted in lazily after a working-set restore.
    pub faulted_loads: u64,
    /// Bytes resident in the app's store shard when the app finished.
    pub resident_bytes: u64,
}

impl AppSnapshotRecord {
    fn to_json(self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"faulted_loads\":{},\"resident_bytes\":{}}}",
            self.hits, self.misses, self.evictions, self.faulted_loads, self.resident_bytes,
        )
    }
}

/// One application's fault-injection summary (chaos-enabled fleets only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppChaosRecord {
    /// Faults the app's chaos plan injected across all its runs.
    pub faults: u64,
    /// Profile-collection retries in the recorded (last) run.
    pub profile_retries: u32,
    /// Redeploy retries in the recorded (last) run.
    pub deploy_retries: u32,
    /// Degradation-ladder label of the recorded run (`none`,
    /// `conservative`, or `rolled-back`).
    pub degradation: &'static str,
    /// Faults were injected yet the full optimization still shipped.
    pub recovered: bool,
}

impl AppChaosRecord {
    /// Whether the app landed below the top of the degradation ladder.
    pub fn degraded(&self) -> bool {
        self.degradation != "none"
    }

    /// Whether the redeploy was abandoned (baseline kept).
    pub fn failed(&self) -> bool {
        self.degradation == "rolled-back"
    }

    fn to_json(self) -> String {
        format!(
            "{{\"faults\":{},\"profile_retries\":{},\"deploy_retries\":{},\"degradation\":\"{}\",\"recovered\":{}}}",
            self.faults,
            self.profile_retries,
            self.deploy_retries,
            self.degradation,
            self.recovered,
        )
    }
}

impl AppRecord {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"index\":{},\"code\":\"{}\",\"name\":\"{}\",\"seed\":{},\"gate_passed\":{},\"optimized\":{},\"rolled_back\":{},\"findings\":{},\"deferred\":{},\"analyzer_errors\":{},\"analyzer_warnings\":{},\"speedup\":{{\"init\":{},\"load\":{},\"e2e\":{},\"p99_e2e\":{},\"mem\":{}}},\"baseline_init_ms\":{},\"baseline_e2e_ms\":{},\"optimized_e2e_ms\":{}",
            self.index,
            escape(&self.code),
            escape(&self.name),
            self.seed,
            self.gate_passed,
            self.optimized,
            self.rolled_back,
            self.findings,
            self.deferred,
            self.analyzer_errors,
            self.analyzer_warnings,
            num(self.speedup.init),
            num(self.speedup.load),
            num(self.speedup.e2e),
            num(self.speedup.p99_e2e),
            num(self.speedup.mem),
            num(self.baseline_init_ms),
            num(self.baseline_e2e_ms),
            num(self.optimized_e2e_ms),
        );
        if let Some(chaos) = &self.chaos {
            let _ = write!(out, ",\"chaos\":{}", chaos.to_json());
        }
        if let Some(snapshot) = &self.snapshot {
            let _ = write!(out, ",\"snapshot\":{}", snapshot.to_json());
        }
        if let Some(zygote) = &self.zygote {
            let _ = write!(out, ",\"zygote\":{}", zygote.to_json());
        }
        out.push('}');
        out
    }

    /// Rough heap footprint of the row, for aggregate-size accounting.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<AppRecord>() + self.code.capacity() + self.name.capacity()
    }
}

/// A deterministic fixed-bin histogram over one speedup dimension.
///
/// Bins are log2-spaced ([`HIST_LOG2_LO`], [`HIST_LOG2_WIDTH`],
/// [`HIST_BINS`]); counts, the fixed-point sum, and exact min/max are
/// all associative under `merge`, so any partitioning of the population
/// produces bit-identical state.
#[derive(Clone, PartialEq)]
pub struct FixedHistogram {
    counts: [u64; HIST_BINS],
    count: u64,
    sum_scaled: i128,
    min: f64,
    max: f64,
}

impl std::fmt::Debug for FixedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Default for FixedHistogram {
    fn default() -> Self {
        FixedHistogram::new()
    }
}

impl FixedHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        FixedHistogram {
            counts: [0; HIST_BINS],
            count: 0,
            sum_scaled: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bin a value lands in (clamped to the edge bins).
    fn bin_of(v: f64) -> usize {
        if v <= 0.0 {
            return 0;
        }
        let raw = (v.log2() - HIST_LOG2_LO) / HIST_LOG2_WIDTH;
        if raw < 0.0 {
            0
        } else {
            (raw as usize).min(HIST_BINS - 1)
        }
    }

    /// Geometric midpoint of a bin — the representative value quantiles
    /// report.
    fn bin_mid(bin: usize) -> f64 {
        (HIST_LOG2_LO + (bin as f64 + 0.5) * HIST_LOG2_WIDTH).exp2()
    }

    /// Folds one value. Non-finite values are ignored (the writer would
    /// render them as null anyway); everything else lands in a bin and
    /// the fixed-point sum.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[Self::bin_of(v)] += 1;
        self.count += 1;
        self.sum_scaled += scale_value(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram in. Order-insensitive: every field is
    /// an associative, commutative fold.
    fn merge(&mut self, other: &FixedHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_scaled += other.sum_scaled;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Recorded (finite) values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, reconstructed from the fixed-point sum (0.0 when
    /// empty). Quantization error is at most 2^-25 per sample —
    /// invisible at the writer's six decimals.
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_scaled as f64 / f64::from(1u32 << HIST_SCALE_BITS) / self.count as f64
        }
    }

    /// Exact minimum (0.0 when empty).
    fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0.0 when empty).
    fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Deterministic approximate quantile: the geometric midpoint of the
    /// bin holding rank `floor(q * (count - 1))`, clamped into the exact
    /// observed `[min, max]` so degenerate samples stay sane. Resolution
    /// is one bin width (±2.2 %).
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (bin, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bin_mid(bin).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// The non-empty bins as `(bin index, count)` pairs, ascending.
    fn sparse_bins(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// Rounds a value to fixed point for the associative mean sum.
fn scale_value(v: f64) -> i128 {
    (v * f64::from(1u32 << HIST_SCALE_BITS)).round() as i128
}

/// Fleet-wide distribution of one speedup dimension across applications.
///
/// Since schema v2 the quantiles are histogram-derived (deterministic
/// fixed bins, see [`FixedHistogram`]); `mean`, `min` and `max` are
/// exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupDistribution {
    /// Arithmetic mean (exact, fixed-point accumulated).
    pub mean: f64,
    /// Median (p50), histogram resolution.
    pub median: f64,
    /// 90th percentile, histogram resolution.
    pub p90: f64,
    /// 99th percentile, histogram resolution.
    pub p99: f64,
    /// Minimum (exact).
    pub min: f64,
    /// Maximum (exact).
    pub max: f64,
}

impl SpeedupDistribution {
    /// Distills the summary statistics out of a histogram.
    pub fn from_histogram(hist: &FixedHistogram) -> Self {
        SpeedupDistribution {
            mean: hist.mean(),
            median: hist.quantile(0.50),
            p90: hist.quantile(0.90),
            p99: hist.quantile(0.99),
            min: hist.min(),
            max: hist.max(),
        }
    }

    fn to_json(self, hist: &FixedHistogram) -> String {
        let mut out = format!(
            "{{\"mean\":{},\"median\":{},\"p90\":{},\"p99\":{},\"min\":{},\"max\":{},\"bins\":[",
            num(self.mean),
            num(self.median),
            num(self.p90),
            num(self.p99),
            num(self.min),
            num(self.max),
        );
        for (i, (bin, count)) in hist.sparse_bins().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bin},{count}]");
        }
        out.push_str("]}");
        out
    }
}

/// Fleet-wide fault-injection summary (chaos-enabled fleets only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetChaosSummary {
    /// Applications with at least one injected fault.
    pub faulted: usize,
    /// Faulted applications that still shipped the full optimization.
    pub recovered: usize,
    /// Applications that fell down the degradation ladder (conservative
    /// mode or rollback).
    pub degraded: usize,
    /// Applications whose redeploy was abandoned (baseline kept).
    pub failed: usize,
    /// Total faults injected across the fleet.
    pub faults_total: u64,
}

impl FleetChaosSummary {
    /// Folds one app's chaos row in.
    fn fold(&mut self, chaos: &AppChaosRecord) {
        self.faulted += usize::from(chaos.faults > 0);
        self.recovered += usize::from(chaos.recovered);
        self.degraded += usize::from(chaos.degraded());
        self.failed += usize::from(chaos.failed());
        self.faults_total += chaos.faults;
    }

    /// Merges another summary in (associative and commutative).
    fn merge(&mut self, other: &FleetChaosSummary) {
        self.faulted += other.faulted;
        self.recovered += other.recovered;
        self.degraded += other.degraded;
        self.failed += other.failed;
        self.faults_total += other.faults_total;
    }

    fn to_json(self) -> String {
        format!(
            "{{\"faulted\":{},\"recovered\":{},\"degraded\":{},\"failed\":{},\"faults_total\":{}}}",
            self.faulted, self.recovered, self.degraded, self.failed, self.faults_total,
        )
    }
}

/// Fleet-wide snapshot-cache summary (pool-enabled fleets only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetSnapshotSummary {
    /// Total snapshot hits across the fleet.
    pub hits: u64,
    /// Total snapshot misses across the fleet.
    pub misses: u64,
    /// Total evictions (byte pressure plus fingerprint invalidation).
    pub evictions: u64,
    /// Total lazily faulted module loads.
    pub faulted_loads: u64,
    /// Sum of per-app resident shard bytes at app completion.
    pub resident_bytes: u64,
}

impl FleetSnapshotSummary {
    /// Folds one app's snapshot row in.
    pub fn fold(&mut self, snapshot: &AppSnapshotRecord) {
        self.hits += snapshot.hits;
        self.misses += snapshot.misses;
        self.evictions += snapshot.evictions;
        self.faulted_loads += snapshot.faulted_loads;
        self.resident_bytes += snapshot.resident_bytes;
    }

    /// Merges another summary in (associative and commutative).
    fn merge(&mut self, other: &FleetSnapshotSummary) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.faulted_loads += other.faulted_loads;
        self.resident_bytes += other.resident_bytes;
    }

    /// Hit fraction in [0, 1] (0.0 when no cold start consulted the
    /// store).
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"faulted_loads\":{},\"resident_bytes\":{}}}",
            self.hits, self.misses, self.evictions, self.faulted_loads, self.resident_bytes,
        )
    }
}

/// Fleet-wide zygote-fork summary (zygote-pool fleets only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetZygoteSummary {
    /// Total cold starts forked from a node zygote.
    pub forks: u64,
    /// Total module loads acquired at fork cost across the fleet.
    pub forked_loads: u64,
    /// Sum of per-app resident module counts.
    pub resident_modules: u64,
    /// Sum of per-app resident zygote bytes.
    pub resident_bytes: u64,
}

impl FleetZygoteSummary {
    /// Folds one app's zygote row in.
    pub fn fold(&mut self, zygote: &AppZygoteRecord) {
        self.forks += zygote.forks;
        self.forked_loads += zygote.forked_loads;
        self.resident_modules += zygote.resident_modules;
        self.resident_bytes += zygote.resident_bytes;
    }

    /// Merges another summary in (associative and commutative).
    fn merge(&mut self, other: &FleetZygoteSummary) {
        self.forks += other.forks;
        self.forked_loads += other.forked_loads;
        self.resident_modules += other.resident_modules;
        self.resident_bytes += other.resident_bytes;
    }

    fn to_json(self) -> String {
        format!(
            "{{\"forks\":{},\"forked_loads\":{},\"resident_modules\":{},\"resident_bytes\":{}}}",
            self.forks, self.forked_loads, self.resident_modules, self.resident_bytes,
        )
    }
}

/// Streaming fleet aggregation state: everything a [`FleetReport`] needs,
/// in constant memory.
///
/// Records may fold, and partials merge, in any order and grouping:
/// every field is an order-free fold, and [`finish`](Self::finish) sorts
/// the detail window by population index. The orchestrator has each
/// worker fold whatever apps it runs into its own partial and merges the
/// partials after the workers join.
#[derive(Debug, Clone, Default)]
pub struct FleetAggregator {
    count: usize,
    gate_passed: usize,
    optimized: usize,
    rolled_back: usize,
    findings_total: usize,
    deferred_total: usize,
    analyzer_warnings_total: usize,
    init: FixedHistogram,
    e2e: FixedHistogram,
    mem: FixedHistogram,
    chaos: Option<FleetChaosSummary>,
    snapshots: Option<FleetSnapshotSummary>,
    zygotes: Option<FleetZygoteSummary>,
    seed_digest: u64,
    detail: Vec<AppRecord>,
    detail_truncated: bool,
}

impl FleetAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        FleetAggregator::default()
    }

    /// Applications folded so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Folds one finished application into the summary state.
    pub fn fold(&mut self, record: AppRecord) {
        self.count += 1;
        self.gate_passed += usize::from(record.gate_passed);
        self.optimized += usize::from(record.optimized);
        self.rolled_back += usize::from(record.rolled_back);
        self.findings_total += record.findings;
        self.deferred_total += record.deferred;
        self.analyzer_warnings_total += record.analyzer_warnings;
        self.init.record(record.speedup.init);
        self.e2e.record(record.speedup.e2e);
        self.mem.record(record.speedup.mem);
        if let Some(chaos) = &record.chaos {
            self.chaos.get_or_insert_with(Default::default).fold(chaos);
        }
        if let Some(snapshot) = &record.snapshot {
            self.snapshots
                .get_or_insert_with(Default::default)
                .fold(snapshot);
        }
        if let Some(zygote) = &record.zygote {
            self.zygotes
                .get_or_insert_with(Default::default)
                .fold(zygote);
        }
        self.seed_digest ^= seed_digest_term(record.index, record.seed);
        if record.index < DETAIL_ROWS {
            self.detail.push(record);
        } else {
            self.detail_truncated = true;
        }
    }

    /// Merges another partial in.
    pub fn merge(&mut self, other: FleetAggregator) {
        self.count += other.count;
        self.gate_passed += other.gate_passed;
        self.optimized += other.optimized;
        self.rolled_back += other.rolled_back;
        self.findings_total += other.findings_total;
        self.deferred_total += other.deferred_total;
        self.analyzer_warnings_total += other.analyzer_warnings_total;
        self.init.merge(&other.init);
        self.e2e.merge(&other.e2e);
        self.mem.merge(&other.mem);
        if let Some(theirs) = &other.chaos {
            self.chaos
                .get_or_insert_with(Default::default)
                .merge(theirs);
        }
        if let Some(theirs) = &other.snapshots {
            self.snapshots
                .get_or_insert_with(Default::default)
                .merge(theirs);
        }
        if let Some(theirs) = &other.zygotes {
            self.zygotes
                .get_or_insert_with(Default::default)
                .merge(theirs);
        }
        self.seed_digest ^= other.seed_digest;
        self.detail.extend(other.detail);
        self.detail_truncated |= other.detail_truncated;
    }

    /// Rough resident size of the aggregation state, for
    /// [`crate::FleetRunStats::aggregate_peak_bytes`]. Bounded by the fixed
    /// histograms plus the capped detail window, regardless of fleet size.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<FleetAggregator>()
            + self
                .detail
                .iter()
                .map(AppRecord::approx_bytes)
                .sum::<usize>()
    }

    /// Finalizes the aggregation into a report, its detail rows in
    /// population order.
    pub fn finish(mut self, seed: u64, cold_starts: usize, runs: usize) -> FleetReport {
        self.detail.sort_unstable_by_key(|app| app.index);
        FleetReport {
            seed,
            cold_starts,
            runs,
            fleet_size: self.count,
            seed_digest: self.seed_digest,
            gate_passed_count: self.gate_passed,
            optimized_count: self.optimized,
            rolled_back_count: self.rolled_back,
            findings_total: self.findings_total,
            deferred_total: self.deferred_total,
            analyzer_warnings_total: self.analyzer_warnings_total,
            init_speedup: SpeedupDistribution::from_histogram(&self.init),
            e2e_speedup: SpeedupDistribution::from_histogram(&self.e2e),
            mem_reduction: SpeedupDistribution::from_histogram(&self.mem),
            init_hist: self.init,
            e2e_hist: self.e2e,
            mem_hist: self.mem,
            chaos: self.chaos,
            snapshots: self.snapshots,
            zygotes: self.zygotes,
            detail: self.detail,
            detail_truncated: self.detail_truncated,
        }
    }
}

/// The aggregated result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The experiment seed all per-app streams were split from.
    pub seed: u64,
    /// Cold starts per measurement run.
    pub cold_starts: usize,
    /// Measurement runs averaged per application (`SLIMSTART_RUNS`).
    pub runs: usize,
    /// Applications aggregated.
    pub fleet_size: usize,
    /// Order-independent XOR digest over every `(index, seed)`
    /// assignment — proves seed assignment without retaining rows.
    pub seed_digest: u64,
    /// Applications whose profile-informed gate passed.
    pub gate_passed_count: usize,
    /// Applications that shipped at least one import edit.
    pub optimized_count: usize,
    /// Applications rolled back by the pre-deployment verifier.
    pub rolled_back_count: usize,
    /// Total detector findings across the fleet.
    pub findings_total: usize,
    /// Total deferred packages across the fleet.
    pub deferred_total: usize,
    /// Total pre-deployment analyzer warnings across the fleet.
    pub analyzer_warnings_total: usize,
    /// Fleet-wide distribution of cold-init speedups.
    pub init_speedup: SpeedupDistribution,
    /// Fleet-wide distribution of end-to-end speedups.
    pub e2e_speedup: SpeedupDistribution,
    /// Fleet-wide distribution of memory reductions.
    pub mem_reduction: SpeedupDistribution,
    /// Cold-init speedup histogram.
    pub init_hist: FixedHistogram,
    /// End-to-end speedup histogram.
    pub e2e_hist: FixedHistogram,
    /// Memory-reduction histogram.
    pub mem_hist: FixedHistogram,
    /// Fault-injection summary; `None` for chaos-free fleets, which keeps
    /// the serialized report byte-identical to chaos-free builds.
    pub chaos: Option<FleetChaosSummary>,
    /// Snapshot-cache summary; `None` for pool-free fleets, which keeps
    /// the serialized report byte-identical to pool-free builds.
    pub snapshots: Option<FleetSnapshotSummary>,
    /// Zygote-fork summary; `None` for zygote-free fleets, which keeps
    /// the serialized report (including its schema tag) byte-identical
    /// to zygote-free builds.
    pub zygotes: Option<FleetZygoteSummary>,
    /// The first [`DETAIL_ROWS`] per-app rows, in population order.
    pub detail: Vec<AppRecord>,
    /// Whether rows beyond the detail window were summarized only.
    pub detail_truncated: bool,
}

impl FleetReport {
    /// Serializes the report. Deterministic: depends only on the fleet
    /// configuration, never on thread count, chunking, or wall-clock.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let schema = if self.zygotes.is_some() {
            REPORT_SCHEMA_ZYGOTE
        } else {
            REPORT_SCHEMA
        };
        let _ = write!(out, "\"schema\":\"{schema}\",");
        let _ = write!(out, "\"seed\":{},", self.seed);
        let _ = write!(out, "\"cold_starts\":{},", self.cold_starts);
        let _ = write!(out, "\"runs\":{},", self.runs);
        let _ = write!(out, "\"fleet_size\":{},", self.fleet_size);
        let _ = write!(out, "\"seed_digest\":{},", self.seed_digest);
        let _ = write!(out, "\"gate_passed\":{},", self.gate_passed_count);
        let _ = write!(out, "\"optimized\":{},", self.optimized_count);
        let _ = write!(out, "\"rolled_back\":{},", self.rolled_back_count);
        let _ = write!(out, "\"findings_total\":{},", self.findings_total);
        let _ = write!(out, "\"deferred_total\":{},", self.deferred_total);
        let _ = write!(
            out,
            "\"analyzer_warnings_total\":{},",
            self.analyzer_warnings_total
        );
        if let Some(chaos) = &self.chaos {
            let _ = write!(out, "\"chaos\":{},", chaos.to_json());
        }
        if let Some(snapshots) = &self.snapshots {
            let _ = write!(out, "\"snapshots\":{},", snapshots.to_json());
        }
        if let Some(zygotes) = &self.zygotes {
            let _ = write!(out, "\"zygotes\":{},", zygotes.to_json());
        }
        let _ = write!(
            out,
            "\"histogram\":{{\"bins\":{HIST_BINS},\"log2_lo\":{},\"log2_width\":{},\"scale_bits\":{HIST_SCALE_BITS}}},",
            num(HIST_LOG2_LO),
            num(HIST_LOG2_WIDTH),
        );
        let _ = write!(
            out,
            "\"init_speedup\":{},",
            self.init_speedup.to_json(&self.init_hist)
        );
        let _ = write!(
            out,
            "\"e2e_speedup\":{},",
            self.e2e_speedup.to_json(&self.e2e_hist)
        );
        let _ = write!(
            out,
            "\"mem_reduction\":{},",
            self.mem_reduction.to_json(&self.mem_hist)
        );
        out.push_str("\"detail\":[");
        for (i, app) in self.detail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&app.to_json());
        }
        out.push_str("],");
        let _ = write!(out, "\"detail_truncated\":{}", self.detail_truncated);
        out.push('}');
        out
    }

    /// Renders a human-readable fleet summary table over the detail
    /// window.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:<9} {:<26} {:>5} {:>9} {:>9} {:>9}  NOTES",
            "#", "CODE", "NAME", "GATE", "INITx", "E2Ex", "MEMx"
        );
        for a in &self.detail {
            let mut notes = Vec::new();
            if a.optimized {
                notes.push(format!("{} deferred", a.deferred));
            }
            if a.rolled_back {
                notes.push("rolled back".to_string());
            }
            if let Some(chaos) = &a.chaos {
                if chaos.degradation == "conservative" {
                    notes.push("conservative".to_string());
                }
                if chaos.recovered {
                    notes.push(format!("recovered from {} faults", chaos.faults));
                }
            }
            let _ = writeln!(
                out,
                "{:<5} {:<9} {:<26} {:>5} {:>9.2} {:>9.2} {:>9.2}  {}",
                a.index,
                a.code,
                a.name,
                if a.gate_passed { "yes" } else { "no" },
                a.speedup.init,
                a.speedup.e2e,
                a.speedup.mem,
                notes.join(", ")
            );
        }
        if self.detail_truncated {
            let _ = writeln!(
                out,
                "(first {} of {} apps; the rest live in the summary only)",
                self.detail.len(),
                self.fleet_size,
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "fleet: {} apps | {} above gate | {} optimized | {} rolled back | {} findings",
            self.fleet_size,
            self.gate_passed_count,
            self.optimized_count,
            self.rolled_back_count,
            self.findings_total,
        );
        if let Some(chaos) = &self.chaos {
            let _ = writeln!(
                out,
                "chaos: {} faults injected | {} apps faulted | {} recovered | {} degraded | {} failed",
                chaos.faults_total, chaos.faulted, chaos.recovered, chaos.degraded, chaos.failed,
            );
        }
        if let Some(snapshots) = &self.snapshots {
            let _ = writeln!(
                out,
                "snapshots: {} hits | {} misses | {:.1}% hit rate | {} evictions | {} faulted loads | {} KiB resident",
                snapshots.hits,
                snapshots.misses,
                snapshots.hit_rate() * 100.0,
                snapshots.evictions,
                snapshots.faulted_loads,
                snapshots.resident_bytes / 1024,
            );
        }
        if let Some(zygotes) = &self.zygotes {
            let _ = writeln!(
                out,
                "zygotes: {} forks | {} forked loads | {} resident modules | {} KiB resident",
                zygotes.forks,
                zygotes.forked_loads,
                zygotes.resident_modules,
                zygotes.resident_bytes / 1024,
            );
        }
        let _ = writeln!(
            out,
            "init speedup : mean {:.2}x  median {:.2}x  p90 {:.2}x  p99 {:.2}x",
            self.init_speedup.mean,
            self.init_speedup.median,
            self.init_speedup.p90,
            self.init_speedup.p99,
        );
        let _ = writeln!(
            out,
            "e2e speedup  : mean {:.2}x  median {:.2}x  p90 {:.2}x  p99 {:.2}x",
            self.e2e_speedup.mean,
            self.e2e_speedup.median,
            self.e2e_speedup.p90,
            self.e2e_speedup.p99,
        );
        let _ = writeln!(
            out,
            "mem reduction: mean {:.2}x  median {:.2}x  p90 {:.2}x  p99 {:.2}x",
            self.mem_reduction.mean,
            self.mem_reduction.median,
            self.mem_reduction.p90,
            self.mem_reduction.p99,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_simcore::SimRng;

    fn record(index: usize, init: f64, e2e: f64) -> AppRecord {
        AppRecord {
            index,
            code: format!("X-{index}"),
            name: format!("app {index}"),
            seed: index as u64,
            gate_passed: init > 1.0,
            optimized: init > 1.0,
            rolled_back: false,
            findings: usize::from(init > 1.0),
            deferred: usize::from(init > 1.0),
            analyzer_errors: 0,
            analyzer_warnings: 1,
            speedup: Speedup {
                init,
                load: init,
                e2e,
                p99_init: init,
                p99_load: init,
                p99_e2e: e2e,
                mem: 1.1,
            },
            baseline_init_ms: 400.0,
            baseline_e2e_ms: 500.0,
            optimized_e2e_ms: 500.0 / e2e,
            chaos: None,
            snapshot: None,
            zygote: None,
        }
    }

    /// Folds `records` in the order given into one report.
    fn fold_in_order(records: impl IntoIterator<Item = AppRecord>) -> FleetReport {
        let mut agg = FleetAggregator::new();
        for record in records {
            agg.fold(record);
        }
        agg.finish(7, 100, 1)
    }

    /// About a hundred records with chaos, snapshot and zygote rows mixed
    /// in, indices on both sides of the detail window, and two non-finite
    /// speedups (one inside the window) that the histograms skip.
    fn mixed_records() -> Vec<AppRecord> {
        let mut rng = SimRng::seed_from(0x0DE5_F1EE);
        let mut records: Vec<AppRecord> = (0..100)
            .map(|i| {
                let mut r = record(i, rng.uniform(0.5, 4.0), rng.uniform(0.8, 2.5));
                r.seed = rng.next_u64();
                r.speedup.mem = rng.uniform(0.9, 1.6);
                r.rolled_back = rng.chance(0.1);
                r.analyzer_warnings = rng.next_below(4);
                match i % 4 {
                    0 => {
                        r.chaos = Some(AppChaosRecord {
                            faults: rng.next_below(5) as u64,
                            profile_retries: 1,
                            deploy_retries: 0,
                            degradation: ["none", "conservative", "rolled-back"][rng.next_below(3)],
                            recovered: rng.chance(0.5),
                        });
                    }
                    1 => {
                        r.snapshot = Some(AppSnapshotRecord {
                            hits: rng.next_below(20) as u64,
                            misses: rng.next_below(5) as u64,
                            evictions: rng.next_below(3) as u64,
                            faulted_loads: rng.next_below(9) as u64,
                            resident_bytes: rng.next_below(1 << 20) as u64,
                        });
                    }
                    2 => {
                        r.zygote = Some(AppZygoteRecord {
                            forks: rng.next_below(20) as u64,
                            forked_loads: rng.next_below(90) as u64,
                            resident_modules: rng.next_below(9) as u64,
                            resident_bytes: rng.next_below(1 << 20) as u64,
                        });
                    }
                    _ => {}
                }
                r
            })
            .collect();
        records[7].speedup.init = f64::NAN;
        records[60].speedup.e2e = f64::INFINITY;
        records
    }

    #[test]
    fn aggregation_counts_and_distributions() {
        let report = fold_in_order([
            record(0, 2.0, 1.5),
            record(1, 1.0, 1.0),
            record(2, 1.6, 1.3),
        ]);
        assert_eq!(report.gate_passed_count, 2);
        assert_eq!(report.optimized_count, 2);
        assert_eq!(report.findings_total, 2);
        assert_eq!(report.analyzer_warnings_total, 3);
        // Mean is exact (fixed-point); min/max exact; quantiles land
        // within a bin width of the sample.
        assert!((report.init_speedup.mean - (2.0 + 1.0 + 1.6) / 3.0).abs() < 1e-6);
        assert!((report.init_speedup.min - 1.0).abs() < 1e-9);
        assert!((report.init_speedup.max - 2.0).abs() < 1e-9);
        assert!((report.init_speedup.median - 1.6).abs() < 0.05);
    }

    #[test]
    fn any_fold_and_merge_order_prints_the_in_order_bytes() {
        let records = mixed_records();
        let in_order = fold_in_order(records.clone());
        assert!(in_order.detail_truncated);
        assert_eq!(in_order.detail.len(), DETAIL_ROWS);
        assert!(in_order.chaos.is_some() && in_order.snapshots.is_some());
        assert!(in_order.zygotes.is_some());
        let (json, text) = (in_order.to_json(), in_order.render_text());

        let mut rng = SimRng::seed_from(0x0DE5_5EED);
        for trial in 0..64 {
            // Shuffled records dealt into a random number of partials
            // (some possibly empty), then merged pairwise in random order.
            let mut shuffled = records.clone();
            rng.shuffle(&mut shuffled);
            let mut partials = vec![FleetAggregator::new(); 1 + rng.next_below(8)];
            for record in shuffled {
                let at = rng.next_below(partials.len());
                partials[at].fold(record);
            }
            while partials.len() > 1 {
                let from = partials.swap_remove(rng.next_below(partials.len()));
                let into = rng.next_below(partials.len());
                partials[into].merge(from);
            }
            let report = partials.pop().expect("one partial left").finish(7, 100, 1);
            assert_eq!(report.to_json(), json, "trial {trial}");
            assert_eq!(report.render_text(), text, "trial {trial}");
        }
    }

    #[test]
    fn histogram_merge_is_associative_with_fixed_point_means() {
        let values: Vec<f64> = (0..1000).map(|i| 0.5 + (i % 97) as f64 * 0.037).collect();
        let mut whole = FixedHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        // Two very different partitions.
        for split in [1usize, 7, 333] {
            let mut merged = FixedHistogram::new();
            for chunk in values.chunks(split) {
                let mut part = FixedHistogram::new();
                for &v in chunk {
                    part.record(v);
                }
                merged.merge(&part);
            }
            assert_eq!(whole, merged, "partition by {split} changed the state");
            assert_eq!(whole.mean().to_bits(), merged.mean().to_bits());
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut agg = FleetAggregator::new();
        agg.fold(record(0, 2.0, 1.5));
        let json = agg.finish(7, 100, 2).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"slimstart-fleet-report/v3\""));
        assert!(json.contains("\"fleet_size\":1"));
        assert!(json.contains("\"runs\":2"));
        assert!(json.contains("\"code\":\"X-0\""));
        assert!(json.contains("\"seed_digest\":"));
        assert!(json.contains("\"detail_truncated\":false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_fleet_serializes() {
        let report = fold_in_order([]);
        assert!(report.to_json().contains("\"detail\":[]"));
        assert_eq!(report.init_speedup.mean, 0.0);
        assert_eq!(report.fleet_size, 0);
    }

    #[test]
    fn chaos_free_report_omits_every_chaos_key() {
        let report = fold_in_order([record(0, 2.0, 1.5)]);
        assert!(report.chaos.is_none());
        assert!(!report.to_json().contains("chaos"));
        assert!(!report.render_text().contains("chaos"));
    }

    #[test]
    fn chaos_rows_serialize_and_aggregate() {
        let mut a = record(0, 2.0, 1.5);
        a.chaos = Some(AppChaosRecord {
            faults: 4,
            profile_retries: 1,
            deploy_retries: 0,
            degradation: "none",
            recovered: true,
        });
        let mut b = record(1, 1.0, 1.0);
        b.chaos = Some(AppChaosRecord {
            faults: 9,
            profile_retries: 2,
            deploy_retries: 2,
            degradation: "rolled-back",
            recovered: false,
        });
        let report = fold_in_order([a, b]);
        let summary = report.chaos.unwrap();
        assert_eq!(summary.faulted, 2);
        assert_eq!(summary.recovered, 1);
        assert_eq!(summary.degraded, 1);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.faults_total, 13);
        let json = report.to_json();
        assert!(json.contains("\"chaos\":{\"faulted\":2"));
        assert!(json.contains("\"degradation\":\"rolled-back\""));
        assert!(report.render_text().contains("chaos: 13 faults injected"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn pool_free_report_omits_every_snapshot_key() {
        let report = fold_in_order([record(0, 2.0, 1.5)]);
        assert!(report.snapshots.is_none());
        assert!(!report.to_json().contains("snapshot"));
        assert!(!report.render_text().contains("snapshots"));
    }

    #[test]
    fn snapshot_rows_serialize_and_aggregate() {
        let mut a = record(0, 2.0, 1.5);
        a.snapshot = Some(AppSnapshotRecord {
            hits: 9,
            misses: 1,
            evictions: 2,
            faulted_loads: 3,
            resident_bytes: 4096,
        });
        let mut b = record(1, 1.0, 1.0);
        b.snapshot = Some(AppSnapshotRecord {
            hits: 1,
            misses: 3,
            evictions: 0,
            faulted_loads: 0,
            resident_bytes: 1024,
        });
        let report = fold_in_order([a, b]);
        let summary = report.snapshots.unwrap();
        assert_eq!(summary.hits, 10);
        assert_eq!(summary.misses, 4);
        assert_eq!(summary.evictions, 2);
        assert_eq!(summary.faulted_loads, 3);
        assert_eq!(summary.resident_bytes, 5120);
        assert!((summary.hit_rate() - 10.0 / 14.0).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"snapshots\":{\"hits\":10"));
        assert!(json.contains("\"snapshot\":{\"hits\":9"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = report.render_text();
        assert!(text.contains("snapshots: 10 hits | 4 misses | 71.4% hit rate"));
    }

    #[test]
    fn empty_snapshot_summary_hit_rate_is_zero() {
        assert_eq!(FleetSnapshotSummary::default().hit_rate(), 0.0);
    }

    #[test]
    fn zygote_free_report_keeps_the_v3_schema_and_omits_zygote_keys() {
        let report = fold_in_order([record(0, 2.0, 1.5)]);
        assert!(report.zygotes.is_none());
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"slimstart-fleet-report/v3\""));
        assert!(!json.contains("zygote"));
        assert!(!report.render_text().contains("zygotes"));
    }

    #[test]
    fn zygote_rows_serialize_aggregate_and_bump_the_schema() {
        let mut a = record(0, 2.0, 1.5);
        a.zygote = Some(AppZygoteRecord {
            forks: 10,
            forked_loads: 40,
            resident_modules: 4,
            resident_bytes: 8192,
        });
        let mut b = record(1, 1.0, 1.0);
        b.zygote = Some(AppZygoteRecord {
            forks: 2,
            forked_loads: 6,
            resident_modules: 3,
            resident_bytes: 2048,
        });
        let report = fold_in_order([a, b]);
        let summary = report.zygotes.unwrap();
        assert_eq!(summary.forks, 12);
        assert_eq!(summary.forked_loads, 46);
        assert_eq!(summary.resident_modules, 7);
        assert_eq!(summary.resident_bytes, 10_240);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"slimstart-fleet-report/v4\""));
        assert!(json.contains("\"zygotes\":{\"forks\":12"));
        assert!(json.contains("\"zygote\":{\"forks\":10"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = report.render_text();
        assert!(text.contains("zygotes: 12 forks | 46 forked loads"));
    }

    #[test]
    fn detail_window_is_capped_and_constant_memory() {
        let mut agg = FleetAggregator::new();
        for i in 0..10_000 {
            agg.fold(record(i, 1.5, 1.2));
        }
        let bytes = agg.approx_bytes();
        assert!(
            bytes < 64 * 1024,
            "aggregate state must stay small at 10k apps, got {bytes}"
        );
        let report = agg.finish(7, 100, 1);
        assert_eq!(report.fleet_size, 10_000);
        assert_eq!(report.detail.len(), DETAIL_ROWS);
        assert!(report.detail_truncated);
    }

    #[test]
    fn quantiles_are_clamped_into_the_observed_range() {
        let mut hist = FixedHistogram::new();
        hist.record(1.59);
        let d = SpeedupDistribution::from_histogram(&hist);
        assert_eq!(d.median, 1.59);
        assert_eq!(d.p99, 1.59);
        assert_eq!(d.min, 1.59);
        assert_eq!(d.max, 1.59);
    }
}
