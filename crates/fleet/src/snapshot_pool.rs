//! Node-level snapshot budgeting for fleet runs.
//!
//! PR 5 gave every app an unbounded, full-stream [`SnapshotStore`]; at
//! the ROADMAP's "millions of users" scale that models a node with
//! infinite memory. A [`NodeSnapshotPool`] instead models each node's
//! snapshot cache as a finite byte budget that the applications packed
//! onto that node must share, so large fleets have to choose which apps
//! stay snapshot-warm.
//!
//! ## Static fair-share sharding
//!
//! Apps are packed onto nodes by population index (`node = index /
//! node_size`), and a node's budget is split into equal per-app shards
//! up front. Each app then gets a *private* bounded store sized to its
//! shard ([`NodeSnapshotPool::store_for`]) rather than a handle to one
//! mutable node-wide cache. This is deliberate: the fleet's byte-identity
//! contract says `--threads 1` and `--threads 8` produce identical
//! reports, and a store whose eviction order depended on which worker
//! touched it first would break that *structurally*, not just
//! numerically. Fair-share shards keep the node budget honest — the sum
//! of shard budgets never exceeds the node budget — while keeping every
//! eviction decision a pure function of (population index, seed).
//!
//! The pool is a factory, not a registry: stores are created in
//! `run_app`, their counters are distilled into the app's
//! [`crate::report::AppSnapshotRecord`], and the store drops with the
//! app. Nothing snapshot-related is retained per app at 10k scale.

use std::sync::Arc;

use slimstart_pyrt::snapshot::SnapshotStore;

/// Default applications packed per modeled node.
pub const DEFAULT_NODE_SIZE: usize = 8;

/// Snapshot policy for a fleet run: how much node memory the snapshot
/// cache may use, how apps are packed onto nodes, and whether restores
/// replay the recorded working set lazily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSnapshotPool {
    /// Modeled per-node snapshot budget in bytes; `None` is unlimited.
    node_budget_bytes: Option<u64>,
    /// Applications packed per node (clamped to at least 1).
    node_size: usize,
    /// Whether restores replay only the recorded working set eagerly,
    /// faulting the rest in on first use (REAP-style).
    lazy_restore: bool,
}

impl Default for NodeSnapshotPool {
    fn default() -> Self {
        NodeSnapshotPool {
            node_budget_bytes: None,
            node_size: DEFAULT_NODE_SIZE,
            lazy_restore: true,
        }
    }
}

impl NodeSnapshotPool {
    /// Creates a pool with the given node budget (`None` = unlimited),
    /// node size, and restore mode.
    pub fn new(node_budget_bytes: Option<u64>, node_size: usize, lazy_restore: bool) -> Self {
        NodeSnapshotPool {
            node_budget_bytes,
            node_size: node_size.max(1),
            lazy_restore,
        }
    }

    /// The modeled per-node budget in bytes (`None` = unlimited).
    pub fn node_budget_bytes(&self) -> Option<u64> {
        self.node_budget_bytes
    }

    /// Applications packed per node.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Whether restores are working-set lazy.
    pub fn lazy_restore(&self) -> bool {
        self.lazy_restore
    }

    /// One app's fair share of the node budget. Integer division floors,
    /// so `node_size * shard_budget <= node_budget` always holds — the
    /// modeled node can never be oversubscribed by rounding. The
    /// remainder bytes stranded by flooring go to the node's first
    /// shards (see [`shard_budget_for`](Self::shard_budget_for)); this
    /// accessor reports the floor every shard is guaranteed.
    pub fn shard_budget_bytes(&self) -> Option<u64> {
        self.node_budget_bytes.map(|b| b / self.node_size as u64)
    }

    /// The exact shard budget for one population index. Every shard gets
    /// the floor `node_budget / node_size`; the `node_budget % node_size`
    /// remainder bytes go one each to the node's first shards (by
    /// position on the node), so the shard budgets of a full node sum to
    /// exactly the node budget — no byte is stranded, and the node still
    /// can never be oversubscribed.
    pub fn shard_budget_for(&self, index: usize) -> Option<u64> {
        self.shard_budget_for_reserved(index, 0)
    }

    /// Like [`shard_budget_for`](Self::shard_budget_for), with
    /// `reserve_bytes` of the node budget set aside first (the zygote
    /// pool's resident bytes share the same modeled node memory). The
    /// reserve saturates: a zygote closure larger than the node budget
    /// leaves zero-byte snapshot shards rather than wrapping.
    fn shard_budget_for_reserved(&self, index: usize, reserve_bytes: u64) -> Option<u64> {
        self.node_budget_bytes.map(|b| {
            let budget = b.saturating_sub(reserve_bytes);
            let base = budget / self.node_size as u64;
            let remainder = budget % self.node_size as u64;
            let position = (index % self.node_size) as u64;
            base + u64::from(position < remainder)
        })
    }

    /// Builds the bounded store for one application. The population
    /// index selects the node and the shard position on it (which
    /// decides who receives the remainder bytes); eviction order stays a
    /// pure function of the app's own event stream because every shard
    /// is private.
    pub fn store_for(&self, index: usize) -> Arc<SnapshotStore> {
        self.store_for_reserved(index, 0)
    }

    /// Builds the bounded store for one application with part of the
    /// node budget reserved (zygote residency accounting).
    pub fn store_for_reserved(&self, index: usize, reserve_bytes: u64) -> Arc<SnapshotStore> {
        Arc::new(SnapshotStore::with_limits(
            self.shard_budget_for_reserved(index, reserve_bytes),
            self.lazy_restore,
        ))
    }
}

/// Parses a human byte-budget string: a plain integer is bytes, and a
/// `k`/`m`/`g` suffix (case-insensitive, optionally followed by `b` or
/// `ib`) scales by binary powers. `"0"` and `"unlimited"` mean no limit.
///
/// # Errors
///
/// Returns a description of the malformed input: empty strings, a bare
/// suffix with no digits, an unrecognized suffix, and values that
/// overflow `u64` (either in the digits themselves or after scaling)
/// each get a distinct message.
pub fn parse_budget(s: &str) -> Result<Option<u64>, String> {
    let raw = s.trim().to_ascii_lowercase();
    if raw.is_empty() {
        return Err("empty byte budget (pass e.g. '64m', '0' or 'unlimited')".to_string());
    }
    if raw == "unlimited" || raw == "none" {
        return Ok(None);
    }
    let (digits, scale) = match raw.find(|c: char| !c.is_ascii_digit()) {
        None => (raw.as_str(), 1u64),
        Some(pos) => {
            let (digits, suffix) = raw.split_at(pos);
            let scale = match suffix {
                "k" | "kb" | "kib" => 1u64 << 10,
                "m" | "mb" | "mib" => 1u64 << 20,
                "g" | "gb" | "gib" => 1u64 << 30,
                _ => return Err(format!("unrecognized byte suffix '{suffix}' in '{s}'")),
            };
            (digits, scale)
        }
    };
    if digits.is_empty() {
        return Err(format!(
            "byte budget '{s}' has a suffix but no digits (pass e.g. '64k')"
        ));
    }
    let n: u64 = digits.parse().map_err(|e: std::num::ParseIntError| {
        if *e.kind() == std::num::IntErrorKind::PosOverflow {
            format!("byte budget '{s}' overflows u64")
        } else {
            format!("invalid byte budget '{s}'")
        }
    })?;
    let bytes = n
        .checked_mul(scale)
        .ok_or_else(|| format!("byte budget '{s}' overflows u64"))?;
    Ok((bytes > 0).then_some(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_never_oversubscribes_the_node() {
        for budget in [1u64, 1000, 1 << 20, (1 << 30) + 7] {
            for node_size in [1usize, 3, 8, 13] {
                let pool = NodeSnapshotPool::new(Some(budget), node_size, true);
                let shard = pool.shard_budget_bytes().unwrap();
                assert!(shard * node_size as u64 <= budget);
                for index in 0..node_size * 2 {
                    let exact = pool.shard_budget_for(index).unwrap();
                    assert!(exact >= shard, "exact shard below the guaranteed floor");
                }
            }
        }
    }

    #[test]
    fn fair_share_remainder_reaches_the_first_shards_exactly() {
        for budget in [0u64, 1, 7, 1000, 1 << 20, (1 << 30) + 7] {
            for node_size in [1usize, 3, 8, 13] {
                let pool = NodeSnapshotPool::new(Some(budget), node_size, true);
                // The shard budgets of one full node sum to exactly the
                // node budget: flooring strands nothing.
                let total: u64 = (0..node_size)
                    .map(|i| pool.shard_budget_for(i).unwrap())
                    .sum();
                assert_eq!(
                    total, budget,
                    "node budget {budget} split over {node_size} shards lost bytes"
                );
                // Shard position, not absolute index, decides who gets
                // the remainder — every node splits identically.
                for i in 0..node_size {
                    assert_eq!(
                        pool.shard_budget_for(i),
                        pool.shard_budget_for(i + node_size),
                    );
                }
            }
        }
    }

    #[test]
    fn reserved_bytes_shrink_the_shared_node_budget() {
        let pool = NodeSnapshotPool::new(Some(1000), 4, true);
        let total: u64 = (0..4)
            .map(|i| pool.shard_budget_for_reserved(i, 300).unwrap())
            .sum();
        assert_eq!(total, 700);
        // A reserve beyond the whole budget saturates to zero shards.
        assert_eq!(pool.shard_budget_for_reserved(0, 5000), Some(0));
        // Unlimited nodes ignore the reserve.
        let unlimited = NodeSnapshotPool::new(None, 4, true);
        assert_eq!(unlimited.shard_budget_for_reserved(0, 300), None);
    }

    #[test]
    fn stores_inherit_shard_budget_and_mode() {
        let pool = NodeSnapshotPool::new(Some(8192), 4, true);
        let store = pool.store_for(2);
        assert_eq!(store.budget_bytes(), Some(2048));
        assert!(store.lazy_restore());

        let eager = NodeSnapshotPool::new(None, 4, false);
        let store = eager.store_for(0);
        assert_eq!(store.budget_bytes(), None);
        assert!(!store.lazy_restore());
    }

    #[test]
    fn node_size_is_clamped_to_one() {
        let pool = NodeSnapshotPool::new(Some(100), 0, true);
        assert_eq!(pool.node_size(), 1);
        assert_eq!(pool.shard_budget_bytes(), Some(100));
    }

    #[test]
    fn budget_parsing_accepts_suffixes_and_sentinels() {
        assert_eq!(parse_budget("4096"), Ok(Some(4096)));
        assert_eq!(parse_budget("64k"), Ok(Some(64 << 10)));
        assert_eq!(parse_budget("8M"), Ok(Some(8 << 20)));
        assert_eq!(parse_budget("2GiB"), Ok(Some(2 << 30)));
        assert_eq!(parse_budget("512kb"), Ok(Some(512 << 10)));
        assert_eq!(parse_budget("0"), Ok(None));
        assert_eq!(parse_budget("16g"), Ok(Some(16 << 30)));
        assert_eq!(parse_budget("unlimited"), Ok(None));
        assert!(parse_budget("12q").is_err());
        assert!(parse_budget("999999999999g").is_err());
    }

    #[test]
    fn budget_parsing_rejects_empty_overflow_and_bare_suffix_with_clear_errors() {
        let empty = parse_budget("").unwrap_err();
        assert!(empty.contains("empty"), "got: {empty}");
        let blank = parse_budget("   ").unwrap_err();
        assert!(blank.contains("empty"), "got: {blank}");

        // u64::MAX + 1: the digits themselves overflow, distinct from a
        // generically malformed number.
        let overflow = parse_budget("18446744073709551616").unwrap_err();
        assert!(overflow.contains("overflows u64"), "got: {overflow}");
        // Overflow introduced by the scale factor reads the same way.
        let scaled = parse_budget("999999999999g").unwrap_err();
        assert!(scaled.contains("overflows u64"), "got: {scaled}");

        // A bare suffix has no digits to scale.
        let bare = parse_budget("k").unwrap_err();
        assert!(bare.contains("no digits"), "got: {bare}");

        // The exact boundary still parses.
        assert_eq!(
            parse_budget("18446744073709551615"),
            Ok(Some(u64::MAX)),
            "u64::MAX is a valid budget"
        );
    }
}
