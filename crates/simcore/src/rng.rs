//! Seeded, splittable randomness for deterministic simulation.
//!
//! Every stochastic decision in the workspace draws from a [`SimRng`] that is
//! ultimately derived from one experiment seed. Independent components
//! (workload generation, per-invocation branches, sampling jitter) obtain
//! *split* child generators so that adding randomness consumption in one
//! component never perturbs another.
//!
//! The generator is xoshiro256++, its four state words seeded by SplitMix64
//! from the `u64` seed. The same seed gives the same stream on every run,
//! thread count and platform.

/// A deterministic random-number generator for simulation use.
///
/// xoshiro256++ seeded from a `u64`. Use [`SimRng::split`] to derive
/// statistically independent child generators for sub-components.
///
/// # Example
///
/// ```
/// use slimstart_simcore::rng::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // The first four outputs of a SplitMix64 generator started at `seed`.
        let mut state = seed;
        SimRng {
            s: [(); 4].map(|()| {
                let word = splitmix64(state);
                state = state.wrapping_add(GOLDEN_GAMMA);
                word
            }),
        }
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is a deterministic function of the parent's state,
    /// and the parent advances by exactly one draw, so sibling splits are
    /// mutually independent and reproducible.
    pub fn split(&mut self) -> SimRng {
        SimRng::seed_from(self.split_seed())
    }

    /// Derives the seed a [`SimRng::split`] child would be constructed
    /// with, advancing the parent by one draw.
    ///
    /// Useful when the consumer wants to *record* per-component seeds
    /// (e.g. the fleet orchestrator's per-app seeds) rather than hold
    /// generator instances: `SimRng::seed_from(rng.split_seed())` is
    /// identical to `rng.split()`.
    pub fn split_seed(&mut self) -> u64 {
        // Mix the drawn value so that consecutive splits land on distant
        // seeds even if the underlying stream were low-entropy.
        splitmix64(self.next_u64())
    }

    /// Draws the next `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draws a uniform float in `[0, 1)` from the top 53 bits of a draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "SimRng::next_below: bound must be positive");
        // Reject draws above the largest multiple of `bound`, so the
        // remainder is unbiased.
        let span = bound as u64;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return (v % span) as usize;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Draws a uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "SimRng::uniform: lo must not exceed hi");
        if lo == hi {
            lo
        } else {
            lo + self.next_f64() * (hi - lo)
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "SimRng::pick: empty slice");
        &items[self.next_below(items.len())]
    }
}

/// SplitMix64's increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step from state `z`: seeds the generator's state words
/// and decorrelates split seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each method's first four outputs from a fresh `seed_from(seed)`,
    /// floats as their bits.
    fn first_outputs(seed: u64) -> [[u64; 4]; 5] {
        let draws: [fn(&mut SimRng) -> u64; 5] = [
            |r| r.next_u64(),
            |r| r.next_f64().to_bits(),
            |r| r.next_below(10) as u64,
            |r| r.uniform(-2.0, 3.0).to_bits(),
            |r| r.split_seed(),
        ];
        draws.map(|draw| {
            let mut rng = SimRng::seed_from(seed);
            [(); 4].map(|()| draw(&mut rng))
        })
    }

    #[test]
    fn streams_are_pinned() {
        // The goldens depend on these streams, so unlike the other RNG
        // tests this one asserts exact values.
        assert_eq!(
            first_outputs(0),
            [
                [
                    0x53175d61490b23df,
                    0x61da6f3dc380d507,
                    0x5c0fdf91ec9a7bfc,
                    0x02eebf8c3bbe5e1a
                ],
                [
                    0x3fd4c5d7585242c8,
                    0x3fd8769bcf70e034,
                    0x3fd703f7e47b269e,
                    0x3f8775fc61ddf2c0
                ],
                [3, 5, 0, 0],
                [
                    0xbfd822cb4664b218,
                    0xbfb6bbd3cb2e7bf0,
                    0xbfc9d85113307dd0,
                    0xbfff1564242d5484
                ],
                [
                    0x5629ccb154f179ba,
                    0x59d7bbda739f5447,
                    0xc319eb1e905d4551,
                    0x061726f166e213a9
                ],
            ]
        );
        assert_eq!(
            first_outputs(2025),
            [
                [
                    0xcb2b830825937149,
                    0xbf965a06eb73a2da,
                    0xc55e708071ae8fa7,
                    0xf2a7ca4e46f2a9f3
                ],
                [
                    0x3fe965706104b26e,
                    0x3fe7f2cb40dd6e74,
                    0x3fe8abce100e35d1,
                    0x3fee54f949c8de55
                ],
                [5, 2, 3, 3],
                [
                    0x3fff7d98f28bbe14,
                    0x3ffbdefc22299422,
                    0x3ffdad832823868a,
                    0x4005ea379c3b15ea
                ],
                [
                    0xc4d00655c30bab8c,
                    0x94231254b22535e2,
                    0xb74357b7f20ffd3a,
                    0x7db4340098b090e6
                ],
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from distinct seeds should differ");
    }

    #[test]
    fn split_children_are_independent_of_parent_consumption() {
        // A split taken at the same parent state is identical regardless of
        // what the child later consumes.
        let mut p1 = SimRng::seed_from(9);
        let mut p2 = SimRng::seed_from(9);
        let mut c1 = p1.split();
        let mut c2 = p2.split();
        c1.next_u64();
        c1.next_u64();
        assert_eq!(c1.next_u64(), {
            c2.next_u64();
            c2.next_u64();
            c2.next_u64()
        });
        // Parent streams stay in lockstep after the split.
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn sibling_splits_differ() {
        let mut p = SimRng::seed_from(5);
        let mut a = p.split();
        let mut b = p.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_seed_is_pure_over_seed_and_split_order() {
        // The k-th split seed is a function of (root seed, k) alone — the
        // fleet/chaos seed-assignment contract.
        let take = |seed: u64, n: usize| -> Vec<u64> {
            let mut rng = SimRng::seed_from(seed);
            (0..n).map(|_| rng.split_seed()).collect()
        };
        assert_eq!(take(2025, 8), take(2025, 8));
        // A shorter prefix is exactly the head of a longer one.
        assert_eq!(take(2025, 3), take(2025, 8)[..3].to_vec());
        assert_ne!(take(2025, 8), take(2026, 8));
    }

    #[test]
    fn split_seed_matches_split() {
        // `SimRng::seed_from(rng.split_seed())` and `rng.split()` must be
        // interchangeable (documented equivalence).
        let mut p1 = SimRng::seed_from(404);
        let mut p2 = SimRng::seed_from(404);
        let mut via_seed = SimRng::seed_from(p1.split_seed());
        let mut via_split = p2.split();
        for _ in 0..16 {
            assert_eq!(via_seed.next_u64(), via_split.next_u64());
        }
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn split_children_are_uncorrelated_with_parent_stream() {
        // Drawing from a child never perturbs the parent, and the child's
        // stream shares no prefix with the parent's continuation — so
        // enabling a chaos stream cannot shift main simulation randomness.
        let mut parent = SimRng::seed_from(88);
        let mut child = parent.split();
        let child_draws: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let parent_draws: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        assert_ne!(child_draws, parent_draws);
        // An identically-seeded parent that never splits a child produces
        // the same continuation shifted by exactly the one split draw.
        let mut reference = SimRng::seed_from(88);
        reference.next_u64(); // the draw split_seed consumed
        let reference_draws: Vec<u64> = (0..8).map(|_| reference.next_u64()).collect();
        assert_eq!(parent_draws, reference_draws);
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut rng = SimRng::seed_from(77);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes_are_deterministic() {
        let mut rng = SimRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_probability_is_roughly_respected() {
        let mut rng = SimRng::seed_from(31);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut rng = SimRng::seed_from(8);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn next_below_rejects_zero() {
        SimRng::seed_from(0).next_below(0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform(4.0, 4.0), 4.0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = SimRng::seed_from(13);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items)));
        }
    }
}
