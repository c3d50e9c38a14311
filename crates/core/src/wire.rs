//! Profile wire format: how sample batches travel to the collector.
//!
//! The paper's profiler writes samples to a local buffer and batch-transfers
//! them asynchronously to external storage (DynamoDB/S3, §IV-D). This module
//! defines the compact binary encoding of one transferred batch, so the
//! simulation can account for real transfer sizes and the asynchronous
//! [`collector`](crate::collector) has an actual byte stream to decode.
//!
//! Layout (little-endian):
//!
//! ```text
//! [magic u32 = 0x534C4D31 ("SLM1")]
//! [sample_count u32]
//!   per sample: [flags u8: bit0 = is_init] [depth u16]
//!     per frame: [kind u8: 0 = module-init, 1 = call] [id u32] [line u32]
//! [init_entry_count u32]
//!   per entry: [module u32] [micros u64]
//! ```
//!
//! Every sample carries its frames in full; path ids never travel. The
//! decoder interns the frames into the batch's own table. Its maps use the
//! seedless FxHash like the rest of the profile path: batches come from
//! this process's own sampler attachments, not from an untrusted peer.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fxhash::FxHashMap;

use slimstart_appmodel::{FunctionId, ModuleId};
use slimstart_pyrt::stack::{Frame, FrameKind};

use crate::profile::{PathTable, SampleRecord};
use crate::sampler::PathCursor;

const MAGIC: u32 = 0x534C_4D31;

/// Errors raised while decoding a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer does not start with the batch magic.
    BadMagic,
    /// The buffer ended before the declared contents.
    Truncated,
    /// A frame kind byte was neither 0 nor 1.
    BadFrameKind(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "profile batch has wrong magic"),
            WireError::Truncated => write!(f, "profile batch is truncated"),
            WireError::BadFrameKind(k) => write!(f, "unknown frame kind byte {k}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One batch of profile data in decoded form.
#[derive(Debug, Clone, Default)]
pub struct ProfileBatch {
    /// Captured samples.
    pub samples: Vec<SampleRecord>,
    /// The call paths the samples' ids refer to.
    pub paths: PathTable,
    /// Exact per-module init time observations, microseconds.
    pub init_micros: FxHashMap<ModuleId, u64>,
}

/// Two batches are equal when they carry the same samples, compared by
/// frames and init flag, and the same init entries; their tables may
/// number the paths differently.
impl PartialEq for ProfileBatch {
    fn eq(&self, other: &Self) -> bool {
        self.samples.len() == other.samples.len()
            && self.init_micros == other.init_micros
            && self.samples.iter().zip(&other.samples).all(|(a, b)| {
                a.is_init == b.is_init && self.paths.frames(a.path) == other.paths.frames(b.path)
            })
    }
}

impl ProfileBatch {
    /// Encodes the batch into its wire form. Each sample carries its
    /// frames in full.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(self.samples.len() as u32);
        let mut frames = Vec::new();
        for (i, s) in self.samples.iter().enumerate() {
            if i == 0 || s.path != self.samples[i - 1].path {
                self.paths.resolve(s.path, &mut frames);
            }
            buf.put_u8(u8::from(s.is_init));
            buf.put_u16_le(frames.len() as u16);
            for frame in &frames {
                match frame.kind {
                    FrameKind::ModuleInit(m) => {
                        buf.put_u8(0);
                        buf.put_u32_le(m.index() as u32);
                    }
                    FrameKind::Call(f) => {
                        buf.put_u8(1);
                        buf.put_u32_le(f.index() as u32);
                    }
                }
                buf.put_u32_le(frame.line);
            }
        }
        buf.put_u32_le(self.init_micros.len() as u32);
        // Deterministic order for reproducible byte streams.
        let mut entries: Vec<(&ModuleId, &u64)> = self.init_micros.iter().collect();
        entries.sort();
        for (module, micros) in entries {
            buf.put_u32_le(module.index() as u32);
            buf.put_u64_le(*micros);
        }
        buf.freeze()
    }

    /// The exact size [`ProfileBatch::encode`] will produce, in bytes —
    /// what the simulated network transfer is charged for.
    pub fn encoded_len(&self) -> usize {
        let depth = |mut path| {
            let mut depth = 0;
            while let Some(parent) = self.paths.parent(path) {
                depth += 1;
                path = parent;
            }
            depth
        };
        let samples: usize = self.samples.iter().map(|s| 1 + 2 + depth(s.path) * 9).sum();
        4 + 4 + samples + 4 + self.init_micros.len() * 12
    }

    /// Decodes a batch from its wire form.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(mut buf: Bytes) -> Result<ProfileBatch, WireError> {
        fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
            if buf.remaining() < n {
                Err(WireError::Truncated)
            } else {
                Ok(())
            }
        }
        need(&buf, 8)?;
        if buf.get_u32_le() != MAGIC {
            return Err(WireError::BadMagic);
        }
        let sample_count = buf.get_u32_le() as usize;
        let mut samples = Vec::with_capacity(sample_count.min(1 << 20));
        let mut paths = PathTable::new();
        let mut cursor = PathCursor::new();
        let mut path = Vec::new();
        for _ in 0..sample_count {
            need(&buf, 3)?;
            let flags = buf.get_u8();
            let depth = buf.get_u16_le() as usize;
            path.clear();
            for _ in 0..depth {
                need(&buf, 9)?;
                let kind_byte = buf.get_u8();
                let id = buf.get_u32_le() as usize;
                let line = buf.get_u32_le();
                let kind = match kind_byte {
                    0 => FrameKind::ModuleInit(ModuleId::from_index(id)),
                    1 => FrameKind::Call(FunctionId::from_index(id)),
                    other => return Err(WireError::BadFrameKind(other)),
                };
                path.push(Frame { kind, line });
            }
            samples.push(SampleRecord {
                path: cursor.capture(&path, &mut paths),
                is_init: flags & 1 != 0,
            });
        }
        need(&buf, 4)?;
        let entry_count = buf.get_u32_le() as usize;
        let mut init_micros =
            FxHashMap::with_capacity_and_hasher(entry_count.min(1 << 20), Default::default());
        for _ in 0..entry_count {
            need(&buf, 12)?;
            let module = ModuleId::from_index(buf.get_u32_le() as usize);
            let micros = buf.get_u64_le();
            init_micros.insert(module, micros);
        }
        Ok(ProfileBatch {
            samples,
            paths,
            init_micros,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_simcore::rng::SimRng;

    fn frame_call(i: usize, line: u32) -> Frame {
        Frame {
            kind: FrameKind::Call(FunctionId::from_index(i)),
            line,
        }
    }

    fn frame_init(i: usize) -> Frame {
        Frame {
            kind: FrameKind::ModuleInit(ModuleId::from_index(i)),
            line: 1,
        }
    }

    fn batch() -> ProfileBatch {
        let mut init = FxHashMap::default();
        init.insert(ModuleId::from_index(3), 12_345u64);
        init.insert(ModuleId::from_index(7), 999u64);
        let mut paths = PathTable::new();
        ProfileBatch {
            samples: vec![
                SampleRecord {
                    path: paths.intern(&[frame_call(0, 5), frame_call(1, 9)]),
                    is_init: false,
                },
                SampleRecord {
                    path: paths.intern(&[frame_init(2)]),
                    is_init: true,
                },
            ],
            paths,
            init_micros: init,
        }
    }

    /// Two paths, one of them shared by two samples, and one init entry.
    fn pinned_batch() -> ProfileBatch {
        let mut paths = PathTable::new();
        // An unused node, so the ids differ from a decoder's numbering.
        paths.intern(&[frame_call(8, 8)]);
        let a = paths.intern(&[frame_call(0, 5), frame_call(1, 9)]);
        let b = paths.intern(&[frame_init(2)]);
        let mut init_micros = FxHashMap::default();
        init_micros.insert(ModuleId::from_index(3), 12_345u64);
        ProfileBatch {
            samples: [(a, false), (b, true), (a, false)]
                .into_iter()
                .map(|(path, is_init)| SampleRecord { path, is_init })
                .collect(),
            paths,
            init_micros,
        }
    }

    /// The encoding of [`pinned_batch`], as the per-sample `Arc` path
    /// encoder wrote it before samples became interned ids.
    const PINNED: &[u8] = b"\x31\x4d\x4c\x53\x03\x00\x00\x00\
        \x00\x02\x00\x01\x00\x00\x00\x00\x05\x00\x00\x00\x01\x01\x00\x00\x00\x09\x00\x00\x00\
        \x01\x01\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\
        \x00\x02\x00\x01\x00\x00\x00\x00\x05\x00\x00\x00\x01\x01\x00\x00\x00\x09\x00\x00\x00\
        \x01\x00\x00\x00\x03\x00\x00\x00\x39\x30\x00\x00\x00\x00\x00\x00";

    #[test]
    fn encoding_is_pinned() {
        let batch = pinned_batch();
        let encoded = batch.encode();
        assert_eq!(encoded.as_slice(), PINNED);
        assert_eq!(batch.encoded_len(), encoded.len());
        let decoded = ProfileBatch::decode(encoded).unwrap();
        assert_eq!(decoded, batch);
        assert_eq!(decoded.samples[0].path, decoded.samples[2].path);
        assert_eq!(decoded.encode().as_slice(), PINNED);
    }

    #[test]
    fn round_trip() {
        let b = batch();
        let encoded = b.encode();
        let decoded = ProfileBatch::decode(encoded).unwrap();
        assert_eq!(decoded, b);
    }

    #[test]
    fn encoded_len_is_exact() {
        let b = batch();
        assert_eq!(b.encode().len(), b.encoded_len());
        let empty = ProfileBatch::default();
        assert_eq!(empty.encode().len(), empty.encoded_len());
        assert_eq!(empty.encoded_len(), 12);
    }

    #[test]
    fn empty_batch_round_trips() {
        let b = ProfileBatch::default();
        assert_eq!(ProfileBatch::decode(b.encode()).unwrap(), b);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u32_le(0xDEAD_BEEF);
        raw.put_u32_le(0);
        assert_eq!(ProfileBatch::decode(raw.freeze()), Err(WireError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let encoded = batch().encode();
        for cut in [0, 4, 7, encoded.len() - 1] {
            let err = ProfileBatch::decode(encoded.slice(..cut)).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_frame_kind_detected() {
        let mut raw = BytesMut::new();
        raw.put_u32_le(MAGIC);
        raw.put_u32_le(1); // one sample
        raw.put_u8(0); // flags
        raw.put_u16_le(1); // depth 1
        raw.put_u8(9); // invalid frame kind
        raw.put_u32_le(0);
        raw.put_u32_le(0);
        raw.put_u32_le(0); // no init entries
        assert_eq!(
            ProfileBatch::decode(raw.freeze()),
            Err(WireError::BadFrameKind(9))
        );
    }

    #[test]
    fn random_batches_round_trip() {
        let mut rng = SimRng::seed_from(99);
        for _ in 0..50 {
            let n = rng.next_below(40);
            let mut paths = PathTable::new();
            let samples: Vec<SampleRecord> = (0..n)
                .map(|_| {
                    let depth = 1 + rng.next_below(8);
                    let frames: Vec<Frame> = (0..depth)
                        .map(|_| {
                            if rng.chance(0.3) {
                                frame_init(rng.next_below(100))
                            } else {
                                frame_call(rng.next_below(100), rng.next_below(500) as u32)
                            }
                        })
                        .collect();
                    SampleRecord {
                        path: paths.intern(&frames),
                        is_init: rng.chance(0.5),
                    }
                })
                .collect();
            let mut init_micros = FxHashMap::default();
            for _ in 0..rng.next_below(10) {
                init_micros.insert(
                    ModuleId::from_index(rng.next_below(64)),
                    rng.next_u64() >> 20,
                );
            }
            let b = ProfileBatch {
                samples,
                paths,
                init_micros,
            };
            let encoded = b.encode();
            assert_eq!(encoded.len(), b.encoded_len());
            let decoded = ProfileBatch::decode(encoded.clone()).unwrap();
            assert_eq!(decoded, b);
            assert_eq!(decoded.encode().as_slice(), encoded.as_slice());
        }
    }
}
