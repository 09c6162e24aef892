//! Content-addressed sharing of baked plan segments.
//!
//! A [`SegmentStore`] is an interner over the *baked* parameter blocks a
//! plan step carries — the quantized conv weight + bias, the pre-transposed
//! quantized linear weight, or a whole [`FusedConvPool`] kernel. Keys are
//! SHA-256 content hashes over the segment's source form (geometry that
//! shapes the baked bytes, the precision, and the FP32 parameters), so two
//! plans compiled through the same store — different revisions of one
//! model, or structurally identical layers of *different* models — share
//! one `Arc` per unique layer instead of each owning a copy.
//!
//! The store holds only [`Weak`] references: plans own their segments, the
//! index never pins memory. When the last plan referencing a segment is
//! dropped (hot-swap drain completing, cache eviction), the bytes are
//! freed and the stale index entry is reaped on the next lookup or
//! [`SegmentStore::stats`] scan. Resident bytes therefore track *live
//! unique layers*, which is exactly the density metric `BENCH_density.json`
//! records.
//!
//! Every cache hit is cross-checked against a structural fingerprint
//! (form, weight length, bias length). A mismatch means the content hash
//! collided or the index was corrupted; it surfaces as a deny-coded
//! `error[R006]` compile error rather than silently aliasing weights.

use crate::fused::FusedConvPool;
use mlcnn_tensor::{Result, Tensor, TensorError};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

/// A type-erased, owning handle on one shared parameter segment of a
/// compiled plan (see `ExecutionPlan::param_handles`). Holding the handle
/// keeps the segment's bytes resident; [`ParamHandle::addr`] is stable
/// for a segment's lifetime and equal across every plan sharing it.
pub struct ParamHandle {
    arc: Arc<dyn Any + Send + Sync>,
    bytes: usize,
}

impl ParamHandle {
    pub(crate) fn new<T: Any + Send + Sync>(arc: Arc<T>, bytes: usize) -> Self {
        Self { arc, bytes }
    }

    /// Identity of the shared allocation: equal addresses mean the same
    /// resident segment.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.arc).cast::<()>().addr()
    }

    /// Parameter bytes the segment keeps resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Downgrade to a weak observer: upgrades succeed exactly while some
    /// plan (or handle) still owns the segment — the probe drain tests use
    /// to assert shared weights are released only after the last owner.
    pub fn downgrade(&self) -> Weak<dyn Any + Send + Sync> {
        Arc::downgrade(&self.arc)
    }
}

/// A content hash key: SHA-256 over the segment's source form.
pub type SegmentKey = [u8; 32];

/// Structural fingerprint cross-checked on every index hit, so a hash
/// collision can never alias one layer's weights to another's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    /// Segment form discriminant (conv / linear / fused).
    pub form: u8,
    /// Baked weight length in elements.
    pub weight_len: usize,
    /// Bias length in elements.
    pub bias_len: usize,
}

/// One baked, shareable parameter block.
#[derive(Debug, Clone)]
pub(crate) enum Segment {
    /// Plain conv: quantized weight and bias.
    Conv {
        weight: Arc<Tensor<f32>>,
        bias: Arc<Vec<f32>>,
    },
    /// Linear: pre-transposed quantized weight and bias.
    Linear {
        weight_t: Arc<Vec<f32>>,
        bias: Arc<Vec<f32>>,
    },
    /// Whole fused conv-pool kernel (weights + config; geometry stays
    /// per-plan, so one kernel serves any input size).
    Fused { kernel: Arc<FusedConvPool<f32>> },
}

impl Segment {
    fn fingerprint(&self) -> Fingerprint {
        match self {
            Segment::Conv { weight, bias } => Fingerprint {
                form: 0,
                weight_len: weight.len(),
                bias_len: bias.len(),
            },
            Segment::Linear { weight_t, bias } => Fingerprint {
                form: 1,
                weight_len: weight_t.len(),
                bias_len: bias.len(),
            },
            Segment::Fused { kernel } => Fingerprint {
                form: 2,
                weight_len: kernel.weight().len(),
                bias_len: kernel.bias().len(),
            },
        }
    }

    /// Parameter bytes this segment keeps resident.
    pub(crate) fn bytes(&self) -> usize {
        let f = self.fingerprint();
        (f.weight_len + f.bias_len) * std::mem::size_of::<f32>()
    }

    fn downgrade(&self) -> WeakSegment {
        match self {
            Segment::Conv { weight, bias } => WeakSegment::Conv {
                weight: Arc::downgrade(weight),
                bias: Arc::downgrade(bias),
            },
            Segment::Linear { weight_t, bias } => WeakSegment::Linear {
                weight_t: Arc::downgrade(weight_t),
                bias: Arc::downgrade(bias),
            },
            Segment::Fused { kernel } => WeakSegment::Fused {
                kernel: Arc::downgrade(kernel),
            },
        }
    }
}

enum WeakSegment {
    Conv {
        weight: Weak<Tensor<f32>>,
        bias: Weak<Vec<f32>>,
    },
    Linear {
        weight_t: Weak<Vec<f32>>,
        bias: Weak<Vec<f32>>,
    },
    Fused {
        kernel: Weak<FusedConvPool<f32>>,
    },
}

impl WeakSegment {
    fn upgrade(&self) -> Option<Segment> {
        match self {
            WeakSegment::Conv { weight, bias } => Some(Segment::Conv {
                weight: weight.upgrade()?,
                bias: bias.upgrade()?,
            }),
            WeakSegment::Linear { weight_t, bias } => Some(Segment::Linear {
                weight_t: weight_t.upgrade()?,
                bias: bias.upgrade()?,
            }),
            WeakSegment::Fused { kernel } => Some(Segment::Fused {
                kernel: kernel.upgrade()?,
            }),
        }
    }
}

struct EntryRec {
    seg: WeakSegment,
    fingerprint: Fingerprint,
    bytes: usize,
}

struct Inner {
    entries: HashMap<SegmentKey, EntryRec>,
    hits: u64,
    misses: u64,
}

/// Aggregate counters for a [`SegmentStore`]. `resident_bytes` counts the
/// parameter bytes of *live* unique segments — segments whose owning plans
/// have all been dropped no longer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentStats {
    /// Unique segments currently alive (referenced by at least one plan).
    pub live: usize,
    /// Lookups served from an existing live segment.
    pub hits: u64,
    /// Lookups that had to bake a new segment.
    pub misses: u64,
    /// Parameter bytes of the live unique segments.
    pub resident_bytes: usize,
}

/// Content-addressed interner for baked plan segments. See the
/// [module docs](self).
///
/// Thread-safe: compiles on many threads share one store; concurrent
/// lookups of the same key bake at most once.
pub struct SegmentStore {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for SegmentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentStore {
    /// Fresh, empty store.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Look up `key`, baking (and indexing) the segment on a miss. A hit
    /// is cross-checked against `expect`; a fingerprint conflict is an
    /// `error[R006]` — content-hash collision or index corruption — and
    /// fails the compile rather than aliasing weights.
    pub(crate) fn get_or_bake(
        &self,
        key: SegmentKey,
        expect: Fingerprint,
        bake: impl FnOnce() -> Result<Segment>,
    ) -> Result<Segment> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(rec) = inner.entries.get(&key) {
            if let Some(seg) = rec.seg.upgrade() {
                if rec.fingerprint != expect {
                    return Err(conflict(&key, rec.fingerprint, expect));
                }
                inner.hits += 1;
                return Ok(seg);
            }
        }
        // miss (or dead entry): bake under the lock so racing compiles of
        // the same content produce exactly one resident copy
        let seg = bake()?;
        let fingerprint = seg.fingerprint();
        if fingerprint != expect {
            return Err(conflict(&key, fingerprint, expect));
        }
        inner.misses += 1;
        inner.entries.insert(
            key,
            EntryRec {
                seg: seg.downgrade(),
                fingerprint,
                bytes: seg.bytes(),
            },
        );
        Ok(seg)
    }

    /// Scan the index: reap dead entries, return live counters.
    pub fn stats(&self) -> SegmentStats {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.entries.retain(|_, rec| rec.seg.upgrade().is_some());
        let (hits, misses) = (inner.hits, inner.misses);
        let live = inner.entries.len();
        let resident_bytes = inner.entries.values().map(|r| r.bytes).sum();
        SegmentStats {
            live,
            hits,
            misses,
            resident_bytes,
        }
    }

    /// Test hook: overwrite `key`'s fingerprint so gate tests can exercise
    /// the R006 conflict path on an otherwise healthy store. Hidden —
    /// nothing outside a test should ever corrupt the index.
    #[doc(hidden)]
    pub fn corrupt_fingerprint_for_tests(&self, key: &SegmentKey) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.entries.get_mut(key) {
            Some(rec) => {
                rec.fingerprint.weight_len = rec.fingerprint.weight_len.wrapping_add(1);
                true
            }
            None => false,
        }
    }

    /// Test hook: the raw index keys currently present (live or dead).
    #[doc(hidden)]
    pub fn keys_for_tests(&self) -> Vec<SegmentKey> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.entries.keys().copied().collect()
    }
}

fn conflict(key: &SegmentKey, indexed: Fingerprint, layer: Fingerprint) -> TensorError {
    TensorError::BadGeometry {
        reason: format!(
            "error[R006]: dedup index conflict for content hash {}: indexed segment \
             (form {}, weight {}, bias {}) disagrees with the layer being compiled \
             (form {}, weight {}, bias {}); content-hash collision or store corruption",
            crate::content::hex(key),
            indexed.form,
            indexed.weight_len,
            indexed.bias_len,
            layer.form,
            layer.weight_len,
            layer.bias_len,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcnn_tensor::Shape4;

    fn conv_segment(fill: f32) -> Segment {
        let weight = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![fill; 4]).unwrap();
        Segment::Conv {
            weight: Arc::new(weight),
            bias: Arc::new(vec![fill]),
        }
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            form: 0,
            weight_len: 4,
            bias_len: 1,
        }
    }

    #[test]
    fn second_lookup_shares_the_first_bake() {
        let store = SegmentStore::new();
        let a = store
            .get_or_bake([1; 32], fp(), || Ok(conv_segment(1.0)))
            .unwrap();
        let b = store
            .get_or_bake([1; 32], fp(), || panic!("must not re-bake"))
            .unwrap();
        match (&a, &b) {
            (Segment::Conv { weight: wa, .. }, Segment::Conv { weight: wb, .. }) => {
                assert!(Arc::ptr_eq(wa, wb));
            }
            _ => unreachable!(),
        }
        let s = store.stats();
        assert_eq!((s.live, s.hits, s.misses), (1, 1, 1));
        assert_eq!(s.resident_bytes, 5 * 4);
    }

    #[test]
    fn dropping_every_owner_frees_the_segment() {
        let store = SegmentStore::new();
        let seg = store
            .get_or_bake([2; 32], fp(), || Ok(conv_segment(2.0)))
            .unwrap();
        assert_eq!(store.stats().live, 1);
        drop(seg);
        let s = store.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.resident_bytes, 0);
        // a fresh lookup re-bakes
        let _seg = store
            .get_or_bake([2; 32], fp(), || Ok(conv_segment(2.0)))
            .unwrap();
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn fingerprint_conflict_is_an_r006_error() {
        let store = SegmentStore::new();
        let _keep = store
            .get_or_bake([3; 32], fp(), || Ok(conv_segment(3.0)))
            .unwrap();
        assert!(store.corrupt_fingerprint_for_tests(&[3; 32]));
        let err = store
            .get_or_bake([3; 32], fp(), || Ok(conv_segment(3.0)))
            .unwrap_err();
        assert!(err.to_string().contains("R006"), "{err}");
    }

    #[test]
    fn distinct_keys_stay_distinct() {
        let store = SegmentStore::new();
        let a = store
            .get_or_bake([4; 32], fp(), || Ok(conv_segment(4.0)))
            .unwrap();
        let b = store
            .get_or_bake([5; 32], fp(), || Ok(conv_segment(5.0)))
            .unwrap();
        match (&a, &b) {
            (Segment::Conv { weight: wa, .. }, Segment::Conv { weight: wb, .. }) => {
                assert!(!Arc::ptr_eq(wa, wb));
            }
            _ => unreachable!(),
        }
        assert_eq!(store.stats().live, 2);
    }
}
