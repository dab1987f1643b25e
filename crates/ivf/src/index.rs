//! The inverted-file index structure: centroids + contiguous list panels,
//! plus the in-memory mutable tier (per-list append regions and a deletion
//! tombstone set) behind online inserts/deletes and checkpointed compaction.

use vecstore::matrix::check_finite_row;
use vecstore::{kernels, Error, Result, VectorSet};

/// The mutable tail of one inverted list: vectors inserted since the last
/// build/compaction, stored contiguously so the scan streams them through the
/// same batched one-to-many kernel as the panel.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct AppendList {
    /// Row-major appended vectors (`ids.len() × d` values).
    pub(crate) flat: Vec<f32>,
    /// External id of each appended row, ascending (ids are assigned
    /// monotonically, so append order is id order).
    pub(crate) ids: Vec<u32>,
}

/// Live-id bitmap over the external id space `0..next_id`: bit set = the id
/// is indexed and not deleted.  The complement view is the deletion tombstone
/// set the scan filters against.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LiveSet {
    words: Vec<u64>,
    live: usize,
}

impl LiveSet {
    /// All of `0..n` live (a fresh build indexes ids densely).
    pub(crate) fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if n % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        Self { words, live: n }
    }

    /// Exactly the given ids live, over an id space of `capacity` bits.
    /// Returns `None` when an id repeats (a corrupt remap).
    pub(crate) fn from_ids(capacity: usize, ids: &[u32]) -> Option<Self> {
        let mut set = Self {
            words: vec![0u64; capacity.div_ceil(64)],
            live: 0,
        };
        for &id in ids {
            let (w, b) = (id as usize / 64, id as usize % 64);
            if set.words[w] & (1 << b) != 0 {
                return None;
            }
            set.words[w] |= 1 << b;
            set.live += 1;
        }
        Some(set)
    }

    #[inline]
    pub(crate) fn get(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Grows the id space to `bits` and marks `id` live.
    fn insert(&mut self, id: u32) {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.live += 1;
        }
    }

    /// Clears `id`; `true` when it was live.
    fn remove(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        match self.words.get_mut(w) {
            Some(word) if *word & (1 << b) != 0 => {
                *word &= !(1 << b);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of live ids.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.live
    }
}

/// A cluster-backed inverted-file ANN index.
///
/// Construction re-orders the base vectors into one contiguous row panel per
/// cluster (ascending original id within a list, so layout is deterministic)
/// together with an id remap, which makes every list scan a straight
/// streaming pass — no gather, no indirection — through the batched
/// one-to-many kernels.
///
/// ```
/// use ivf::{IvfIndex, IvfSearchParams};
/// use vecstore::VectorSet;
///
/// // Four 2-d points in two obvious clusters, plus the fitted centroids.
/// let data = VectorSet::from_rows(vec![
///     vec![0.0, 0.0], vec![9.0, 9.0], vec![0.0, 1.0], vec![9.0, 8.0],
/// ]).unwrap();
/// let centroids = VectorSet::from_rows(vec![vec![0.0, 0.5], vec![9.0, 8.5]]).unwrap();
/// let index = IvfIndex::build(&data, &centroids, &[0, 1, 0, 1]).unwrap();
///
/// let hits = index.search(&[8.8, 8.9], 1, IvfSearchParams::default().nprobe(1));
/// assert_eq!(hits[0].id, 1); // the original id, not the panel position
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct IvfIndex {
    /// `k × d` coarse level: the fitted centroids, row `c` owning list `c`.
    pub(crate) centroids: VectorSet,
    /// `k + 1` prefix offsets: list `c` occupies panel rows
    /// `offsets[c]..offsets[c + 1]`.
    pub(crate) offsets: Vec<usize>,
    /// `n × d` re-ordered base vectors, each list contiguous.
    pub(crate) panel: VectorSet,
    /// Panel row → original base row (`ids[p]` is the id reported for panel
    /// row `p`).
    pub(crate) ids: Vec<u32>,
    /// Mutable tier: one append region per list, holding vectors inserted
    /// since the last build/compaction (empty on a clean index).
    pub(crate) appends: Vec<AppendList>,
    /// Live-id bitmap; its complement over `0..next_id` is the deletion
    /// tombstone set.
    pub(crate) live: LiveSet,
    /// Deletions since the last build/compaction — when zero, the scan skips
    /// the tombstone filter entirely.
    pub(crate) tombstoned: usize,
    /// Next external id to assign (ids are monotone: every appended id is
    /// larger than every id already in the panel).
    pub(crate) next_id: u32,
    /// Sequence number of the last journalled mutation applied to this
    /// in-memory state (persisted at checkpoints so recovery knows where in
    /// the WAL to resume).
    pub(crate) applied_seq: u64,
    /// Optional SQ8 serving tier: per-list `u8` code panels mirroring the
    /// `f32` panel and append regions (`None` until
    /// [`IvfIndex::quantize`] — the `f32` path is always available).
    pub(crate) sq8: Option<crate::sq8::Sq8Panels>,
}

impl IvfIndex {
    /// Builds an index from a clustering result: the base vectors, the fitted
    /// `k × d` centroids and one label per base row (`labels[i] ∈ 0..k`).
    ///
    /// Any of the workspace's fitters produces suitable inputs — e.g. a
    /// `baselines::common::Clustering` via its `centroids`/`labels` fields,
    /// or a GK-means outcome.  Empty clusters are fine (their lists are
    /// empty); `k` need not be smaller than `n`.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when data and centroids disagree on `d`;
    /// * [`Error::EmptyInput`] when there are no centroids;
    /// * [`Error::InvalidParameter`] when the label count differs from the
    ///   row count, a label is out of range, or `n` exceeds `u32::MAX`
    ///   (ids are stored as `u32`).
    pub fn build(data: &VectorSet, centroids: &VectorSet, labels: &[usize]) -> Result<Self> {
        if centroids.is_empty() {
            return Err(Error::EmptyInput(
                "IVF index requires at least one centroid",
            ));
        }
        if data.dim() != centroids.dim() {
            return Err(Error::DimensionMismatch {
                expected: centroids.dim(),
                found: data.dim(),
            });
        }
        if labels.len() != data.len() {
            return Err(Error::InvalidParameter(format!(
                "{} labels for {} base rows",
                labels.len(),
                data.len()
            )));
        }
        if data.len() > u32::MAX as usize {
            return Err(Error::InvalidParameter(format!(
                "{} base rows exceed the u32 id space",
                data.len()
            )));
        }
        let k = centroids.len();
        let d = data.dim();

        // Counting sort by label, stable in ascending original id: cluster
        // sizes → prefix offsets → one placement sweep.
        let mut sizes = vec![0usize; k];
        for (i, &l) in labels.iter().enumerate() {
            if l >= k {
                return Err(Error::InvalidParameter(format!(
                    "label {l} of row {i} is out of range for k = {k}"
                )));
            }
            sizes[l] += 1;
        }
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0usize);
        for &s in &sizes {
            offsets.push(offsets.last().expect("non-empty") + s);
        }

        let mut panel_flat = vec![0.0f32; data.len() * d];
        let mut ids = vec![0u32; data.len()];
        let mut cursor = offsets[..k].to_vec();
        for (i, &l) in labels.iter().enumerate() {
            let p = cursor[l];
            cursor[l] += 1;
            panel_flat[p * d..(p + 1) * d].copy_from_slice(data.row(i));
            ids[p] = i as u32;
        }
        let panel = VectorSet::from_flat(panel_flat, d)?;

        Ok(Self {
            centroids: centroids.clone(),
            offsets,
            panel,
            live: LiveSet::full(ids.len()),
            next_id: ids.len() as u32,
            ids,
            appends: vec![AppendList::default(); k],
            tombstoned: 0,
            applied_seq: 0,
            sq8: None,
        })
    }

    /// Number of inverted lists (the clustering's `k`).
    #[inline]
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Dimensionality of the indexed vectors.
    #[inline]
    pub fn dim(&self) -> usize {
        self.centroids.dim()
    }

    /// Number of vectors in the contiguous panel (excluding append regions;
    /// see [`IvfIndex::live_len`] for the serving count).
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no vectors are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of vectors in list `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c >= self.nlist()`.
    #[inline]
    pub fn list_len(&self, c: usize) -> usize {
        self.offsets[c + 1] - self.offsets[c]
    }

    /// The contiguous vector panel and original ids of list `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c >= self.nlist()`.
    pub fn list(&self, c: usize) -> (&[f32], &[u32]) {
        let d = self.dim();
        let (lo, hi) = (self.offsets[c], self.offsets[c + 1]);
        (&self.panel.as_flat()[lo * d..hi * d], &self.ids[lo..hi])
    }

    /// The append-region vectors and ids of list `c` — rows inserted since
    /// the last build/compaction, contiguous and ascending by id.
    ///
    /// # Panics
    ///
    /// Panics when `c >= self.nlist()`.
    pub fn append_list(&self, c: usize) -> (&[f32], &[u32]) {
        let a = &self.appends[c];
        (&a.flat, &a.ids)
    }

    /// The coarse level: the fitted centroids.
    #[inline]
    pub fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    /// The number of lists a search with the requested `nprobe` actually
    /// probes: the value clamped to `1..=nlist`.  The single source of truth
    /// for the clamp — the scan loop, the evaluation report and the CLI all
    /// derive the effective value from here.
    #[inline]
    pub fn effective_nprobe(&self, requested: usize) -> usize {
        requested.clamp(1, self.nlist())
    }

    // ---- the quantized tier -----------------------------------------------

    /// Fits and attaches the SQ8 serving tier: per-list per-dim min/max
    /// parameters over the list's current rows (panel **and** append
    /// region), plus `u8` code shadows of both.  Idempotent in effect —
    /// re-quantizing re-fits from the same `f32` rows.  The `f32` panel
    /// stays authoritative: quantization adds a tier, it never replaces the
    /// exact path (re-ranking depends on it).
    pub fn quantize(&mut self) {
        let d = self.dim();
        let k = self.nlist();
        let panel = self.panel.as_flat();
        let mut mins = Vec::with_capacity(k * d);
        let mut scales = Vec::with_capacity(k * d);
        let mut codes = Vec::with_capacity(self.ids.len() * d);
        let mut append_codes = Vec::with_capacity(k);
        for c in 0..k {
            let rows = &panel[self.offsets[c] * d..self.offsets[c + 1] * d];
            let tail = self.appends[c].flat.as_slice();
            let (m, s) = crate::sq8::fit_list(&[rows, tail], d);
            for row in rows.chunks_exact(d) {
                crate::sq8::encode_row_into(row, &m, &s, &mut codes);
            }
            let mut shadow = Vec::with_capacity(tail.len());
            for row in tail.chunks_exact(d) {
                crate::sq8::encode_row_into(row, &m, &s, &mut shadow);
            }
            append_codes.push(shadow);
            mins.extend_from_slice(&m);
            scales.extend_from_slice(&s);
        }
        self.sq8 = Some(crate::sq8::Sq8Panels {
            dim: d,
            mins,
            scales,
            codes,
            append_codes,
        });
    }

    /// `true` when the index carries the SQ8 serving tier.
    #[inline]
    pub fn is_quantized(&self) -> bool {
        self.sq8.is_some()
    }

    /// The SQ8 tier, when attached.
    #[inline]
    pub fn sq8(&self) -> Option<&crate::sq8::Sq8Panels> {
        self.sq8.as_ref()
    }

    // ---- the mutable tier -------------------------------------------------

    /// Number of **live** vectors: indexed (panel or append region) and not
    /// tombstoned.  Equals [`IvfIndex::len`] on a clean index.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.live.count()
    }

    /// Vectors sitting in append regions, waiting for the next compaction.
    pub fn pending_appends(&self) -> usize {
        self.appends.iter().map(|a| a.ids.len()).sum()
    }

    /// Deletions recorded since the last build/compaction.
    #[inline]
    pub fn tombstoned(&self) -> usize {
        self.tombstoned
    }

    /// `true` when the index carries un-compacted mutations (non-empty
    /// append regions or tombstones).  A dirty index cannot be saved — it
    /// must be compacted into a clean generation first (the checkpoint
    /// protocol of [`crate::store::MutableStore`]).
    pub fn is_dirty(&self) -> bool {
        self.tombstoned > 0 || self.appends.iter().any(|a| !a.ids.is_empty())
    }

    /// The external id the next [`IvfIndex::insert`] will assign.
    #[inline]
    pub fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Sequence number of the last journalled mutation applied to this
    /// in-memory state.
    #[inline]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// `true` when external id `id` is indexed and not deleted.
    #[inline]
    pub fn is_live(&self, id: u32) -> bool {
        self.live.get(id)
    }

    /// Inserts `vector`, assigning the next monotone external id and routing
    /// it to the nearest centroid's append region (by `(distance, list id)` —
    /// the same total order as the coarse routing at search time).  Returns
    /// the assigned id.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when `vector.len() != self.dim()`;
    /// * [`Error::NonFinite`] when a component is NaN or infinite (reported
    ///   as row 0);
    /// * [`Error::InvalidParameter`] when the `u32` id space is exhausted.
    pub fn insert(&mut self, vector: &[f32]) -> Result<u32> {
        let id = self.next_id;
        if id == u32::MAX {
            return Err(Error::InvalidParameter(
                "u32 id space exhausted; compact and re-shard".to_string(),
            ));
        }
        self.apply_insert(id, vector)?;
        Ok(id)
    }

    /// Replay-path insert: applies an insert journalled under a specific
    /// `id`.  The id must be at or above [`IvfIndex::next_id`] (ids are
    /// monotone); `next_id` advances past it.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] on a wrong-length vector;
    /// * [`Error::NonFinite`] when a component is NaN or infinite: such a
    ///   row has no nearest centroid and would outrank every real neighbour;
    /// * [`Error::InvalidParameter`] when `id` is below `next_id` (a replay
    ///   ordering violation) or at `u32::MAX`.
    pub fn apply_insert(&mut self, id: u32, vector: &[f32]) -> Result<()> {
        if vector.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                found: vector.len(),
            });
        }
        check_finite_row(0, vector)?;
        if id < self.next_id {
            return Err(Error::InvalidParameter(format!(
                "insert id {id} is below the next monotone id {}",
                self.next_id
            )));
        }
        if id == u32::MAX {
            return Err(Error::InvalidParameter(
                "u32 id space exhausted; compact and re-shard".to_string(),
            ));
        }
        // Route to the nearest centroid under the same total order the
        // search-time coarse tile uses (the kernel tiling invariant keeps
        // the one-to-many and many-to-many forms bit-identical).
        let mut dists = vec![0.0f32; self.nlist()];
        kernels::l2_sq_one_to_many(vector, self.centroids.as_flat(), &mut dists);
        let mut best = 0usize;
        for (c, &dist) in dists.iter().enumerate() {
            if dist < dists[best] {
                best = c;
            }
        }
        let list = &mut self.appends[best];
        list.flat.extend_from_slice(vector);
        list.ids.push(id);
        // Shadow the append in the quantized tier under the list's frozen
        // affine map (components outside the fitted range clamp; compaction
        // re-fits from the live f32 set).
        if let Some(sq8) = self.sq8.as_mut() {
            let d = sq8.dim;
            let mins = &sq8.mins[best * d..(best + 1) * d];
            let scales = &sq8.scales[best * d..(best + 1) * d];
            let shadow = &mut sq8.append_codes[best];
            for ((&v, &lo), &s) in vector.iter().zip(mins).zip(scales) {
                shadow.push(crate::sq8::encode_component(v, lo, s));
            }
        }
        self.live.insert(id);
        self.next_id = id + 1;
        Ok(())
    }

    /// Deletes external id `id` by tombstoning it: the scan filters it out
    /// immediately; the next compaction reclaims the space.  Returns `true`
    /// when the id was live (idempotent: a repeat delete returns `false`).
    pub fn delete(&mut self, id: u32) -> bool {
        if self.live.remove(id) {
            self.tombstoned += 1;
            true
        } else {
            false
        }
    }

    /// Rebuilds contiguous per-list panels from the live set, producing a
    /// **clean** next generation: empty append regions, no tombstones, same
    /// centroids, same external ids, same list membership.
    ///
    /// Within each list the surviving panel rows (already ascending by id)
    /// are followed by the surviving appended rows (also ascending, and all
    /// above every panel id because ids are assigned monotonically) — so the
    /// compacted panel is ascending-id per list, exactly the layout
    /// [`IvfIndex::build`] produces.  Search over the compacted index is
    /// bit-identical to a fresh build over the live set (pinned by the
    /// property suite).
    ///
    /// # Errors
    ///
    /// Returns an error only on an internal shape violation (impossible for
    /// an index produced by this crate's own constructors).
    pub fn compact(&self) -> Result<IvfIndex> {
        let d = self.dim();
        let k = self.nlist();
        let n_live = self.live.count();
        let panel = self.panel.as_flat();
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0usize);
        let mut flat = Vec::with_capacity(n_live * d);
        let mut ids = Vec::with_capacity(n_live);
        for c in 0..k {
            let (lo, hi) = (self.offsets[c], self.offsets[c + 1]);
            for p in lo..hi {
                let id = self.ids[p];
                if !self.live.get(id) {
                    continue;
                }
                flat.extend_from_slice(&panel[p * d..(p + 1) * d]);
                ids.push(id);
            }
            let ap = &self.appends[c];
            for (j, &id) in ap.ids.iter().enumerate() {
                if !self.live.get(id) {
                    continue;
                }
                flat.extend_from_slice(&ap.flat[j * d..(j + 1) * d]);
                ids.push(id);
            }
            offsets.push(ids.len());
        }
        let panel = VectorSet::from_flat(flat, d)?;
        let mut next = IvfIndex {
            centroids: self.centroids.clone(),
            offsets,
            panel,
            ids,
            appends: vec![AppendList::default(); k],
            live: self.live.clone(),
            tombstoned: 0,
            next_id: self.next_id,
            applied_seq: self.applied_seq,
            sq8: None,
        };
        // A quantized source re-quantizes the next generation from its live
        // f32 rows: frozen-parameter drift from post-fit appends is repaired
        // at every checkpoint.
        if self.sq8.is_some() {
            next.quantize();
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (VectorSet, VectorSet, Vec<usize>) {
        let data = VectorSet::from_rows(vec![
            vec![0.0, 0.0],
            vec![9.0, 9.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
            vec![9.0, 8.0],
        ])
        .unwrap();
        let centroids =
            VectorSet::from_rows(vec![vec![0.0, 0.5], vec![5.0, 5.0], vec![9.0, 8.5]]).unwrap();
        let labels = vec![0usize, 2, 0, 1, 2];
        (data, centroids, labels)
    }

    #[test]
    fn build_remaps_rows_into_contiguous_lists() {
        let (data, centroids, labels) = sample();
        let index = IvfIndex::build(&data, &centroids, &labels).unwrap();
        assert_eq!(index.nlist(), 3);
        assert_eq!(index.len(), 5);
        assert_eq!(index.dim(), 2);
        assert_eq!(index.list_len(0), 2);
        assert_eq!(index.list_len(1), 1);
        assert_eq!(index.list_len(2), 2);

        // within a list, ascending original id; panel rows match the remap
        let (rows0, ids0) = index.list(0);
        assert_eq!(ids0, &[0, 2]);
        assert_eq!(rows0, &[0.0, 0.0, 0.0, 1.0]);
        let (rows2, ids2) = index.list(2);
        assert_eq!(ids2, &[1, 4]);
        assert_eq!(rows2, &[9.0, 9.0, 9.0, 8.0]);
    }

    #[test]
    fn build_allows_empty_lists_and_empty_data() {
        let data = VectorSet::from_rows(vec![vec![1.0], vec![2.0]]).unwrap();
        let centroids = VectorSet::from_rows(vec![vec![0.0], vec![1.5], vec![9.0]]).unwrap();
        let index = IvfIndex::build(&data, &centroids, &[1, 1]).unwrap();
        assert_eq!(index.list_len(0), 0);
        assert_eq!(index.list_len(1), 2);
        assert_eq!(index.list_len(2), 0);

        let empty = VectorSet::zeros(0, 1).unwrap();
        let index = IvfIndex::build(&empty, &centroids, &[]).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.nlist(), 3);
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let (data, centroids, labels) = sample();
        // wrong label count
        assert!(matches!(
            IvfIndex::build(&data, &centroids, &labels[..3]).unwrap_err(),
            Error::InvalidParameter(_)
        ));
        // out-of-range label
        assert!(matches!(
            IvfIndex::build(&data, &centroids, &[0, 1, 2, 3, 0]).unwrap_err(),
            Error::InvalidParameter(_)
        ));
        // dim mismatch
        let wrong_d = VectorSet::from_rows(vec![vec![0.0, 0.5, 1.0]]).unwrap();
        assert!(matches!(
            IvfIndex::build(&data, &wrong_d, &[0, 0, 0, 0, 0]).unwrap_err(),
            Error::DimensionMismatch { .. }
        ));
        // no centroids
        let no_c = VectorSet::zeros(0, 2).unwrap();
        assert!(matches!(
            IvfIndex::build(&data, &no_c, &labels).unwrap_err(),
            Error::EmptyInput(_)
        ));
    }

    #[test]
    fn insert_routes_to_nearest_centroid_with_monotone_ids() {
        let (data, centroids, labels) = sample();
        let mut index = IvfIndex::build(&data, &centroids, &labels).unwrap();
        assert!(!index.is_dirty());
        assert_eq!(index.live_len(), 5);
        assert_eq!(index.next_id(), 5);

        let id = index.insert(&[0.1, 0.4]).unwrap();
        assert_eq!(id, 5);
        let id = index.insert(&[8.9, 8.6]).unwrap();
        assert_eq!(id, 6);
        assert!(index.is_dirty());
        assert_eq!(index.pending_appends(), 2);
        assert_eq!(index.live_len(), 7);
        // near (0, 0.5) → list 0; near (9, 8.5) → list 2
        assert_eq!(index.appends[0].ids, vec![5]);
        assert_eq!(index.appends[2].ids, vec![6]);

        // wrong dimensionality and replay-ordering violations are typed
        assert!(matches!(
            index.insert(&[1.0]).unwrap_err(),
            Error::DimensionMismatch { .. }
        ));
        assert!(matches!(
            index.apply_insert(3, &[0.0, 0.0]).unwrap_err(),
            Error::InvalidParameter(_)
        ));
        // replay with a gap is allowed; next_id jumps past it
        index.apply_insert(10, &[5.0, 5.1]).unwrap();
        assert_eq!(index.next_id(), 11);
    }

    #[test]
    fn delete_is_idempotent_and_tracks_liveness() {
        let (data, centroids, labels) = sample();
        let mut index = IvfIndex::build(&data, &centroids, &labels).unwrap();
        assert!(index.is_live(3));
        assert!(index.delete(3));
        assert!(!index.is_live(3));
        assert!(!index.delete(3), "repeat delete must be a no-op");
        assert!(!index.delete(99), "unknown id must be a no-op");
        assert_eq!(index.tombstoned(), 1);
        assert_eq!(index.live_len(), 4);
        assert!(index.is_dirty());
        // deleting a freshly appended vector works too
        let id = index.insert(&[4.9, 5.2]).unwrap();
        assert!(index.delete(id));
        assert_eq!(index.live_len(), 4);
    }

    #[test]
    fn compact_produces_a_clean_equal_serving_generation() {
        let (data, centroids, labels) = sample();
        let mut index = IvfIndex::build(&data, &centroids, &labels).unwrap();
        index.delete(1);
        let a = index.insert(&[0.2, 0.3]).unwrap();
        let b = index.insert(&[9.1, 8.4]).unwrap();
        index.delete(a);

        let compacted = index.compact().unwrap();
        assert!(!compacted.is_dirty());
        assert_eq!(compacted.live_len(), index.live_len());
        assert_eq!(compacted.len(), 5); // 5 original - 1 deleted - 1 deleted append + 2 inserts - ... = live set
        assert_eq!(compacted.next_id(), index.next_id());
        // external ids survive; within-list order stays ascending
        let (_, ids2) = compacted.list(2);
        assert_eq!(ids2, &[4, b]);
        for c in 0..compacted.nlist() {
            let (_, ids) = compacted.list(c);
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "list {c} not ascending"
            );
        }
        // compacting a clean index is the identity
        let again = compacted.compact().unwrap();
        assert_eq!(again, compacted);
    }
}
