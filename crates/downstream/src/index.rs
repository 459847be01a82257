//! Trajectory-similarity search over frozen path embeddings (ROADMAP item 4,
//! after ST2Vec-style similarity retrieval).
//!
//! Two [`VectorIndex`] implementations over contiguous f32 embedding storage:
//!
//! * [`ExactIndex`] — brute-force top-k by Euclidean distance; the ground
//!   truth every approximate structure is measured against.
//! * [`AnnIndex`] — an IVF (inverted-file) index: a seeded k-means coarse
//!   quantizer partitions the vectors into lists, and a query scans only the
//!   `nprobe` lists whose centroids are nearest. Build and search are fully
//!   deterministic (serial Lloyd iterations from a seeded init), so
//!   recall@k against [`ExactIndex`] is a stable, testable number
//!   ([`recall_at_k`]).
//!
//! Both indexes break distance ties by ascending id, so results are unique
//! even with duplicate vectors. Vectors are stored row-major in one `Vec<f32>`
//! (the scan auto-vectorizes in release builds; this crate stays free of the
//! kernel backends by design).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One search result: the stored vector's id and its Euclidean distance to
/// the query.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Neighbor {
    pub id: u64,
    pub dist: f32,
}

/// A top-k similarity index over f32 embeddings.
pub trait VectorIndex: Send + Sync {
    /// The `k` nearest stored vectors to `query`, ascending by
    /// `(distance, id)`. Returns fewer than `k` results only when the index
    /// holds fewer than `k` vectors (exact) or the probed lists do (ANN).
    fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimensionality.
    fn dim(&self) -> usize;
}

/// Bounded top-k collector. Keys are `(dist.to_bits(), id)`: L2 distances are
/// non-negative, so the IEEE-754 bit pattern of the distance orders exactly
/// like the float and the derived tuple `Ord` gives a total, deterministic
/// order with ties going to the smaller id.
struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<(u32, u64)>,
}

impl TopK {
    /// `k` comes from the caller (possibly a remote client), so only the
    /// number of `stored` vectors may size the allocation: the heap never
    /// holds more than `min(k, stored)` keys.
    fn new(k: usize, stored: usize) -> Self {
        Self { k, heap: std::collections::BinaryHeap::with_capacity(k.min(stored)) }
    }

    #[inline]
    fn push(&mut self, dist_sq: f32, id: u64) {
        let key = (dist_sq.to_bits(), id);
        if self.heap.len() < self.k {
            self.heap.push(key);
        } else if let Some(&worst) = self.heap.peek() {
            if key < worst {
                self.heap.pop();
                self.heap.push(key);
            }
        }
    }

    /// Drain into ascending `(dist, id)` order, converting squared L2 back to
    /// Euclidean distance.
    fn into_sorted(self) -> Vec<Neighbor> {
        let mut v: Vec<(u32, u64)> = self.heap.into_vec();
        v.sort_unstable();
        v.into_iter().map(|(bits, id)| Neighbor { id, dist: f32::from_bits(bits).sqrt() }).collect()
    }
}

#[inline]
fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Brute-force exact top-k index: one linear scan per query.
pub struct ExactIndex {
    dim: usize,
    ids: Vec<u64>,
    data: Vec<f32>, // row-major, ids.len() × dim
}

impl ExactIndex {
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "zero-dimensional index");
        Self { dim, ids: Vec::new(), data: Vec::new() }
    }

    pub fn add(&mut self, id: u64, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        self.ids.push(id);
        self.data.extend_from_slice(v);
    }

    /// Build from parallel id/vector lists.
    pub fn build(dim: usize, ids: &[u64], vectors: &[Vec<f32>]) -> Self {
        assert_eq!(ids.len(), vectors.len());
        let mut idx = Self::new(dim);
        for (&id, v) in ids.iter().zip(vectors) {
            idx.add(id, v);
        }
        idx
    }

    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

impl VectorIndex for ExactIndex {
    fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 {
            return Vec::new();
        }
        let mut top = TopK::new(k, self.ids.len());
        for i in 0..self.ids.len() {
            top.push(l2_sq(query, self.row(i)), self.ids[i]);
        }
        top.into_sorted()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// IVF index build parameters.
#[derive(Clone, Copy, Debug)]
pub struct AnnConfig {
    /// Number of inverted lists (k-means centroids); 0 picks `√n`, the usual
    /// IVF balance point between quantizer and list scan cost.
    pub n_lists: usize,
    /// Lists probed per query. Recall and scan cost both grow with `nprobe`;
    /// the default reaches recall@10 ≥ 0.9 on the bench workloads while
    /// scanning a few percent of the data.
    pub nprobe: usize,
    /// Lloyd iterations for the coarse quantizer. A handful suffices — the
    /// quantizer only routes queries, it is not itself the answer.
    pub kmeans_iters: usize,
    /// Seed for the centroid init; fixed seed ⇒ bit-identical index.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self { n_lists: 0, nprobe: 16, kmeans_iters: 5, seed: 0x1DF5 }
    }
}

/// IVF (inverted-file) approximate index over f32 embeddings.
pub struct AnnIndex {
    dim: usize,
    nprobe: usize,
    ids: Vec<u64>,
    data: Vec<f32>,       // row-major, ids.len() × dim
    centroids: Vec<f32>,  // row-major, n_lists × dim
    lists: Vec<Vec<u32>>, // row indices per centroid
}

impl AnnIndex {
    /// Build the index: seeded distinct-point centroid init, `kmeans_iters`
    /// serial Lloyd rounds (empty clusters keep their previous centroid),
    /// then one final assignment into inverted lists.
    pub fn build(dim: usize, ids: &[u64], vectors: &[Vec<f32>], cfg: &AnnConfig) -> Self {
        assert!(dim > 0, "zero-dimensional index");
        assert_eq!(ids.len(), vectors.len());
        let n = ids.len();
        let mut data = Vec::with_capacity(n * dim);
        for v in vectors {
            assert_eq!(v.len(), dim, "vector dimension mismatch");
            data.extend_from_slice(v);
        }
        let n_lists = if cfg.n_lists == 0 {
            ((n as f64).sqrt().round() as usize).max(1)
        } else {
            cfg.n_lists
        }
        .min(n.max(1));

        let row = |i: usize| &data[i * dim..(i + 1) * dim];

        // Init: n_lists distinct points chosen by a seeded shuffle.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        perm.shuffle(&mut rng);
        let mut centroids = vec![0.0f32; n_lists * dim];
        for (c, &p) in perm.iter().take(n_lists).enumerate() {
            centroids[c * dim..(c + 1) * dim].copy_from_slice(row(p));
        }

        let nearest_centroid = |centroids: &[f32], v: &[f32]| -> usize {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..n_lists {
                let d = l2_sq(v, &centroids[c * dim..(c + 1) * dim]);
                // Strict less keeps the lowest centroid index on ties.
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            best
        };

        let mut assign = vec![0usize; n];
        for _ in 0..cfg.kmeans_iters.max(1) {
            for i in 0..n {
                assign[i] = nearest_centroid(&centroids, row(i));
            }
            let mut sums = vec![0.0f64; n_lists * dim];
            let mut counts = vec![0usize; n_lists];
            for i in 0..n {
                let c = assign[i];
                counts[c] += 1;
                for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row(i)) {
                    *s += x as f64;
                }
            }
            for c in 0..n_lists {
                if counts[c] > 0 {
                    for d in 0..dim {
                        centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
                    }
                }
            }
        }

        let mut lists = vec![Vec::new(); n_lists];
        for i in 0..n {
            lists[nearest_centroid(&centroids, row(i))].push(i as u32);
        }

        Self { dim, nprobe: cfg.nprobe.max(1), ids: ids.to_vec(), data, centroids, lists }
    }

    /// Fraction of vectors a query scans on average — the cost model behind
    /// the speedup vs. [`ExactIndex`].
    pub fn mean_scan_fraction(&self) -> f64 {
        if self.ids.is_empty() || self.lists.is_empty() {
            return 0.0;
        }
        let probed: f64 = {
            // Expected scan size ≈ nprobe × mean list length.
            let mean_list = self.ids.len() as f64 / self.lists.len() as f64;
            (self.nprobe.min(self.lists.len())) as f64 * mean_list
        };
        (probed / self.ids.len() as f64).min(1.0)
    }

    pub fn n_lists(&self) -> usize {
        self.lists.len()
    }
}

impl VectorIndex for AnnIndex {
    fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.ids.is_empty() {
            return Vec::new();
        }
        // Rank centroids by (distance, index) — deterministic probe order.
        let mut by_dist: Vec<(u32, u32)> = (0..self.lists.len())
            .map(|c| {
                let d = l2_sq(query, &self.centroids[c * self.dim..(c + 1) * self.dim]);
                (d.to_bits(), c as u32)
            })
            .collect();
        let probe = self.nprobe.min(by_dist.len());
        by_dist.select_nth_unstable(probe.saturating_sub(1));
        let mut top = TopK::new(k, self.ids.len());
        for &(_, c) in &by_dist[..probe] {
            for &i in &self.lists[c as usize] {
                let i = i as usize;
                top.push(l2_sq(query, &self.data[i * self.dim..(i + 1) * self.dim]), self.ids[i]);
            }
        }
        top.into_sorted()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// Recall@k of an approximate result list against the exact one: the
/// fraction of exact neighbor ids the approximate search recovered.
/// Defined as 1.0 when the exact list is empty (nothing to miss).
pub fn recall_at_k(exact: &[Neighbor], approx: &[Neighbor]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let found: std::collections::HashSet<u64> = approx.iter().map(|n| n.id).collect();
    exact.iter().filter(|n| found.contains(&n.id)).count() as f64 / exact.len() as f64
}

/// Convert an f64 embedding (the representation model's native output) to
/// the index's f32 storage format.
pub fn to_f32(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0) as f32).collect()).collect()
    }

    #[test]
    fn exact_knn_on_a_line() {
        let vecs: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 0.0]).collect();
        let ids: Vec<u64> = (0..10).collect();
        let idx = ExactIndex::build(2, &ids, &vecs);
        let r = idx.knn(&[3.2, 0.0], 3);
        assert_eq!(r.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert!((r[0].dist - 0.2).abs() < 1e-6);
    }

    #[test]
    fn exact_ties_resolve_by_id() {
        // Two identical vectors: the smaller id must rank first.
        let vecs = vec![vec![1.0f32, 1.0], vec![1.0, 1.0], vec![5.0, 5.0]];
        let idx = ExactIndex::build(2, &[7, 3, 9], &vecs);
        let r = idx.knn(&[1.0, 1.0], 2);
        assert_eq!(r.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn exact_k_larger_than_index() {
        let vecs = [vec![0.0], vec![1.0]];
        let idx = ExactIndex::build(1, &[1, 2], &vecs);
        let ann = AnnIndex::build(1, &[1, 2], &vecs, &AnnConfig::default());
        // The caller's k must not size an allocation, however large.
        for k in [10, usize::MAX / 16, usize::MAX] {
            assert_eq!(idx.knn(&[0.0], k).len(), 2);
            assert_eq!(ann.knn(&[0.0], k).len(), 2);
        }
        assert!(idx.knn(&[0.0], 0).is_empty());
    }

    #[test]
    fn ann_matches_exact_on_high_recall_settings() {
        let n = 600;
        let vecs = random_vectors(n, 8, 11);
        let ids: Vec<u64> = (0..n as u64).collect();
        let exact = ExactIndex::build(8, &ids, &vecs);
        // Probing every list makes IVF exhaustive: recall must be 1.
        let cfg = AnnConfig { n_lists: 20, nprobe: 20, ..AnnConfig::default() };
        let ann = AnnIndex::build(8, &ids, &vecs, &cfg);
        for q in random_vectors(20, 8, 99) {
            let e = exact.knn(&q, 10);
            let a = ann.knn(&q, 10);
            assert_eq!(
                e.iter().map(|x| x.id).collect::<Vec<_>>(),
                a.iter().map(|x| x.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn ann_is_deterministic_across_builds() {
        let n = 400;
        let vecs = random_vectors(n, 6, 5);
        let ids: Vec<u64> = (0..n as u64).collect();
        let cfg = AnnConfig::default();
        let a = AnnIndex::build(6, &ids, &vecs, &cfg);
        let b = AnnIndex::build(6, &ids, &vecs, &cfg);
        for q in random_vectors(10, 6, 77) {
            let ra = a.knn(&q, 10);
            let rb = b.knn(&q, 10);
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let ann = AnnIndex::build(4, &[], &[], &AnnConfig::default());
        assert!(ann.knn(&[0.0; 4], 5).is_empty());
        assert!(ann.is_empty());
        let exact = ExactIndex::new(4);
        assert!(exact.knn(&[0.0; 4], 5).is_empty());
    }

    #[test]
    fn recall_helper_counts_overlap() {
        let e = [Neighbor { id: 1, dist: 0.0 }, Neighbor { id: 2, dist: 1.0 }];
        let a = [Neighbor { id: 2, dist: 1.0 }, Neighbor { id: 3, dist: 2.0 }];
        assert!((recall_at_k(&e, &a) - 0.5).abs() < 1e-12);
        assert_eq!(recall_at_k(&[], &a), 1.0);
    }
}
