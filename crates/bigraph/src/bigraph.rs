//! The sample↔embedding bipartite graph (paper §5.1, Figure 5).

use crate::csr::Csr;
use crate::{EmbId, SampleId};

/// The bigraph `G = (V_x, V_ξ, E)` of HET-GMP.
///
/// Stores both adjacency directions:
/// * `sample_to_emb`: for each sample vertex `ξ_j`, the embedding rows it
///   looks up during forward propagation (one per categorical field, plus
///   possibly multi-valued fields);
/// * `emb_to_sample`: the transpose, used to compute embedding access
///   frequencies (`p_i` in §5.3) and by the partitioner.
#[derive(Debug, Clone)]
pub struct Bigraph {
    num_samples: usize,
    num_embeddings: usize,
    sample_to_emb: Csr,
    emb_to_sample: Csr,
}

impl Bigraph {
    /// Builds the bigraph from per-sample embedding-access lists.
    ///
    /// `num_embeddings` must exceed every id referenced in `rows`. A row is
    /// anything that borrows as a slice, so callers can pass views of rows
    /// they already hold (`&[EmbId]`, `[EmbId; K]`, ...) instead of copies.
    ///
    /// # Panics
    /// Panics if a referenced embedding id is out of range.
    pub fn from_samples<R: AsRef<[EmbId]>>(num_embeddings: usize, rows: &[R]) -> Self {
        let sample_to_emb = Csr::from_rows(rows);
        if let Some(max) = sample_to_emb.max_neighbor() {
            assert!(
                (max as usize) < num_embeddings,
                "embedding id {max} out of range (num_embeddings = {num_embeddings})"
            );
        }
        let emb_to_sample = sample_to_emb.transpose(num_embeddings);
        Self {
            num_samples: rows.len(),
            num_embeddings,
            sample_to_emb,
            emb_to_sample,
        }
    }

    /// Builds from a raw edge list of `(sample, embedding)` pairs.
    pub fn from_edges(
        num_samples: usize,
        num_embeddings: usize,
        edges: &[(SampleId, EmbId)],
    ) -> Self {
        let sample_to_emb = Csr::from_edges(num_samples, edges);
        if let Some(max) = sample_to_emb.max_neighbor() {
            assert!(
                (max as usize) < num_embeddings,
                "embedding id {max} out of range (num_embeddings = {num_embeddings})"
            );
        }
        let emb_to_sample = sample_to_emb.transpose(num_embeddings);
        Self {
            num_samples,
            num_embeddings,
            sample_to_emb,
            emb_to_sample,
        }
    }

    /// Number of sample vertices `|V_ξ|`.
    #[inline]
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Number of embedding vertices `|V_x|`.
    #[inline]
    pub fn num_embeddings(&self) -> usize {
        self.num_embeddings
    }

    /// Number of edges `|E|` (total embedding lookups per epoch).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.sample_to_emb.num_edges()
    }

    /// Embedding rows accessed by sample `s`.
    #[inline]
    pub fn embeddings_of(&self, s: SampleId) -> &[EmbId] {
        self.sample_to_emb.neighbors(s as usize)
    }

    /// Samples that access embedding `e`.
    #[inline]
    pub fn samples_of(&self, e: EmbId) -> &[SampleId] {
        self.emb_to_sample.neighbors(e as usize)
    }

    /// Access frequency of embedding `e` — its vertex degree; this is the
    /// `p_i` used for clock normalization in §5.3 and the "hotness" driving
    /// vertex-cut replication in §5.2.
    #[inline]
    pub fn emb_frequency(&self, e: EmbId) -> usize {
        self.emb_to_sample.degree(e as usize)
    }

    /// Number of embeddings a sample accesses (its field count for CTR data).
    #[inline]
    pub fn sample_degree(&self, s: SampleId) -> usize {
        self.sample_to_emb.degree(s as usize)
    }

    /// Forward CSR (sample → embedding).
    #[inline]
    pub fn sample_to_emb(&self) -> &Csr {
        &self.sample_to_emb
    }

    /// Transposed CSR (embedding → sample).
    #[inline]
    pub fn emb_to_sample(&self) -> &Csr {
        &self.emb_to_sample
    }

    /// Embedding ids sorted by descending access frequency (hot first).
    /// Ties broken by ascending id for determinism.
    pub fn embeddings_by_hotness(&self) -> Vec<EmbId> {
        let mut ids: Vec<EmbId> = (0..self.num_embeddings as u32).collect();
        ids.sort_by_key(|&e| (std::cmp::Reverse(self.emb_frequency(e)), e));
        ids
    }

    /// Approximate heap memory, bytes.
    pub fn heap_bytes(&self) -> usize {
        self.sample_to_emb.heap_bytes() + self.emb_to_sample.heap_bytes()
    }
}

/// Incremental builder accumulating samples one at a time.
///
/// Useful when streaming a dataset: embedding ids may appear in any order;
/// `num_embeddings` grows to cover the maximum id seen.
#[derive(Debug, Default)]
pub struct BigraphBuilder {
    rows: Vec<Vec<EmbId>>,
    max_emb: Option<EmbId>,
}

impl BigraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample's embedding accesses; returns its [`SampleId`].
    pub fn push_sample(&mut self, embeddings: Vec<EmbId>) -> SampleId {
        for &e in &embeddings {
            self.max_emb = Some(self.max_emb.map_or(e, |m| m.max(e)));
        }
        self.rows.push(embeddings);
        (self.rows.len() - 1) as SampleId
    }

    /// Number of samples pushed so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Finalizes into a [`Bigraph`]. `min_embeddings` lets callers reserve a
    /// table larger than the maximum id observed (e.g. the full vocabulary).
    pub fn build(self, min_embeddings: usize) -> Bigraph {
        let num_embeddings = self
            .max_emb
            .map_or(min_embeddings, |m| min_embeddings.max(m as usize + 1));
        Bigraph::from_samples(num_embeddings, &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 example: samples 2 and 3 access {a,c,g} and
    /// {a,d,h} respectively, out of embeddings a..i.
    fn fig2() -> Bigraph {
        // a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8
        Bigraph::from_samples(9, &[vec![0, 2, 6], vec![0, 3, 7]])
    }

    #[test]
    fn basic_shape() {
        let g = fig2();
        assert_eq!(g.num_samples(), 2);
        assert_eq!(g.num_embeddings(), 9);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = fig2();
        assert_eq!(g.embeddings_of(0), &[0, 2, 6]);
        assert_eq!(g.embeddings_of(1), &[0, 3, 7]);
        assert_eq!(g.samples_of(0), &[0, 1]); // "a" shared by both samples
        assert_eq!(g.samples_of(2), &[0]);
        assert_eq!(g.samples_of(8), &[] as &[u32]); // "i" never accessed
    }

    #[test]
    fn frequency_is_degree() {
        let g = fig2();
        assert_eq!(g.emb_frequency(0), 2);
        assert_eq!(g.emb_frequency(2), 1);
        assert_eq!(g.emb_frequency(8), 0);
        assert_eq!(g.sample_degree(0), 3);
    }

    #[test]
    fn hotness_ordering() {
        let g = fig2();
        let hot = g.embeddings_by_hotness();
        assert_eq!(hot[0], 0); // "a" is hottest with frequency 2
                               // all frequency-1 embeddings precede frequency-0 ones
        let freqs: Vec<usize> = hot.iter().map(|&e| g.emb_frequency(e)).collect();
        let mut sorted = freqs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(freqs, sorted);
    }

    #[test]
    fn from_edges_equivalent() {
        let edges = [(0, 0), (0, 2), (0, 6), (1, 0), (1, 3), (1, 7)];
        let g = Bigraph::from_edges(2, 9, &edges);
        assert_eq!(g.embeddings_of(0), fig2().embeddings_of(0));
        assert_eq!(g.samples_of(0), fig2().samples_of(0));
    }

    #[test]
    fn builder_accumulates() {
        let mut b = BigraphBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.push_sample(vec![3, 1]), 0);
        assert_eq!(b.push_sample(vec![2]), 1);
        assert_eq!(b.len(), 2);
        let g = b.build(0);
        assert_eq!(g.num_embeddings(), 4); // max id 3 observed
        assert_eq!(g.num_samples(), 2);
    }

    #[test]
    fn builder_min_embeddings_extends_table() {
        let mut b = BigraphBuilder::new();
        b.push_sample(vec![1]);
        let g = b.build(100);
        assert_eq!(g.num_embeddings(), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        Bigraph::from_samples(2, &[vec![5]]);
    }

    /// Borrowed rows, fixed-size rows and owned rows build the same two
    /// CSRs, in the neighbour order given.
    #[test]
    fn borrowed_rows_build_the_same_csr() {
        let owned: Vec<Vec<EmbId>> = vec![vec![4, 1], vec![], vec![2, 2, 0], vec![3]];
        let g = Bigraph::from_samples(5, &owned);
        let views: Vec<&[EmbId]> = owned.iter().map(Vec::as_slice).collect();
        let literal: [&[EmbId]; 4] = [&[4, 1], &[], &[2, 2, 0], &[3]];
        for other in [
            Bigraph::from_samples(5, &views),
            Bigraph::from_samples(5, &literal),
        ] {
            assert_eq!(other.sample_to_emb(), g.sample_to_emb());
            assert_eq!(other.emb_to_sample(), g.emb_to_sample());
        }
        let pairs = [[0u32, 3], [3, 1]];
        let from_pairs = Bigraph::from_samples(4, &pairs);
        let from_vecs = Bigraph::from_samples(4, &[vec![0u32, 3], vec![3, 1]]);
        assert_eq!(from_pairs.sample_to_emb(), from_vecs.sample_to_emb());
        assert_eq!(from_pairs.emb_to_sample(), from_vecs.emb_to_sample());
        assert_eq!(g.sample_to_emb().offsets(), &[0, 2, 2, 5, 6]);
        assert_eq!(g.sample_to_emb().indices(), &[4, 1, 2, 2, 0, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = Bigraph::from_samples::<Vec<EmbId>>(0, &[]);
        assert_eq!(g.num_samples(), 0);
        assert_eq!(g.num_embeddings(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
