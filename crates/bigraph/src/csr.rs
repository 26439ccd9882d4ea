//! Compressed sparse row adjacency.
//!
//! Both directions of the bigraph (sample → embeddings and its transpose) are
//! stored in this one structure. Offsets use `usize`, neighbour ids use `u32`
//! to halve memory traffic on large graphs (the paper trains graphs with
//! tens of millions of embedding vertices; the scaled-down synthetic graphs
//! here still reach millions of edges).

/// A compressed-sparse-row adjacency list: `rows` of `u32` neighbour ids.
///
/// Invariants (checked by [`Csr::validate`] and the constructors):
/// * `offsets.len() == num_rows + 1`,
/// * `offsets` is non-decreasing, `offsets[0] == 0`,
/// * `offsets[num_rows] == indices.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    indices: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from per-row neighbour lists.
    ///
    /// Neighbour order within a row is preserved. Rows may be anything that
    /// borrows as a slice (`Vec<u32>`, `&[u32]`, `[u32; K]`, ...).
    pub fn from_rows<R: AsRef<[u32]>>(rows: &[R]) -> Self {
        let nnz: usize = rows.iter().map(|r| r.as_ref().len()).sum();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        offsets.push(0);
        for row in rows {
            indices.extend_from_slice(row.as_ref());
            offsets.push(indices.len());
        }
        Self { offsets, indices }
    }

    /// Builds a CSR with `num_rows` rows from an edge list of
    /// `(row, neighbour)` pairs. Edges may arrive in any order; within a row
    /// neighbours are sorted ascending.
    ///
    /// # Panics
    /// Panics if any `row >= num_rows`.
    pub fn from_edges(num_rows: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; num_rows];
        for &(r, _) in edges {
            degree[r as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_rows + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..num_rows].to_vec();
        let mut indices = vec![0u32; edges.len()];
        for &(r, c) in edges {
            let slot = cursor[r as usize];
            indices[slot] = c;
            cursor[r as usize] += 1;
        }
        for r in 0..num_rows {
            indices[offsets[r]..offsets[r + 1]].sort_unstable();
        }
        Self { offsets, indices }
    }

    /// Constructs from raw parts; validates the CSR invariants.
    pub fn from_parts(offsets: Vec<usize>, indices: Vec<u32>) -> Result<Self, CsrError> {
        let csr = Self { offsets, indices };
        csr.validate()?;
        Ok(csr)
    }

    /// An empty CSR with `num_rows` rows and no edges.
    pub fn empty(num_rows: usize) -> Self {
        Self {
            offsets: vec![0; num_rows + 1],
            indices: Vec::new(),
        }
    }

    /// Checks the structural invariants.
    pub fn validate(&self) -> Result<(), CsrError> {
        if self.offsets.is_empty() {
            return Err(CsrError::EmptyOffsets);
        }
        if self.offsets[0] != 0 {
            return Err(CsrError::BadFirstOffset(self.offsets[0]));
        }
        for w in self.offsets.windows(2) {
            if w[1] < w[0] {
                return Err(CsrError::DecreasingOffsets);
            }
        }
        let last = *self.offsets.last().expect("non-empty offsets");
        if last != self.indices.len() {
            return Err(CsrError::LengthMismatch {
                last_offset: last,
                nnz: self.indices.len(),
            });
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Neighbours of `row`.
    ///
    /// # Panics
    /// Panics if `row >= num_rows()`.
    #[inline]
    pub fn neighbors(&self, row: usize) -> &[u32] {
        &self.indices[self.offsets[row]..self.offsets[row + 1]]
    }

    /// The `num_rows + 1` row offsets: row `r`'s neighbours are
    /// `indices()[offsets()[r]..offsets()[r + 1]]`.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Every stored neighbour id, row after row.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Out-degree of `row`.
    #[inline]
    pub fn degree(&self, row: usize) -> usize {
        self.offsets[row + 1] - self.offsets[row]
    }

    /// Iterator over `(row, neighbours)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.num_rows()).map(move |r| (r, self.neighbors(r)))
    }

    /// Transposes the adjacency: the result has `num_cols` rows and, for each
    /// stored edge `(r, c)`, an edge `(c, r)`.
    ///
    /// `num_cols` must be strictly greater than every stored neighbour id.
    pub fn transpose(&self, num_cols: usize) -> Self {
        let mut degree = vec![0usize; num_cols];
        for &c in &self.indices {
            degree[c as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_cols + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..num_cols].to_vec();
        let mut indices = vec![0u32; self.indices.len()];
        for r in 0..self.num_rows() {
            for &c in self.neighbors(r) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                cursor[c as usize] += 1;
            }
        }
        Self { offsets, indices }
    }

    /// Maximum neighbour id stored, or `None` when edgeless.
    pub fn max_neighbor(&self) -> Option<u32> {
        self.indices.iter().copied().max()
    }

    /// Approximate heap memory used, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
    }
}

/// Structural validation failures for [`Csr::from_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// The offsets array was empty (must have `num_rows + 1 >= 1` entries).
    EmptyOffsets,
    /// `offsets[0]` was not zero.
    BadFirstOffset(usize),
    /// Offsets decreased somewhere.
    DecreasingOffsets,
    /// The final offset disagrees with the number of stored indices.
    LengthMismatch {
        /// `offsets[num_rows]` as stored.
        last_offset: usize,
        /// Actual `indices.len()`.
        nnz: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::EmptyOffsets => write!(f, "offsets array is empty"),
            CsrError::BadFirstOffset(o) => write!(f, "offsets[0] = {o}, expected 0"),
            CsrError::DecreasingOffsets => write!(f, "offsets are not non-decreasing"),
            CsrError::LengthMismatch { last_offset, nnz } => write!(
                f,
                "last offset {last_offset} does not match number of indices {nnz}"
            ),
        }
    }
}

impl std::error::Error for CsrError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_rows(&[vec![1, 2], vec![], vec![0, 1, 3]])
    }

    #[test]
    fn from_rows_basic() {
        let csr = sample();
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.num_edges(), 5);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[0, 1, 3]);
        assert_eq!(csr.degree(2), 3);
        csr.validate().unwrap();
    }

    #[test]
    fn from_edges_matches_from_rows() {
        let edges = [(2, 3), (0, 2), (2, 0), (0, 1), (2, 1)];
        let csr = Csr::from_edges(3, &edges);
        assert_eq!(csr, sample());
    }

    #[test]
    fn empty_has_no_edges() {
        let csr = Csr::empty(4);
        assert_eq!(csr.num_rows(), 4);
        assert_eq!(csr.num_edges(), 0);
        for r in 0..4 {
            assert!(csr.neighbors(r).is_empty());
        }
        csr.validate().unwrap();
    }

    #[test]
    fn transpose_roundtrip() {
        let csr = sample();
        let t = csr.transpose(4);
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.neighbors(3), &[2]);
        // Transposing back restores the original (rows were sorted already).
        let back = t.transpose(3);
        assert_eq!(back, csr);
    }

    #[test]
    fn transpose_preserves_edge_count() {
        let csr = sample();
        assert_eq!(csr.transpose(4).num_edges(), csr.num_edges());
    }

    #[test]
    fn from_parts_validates() {
        assert!(Csr::from_parts(vec![0, 2], vec![0, 1]).is_ok());
        assert_eq!(Csr::from_parts(vec![], vec![]), Err(CsrError::EmptyOffsets));
        assert_eq!(
            Csr::from_parts(vec![1, 2], vec![9]),
            Err(CsrError::BadFirstOffset(1))
        );
        assert_eq!(
            Csr::from_parts(vec![0, 2, 1], vec![0, 1]),
            Err(CsrError::DecreasingOffsets)
        );
        assert_eq!(
            Csr::from_parts(vec![0, 3], vec![0, 1]),
            Err(CsrError::LengthMismatch {
                last_offset: 3,
                nnz: 2
            })
        );
    }

    #[test]
    fn max_neighbor() {
        assert_eq!(sample().max_neighbor(), Some(3));
        assert_eq!(Csr::empty(2).max_neighbor(), None);
    }

    #[test]
    fn iter_rows_covers_all() {
        let csr = sample();
        let rows: Vec<_> = csr.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].1, &[0, 1, 3]);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(sample().heap_bytes() > 0);
    }

    #[test]
    fn error_display() {
        let e = CsrError::LengthMismatch {
            last_offset: 3,
            nnz: 2,
        };
        assert!(e.to_string().contains("3"));
        assert!(CsrError::EmptyOffsets.to_string().contains("empty"));
    }
}
