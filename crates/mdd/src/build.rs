use std::collections::HashMap;

use mdl_arena::Slab;

use crate::mdd::{relabel, Mdd, MddError, MddLevel, NO_CHILD, TERMINAL};

/// Per-level hash-consing tables used while assembling an [`Mdd`]
/// bottom-up. Shared by construction, set operations and quotienting.
pub(crate) struct Interner {
    sizes: Vec<usize>,
    /// Children rows per level (node payloads before finalization).
    levels: Vec<Vec<Vec<u32>>>,
    unique: Vec<HashMap<Vec<u32>, u32>>,
    hits: mdl_obs::Counter,
    misses: mdl_obs::Counter,
}

impl Interner {
    pub(crate) fn new(sizes: Vec<usize>) -> Self {
        let l = sizes.len();
        Interner {
            sizes,
            levels: vec![Vec::new(); l],
            unique: vec![HashMap::new(); l],
            hits: mdl_obs::counter("mdd.unique.hit"),
            misses: mdl_obs::counter("mdd.unique.miss"),
        }
    }

    pub(crate) fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Interns a children row at `level`, returning the node index.
    pub(crate) fn intern(&mut self, level: usize, children: Vec<u32>) -> u32 {
        debug_assert_eq!(children.len(), self.sizes[level]);
        if let Some(&idx) = self.unique[level].get(&children) {
            self.hits.inc();
            return idx;
        }
        self.misses.inc();
        let idx = self.levels[level].len() as u32;
        self.levels[level].push(children.clone());
        self.unique[level].insert(children, idx);
        idx
    }

    /// Child slot `slot` of node `node` at `level`.
    pub(crate) fn child(&self, level: usize, node: u32, slot: usize) -> u32 {
        self.levels[level][node as usize][slot]
    }

    /// Finalizes into an [`Mdd`] rooted at `root` (a level-0 node index):
    /// drops unreachable interned nodes, renumbers, and computes the count
    /// and offset labelling.
    ///
    /// Nodes are numbered per level in the order a depth-first walk from
    /// the root, taking children in ascending local state, first completes
    /// them — the order [`Mdd::from_sorted_unique_tuples`] interns them
    /// in. A quasi-reduced MDD is canonical, so the same set yields
    /// byte-identical child tables whatever order its nodes were interned
    /// in (a fixpoint interns many dead intermediates, out of that order).
    pub(crate) fn finish(self, root: u32) -> Mdd {
        let num_levels = self.sizes.len();
        // `order[l]` lists the kept interned indices of level `l` in their
        // final order; `remap[l]` is its inverse (`NO_CHILD` = dropped).
        let mut remap: Vec<Vec<u32>> = self
            .levels
            .iter()
            .map(|nodes| vec![NO_CHILD; nodes.len()])
            .collect();
        let mut order: Vec<Vec<u32>> = vec![Vec::new(); num_levels];
        if !self.levels[0].is_empty() {
            self.number(0, root, &mut remap, &mut order);
        }

        // Pack kept rows into the per-level flat child slabs, rewriting
        // references through the remap.
        let mut levels: Vec<MddLevel> = Vec::with_capacity(num_levels);
        for (l, kept) in order.iter().enumerate() {
            let size = self.sizes[l];
            let mut flat: Vec<u32> = Vec::with_capacity(kept.len() * size);
            for &i in kept {
                flat.extend(self.levels[l][i as usize].iter().map(|&c| {
                    if c == NO_CHILD || c == TERMINAL {
                        c
                    } else {
                        remap[l + 1][c as usize]
                    }
                }));
            }
            levels.push(MddLevel {
                size,
                children: flat.into(),
                offsets: Slab::new(),
                counts: Slab::new(),
            });
        }

        // Ensure a root exists even for the empty set.
        if levels[0].children.is_empty() {
            debug_assert!(levels.iter().all(|lv| lv.children.is_empty()));
            levels[0].children = vec![NO_CHILD; self.sizes[0]].into();
        }

        let total = relabel(&mut levels);
        Mdd {
            sizes: self.sizes,
            levels,
            total,
        }
    }

    /// Post-order numbering step of [`Interner::finish`].
    fn number(&self, level: usize, node: u32, remap: &mut [Vec<u32>], order: &mut [Vec<u32>]) {
        if remap[level][node as usize] != NO_CHILD {
            return;
        }
        if level + 1 < self.sizes.len() {
            for &c in &self.levels[level][node as usize] {
                if c != NO_CHILD {
                    self.number(level + 1, c, remap, order);
                }
            }
        }
        remap[level][node as usize] = order[level].len() as u32;
        order[level].push(node);
    }
}

impl Mdd {
    /// Builds an MDD from a set of tuples over local state spaces of the
    /// given `sizes` (duplicates are collapsed).
    ///
    /// # Errors
    ///
    /// * [`MddError::InvalidShape`] if `sizes` is empty or contains zero;
    /// * [`MddError::WrongArity`] / [`MddError::ValueOutOfRange`] for
    ///   malformed tuples.
    pub fn from_tuples(sizes: Vec<usize>, mut tuples: Vec<Vec<u32>>) -> Result<Mdd, MddError> {
        if sizes.is_empty() || sizes.iter().any(|&s| s == 0 || s > u32::MAX as usize) {
            return Err(MddError::InvalidShape);
        }
        for t in &tuples {
            if t.len() != sizes.len() {
                return Err(MddError::WrongArity {
                    got: t.len(),
                    expected: sizes.len(),
                });
            }
            for (l, (&v, &size)) in t.iter().zip(&sizes).enumerate() {
                if v as usize >= size {
                    return Err(MddError::ValueOutOfRange {
                        level: l,
                        value: v,
                        size,
                    });
                }
            }
        }
        tuples.sort_unstable();
        tuples.dedup();
        Ok(Self::from_sorted_unique_tuples(sizes, &tuples))
    }

    /// Builds the MDD of the **full product** `S₁ × … × S_L`: one node per
    /// level with every child present. Useful as the trivial "all states
    /// reachable" index set.
    ///
    /// # Errors
    ///
    /// [`MddError::InvalidShape`] if `sizes` is empty or contains zero.
    pub fn full(sizes: Vec<usize>) -> Result<Mdd, MddError> {
        if sizes.is_empty() || sizes.iter().any(|&s| s == 0 || s > u32::MAX as usize) {
            return Err(MddError::InvalidShape);
        }
        let mut interner = Interner::new(sizes.clone());
        let last = sizes.len() - 1;
        let mut child = TERMINAL;
        for l in (0..=last).rev() {
            let row = vec![if l == last { TERMINAL } else { child }; sizes[l]];
            child = interner.intern(l, row);
        }
        Ok(interner.finish(child))
    }

    /// Builds from tuples already sorted lexicographically with no
    /// duplicates; components must be in range (checked only in debug
    /// builds). [`Mdd::from_tuples`] sorts and deduplicates, then calls
    /// this.
    pub fn from_sorted_unique_tuples(sizes: Vec<usize>, tuples: &[Vec<u32>]) -> Mdd {
        debug_assert!(
            tuples.windows(2).all(|w| w[0] < w[1]),
            "tuples sorted and unique"
        );
        let mut interner = Interner::new(sizes);
        let root = if tuples.is_empty() {
            let empty = vec![NO_CHILD; interner.sizes()[0]];
            interner.intern(0, empty)
        } else {
            build_range(&mut interner, 0, tuples)
        };
        interner.finish(root)
    }
}

fn build_range(interner: &mut Interner, level: usize, tuples: &[Vec<u32>]) -> u32 {
    let size = interner.sizes()[level];
    let last = level == interner.sizes().len() - 1;
    let mut children = vec![NO_CHILD; size];
    let mut start = 0;
    while start < tuples.len() {
        let v = tuples[start][level];
        let mut end = start + 1;
        while end < tuples.len() && tuples[end][level] == v {
            end += 1;
        }
        children[v as usize] = if last {
            TERMINAL
        } else {
            build_range(interner, level + 1, &tuples[start..end])
        };
        start = end;
    }
    interner.intern(level, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sorted_fast_path_matches_general() {
        let sizes = vec![2, 3];
        let tuples = vec![vec![0, 0], vec![0, 2], vec![1, 1]];
        let a = Mdd::from_tuples(sizes.clone(), tuples.clone()).unwrap();
        let b = Mdd::from_sorted_unique_tuples(sizes, &tuples);
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(a.nodes_per_level(), b.nodes_per_level());
    }

    #[test]
    fn nodes_numbered_depth_first_in_ascending_local_state() {
        let t = TERMINAL;
        let n = NO_CHILD;
        let m = Mdd::from_tuples(vec![2, 2], vec![vec![1, 1], vec![0, 0]]).unwrap();
        assert_eq!(m.raw_level_children(0), &[0, 1]);
        assert_eq!(m.raw_level_children(1), &[t, n, n, t]);
        // The same set built by a union, whose operands intern {1} first.
        let a = Mdd::from_tuples(vec![2, 2], vec![vec![1, 1]]).unwrap();
        let b = Mdd::from_tuples(vec![2, 2], vec![vec![0, 0]]).unwrap();
        let u = a.union(&b).unwrap();
        for l in 0..2 {
            assert_eq!(u.raw_level_children(l), m.raw_level_children(l));
        }
    }

    #[test]
    fn full_product_mdd() {
        let m = Mdd::full(vec![2, 3]).unwrap();
        assert_eq!(m.count(), 6);
        assert_eq!(m.nodes_per_level(), vec![1, 1]);
        for a in 0..2 {
            for b in 0..3 {
                assert_eq!(m.index_of(&[a, b]), Some((a * 3 + b) as u64));
            }
        }
    }

    #[test]
    fn invalid_shape_rejected() {
        assert!(matches!(
            Mdd::from_tuples(vec![], vec![]),
            Err(MddError::InvalidShape)
        ));
        assert!(matches!(
            Mdd::from_tuples(vec![2, 0], vec![]),
            Err(MddError::InvalidShape)
        ));
    }

    #[test]
    fn counts_and_offsets_consistent() {
        let m = Mdd::from_tuples(
            vec![3, 2, 2],
            vec![vec![0, 0, 1], vec![0, 1, 0], vec![2, 0, 0], vec![2, 1, 1]],
        )
        .unwrap();
        assert_eq!(m.count(), 4);
        // Every tuple's index_of must equal its rank from for_each_tuple.
        m.for_each_tuple(|t, rank| {
            assert_eq!(m.index_of(t), Some(rank));
        });
    }

    #[test]
    fn unreachable_nodes_dropped() {
        // Construction only interns reachable nodes, but `finish` must also
        // produce consecutive numbering: check structural integrity by
        // round-tripping.
        let tuples: Vec<Vec<u32>> = (0..20u32)
            .map(|i| vec![i % 4, (i / 4) % 3, i % 2])
            .collect();
        let m = Mdd::from_tuples(vec![4, 3, 2], tuples.clone()).unwrap();
        let mut expect = tuples;
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(m.tuples(), expect);
    }
}
