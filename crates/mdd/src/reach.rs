//! Symbolic reachability: the reachable set of an event-synchronized model
//! as the least fixpoint of per-event images over hash-consed MDD nodes.
//!
//! Every event of a compositional model is a product of per-level local
//! relations (a level the event does not touch keeps its local state), so
//! its image of a set can be computed node by node, level by level, without
//! ever enumerating a state — the event-local structure symbolic
//! state-space generators exploit (Ciardo, Lüttgen & Siminiceanu, TACAS
//! 2001). The fixpoint is chained breadth-first: each event's image is
//! unioned into the set as soon as it is computed, and rounds repeat until
//! the root stops changing. Nodes are interned in one unique table, so set
//! equality is node equality.

use std::collections::HashMap;

use crate::build::Interner;
use crate::mdd::{Mdd, MddError, NO_CHILD, TERMINAL};

/// One event's successor relation on one level's local states, stored as
/// CSR successor lists: `successors(s)` are the local states the event can
/// move `s` to. A state with no successors disables the event there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalRelation {
    /// `starts[s]..starts[s + 1]` indexes `targets` for local state `s`.
    starts: Vec<u32>,
    /// Sorted, duplicate-free successor lists, concatenated.
    targets: Vec<u32>,
}

impl LocalRelation {
    /// Builds the relation over `size` local states from `(from, to)`
    /// pairs; duplicate pairs collapse.
    ///
    /// # Errors
    ///
    /// [`MddError::ValueOutOfRange`] (reported at level 0) when a pair
    /// leaves `0..size`.
    pub fn from_pairs(
        size: usize,
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<LocalRelation, MddError> {
        let mut pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        if let Some(&(from, to)) = pairs
            .iter()
            .find(|&&(from, to)| from as usize >= size || to as usize >= size)
        {
            return Err(MddError::ValueOutOfRange {
                level: 0,
                value: from.max(to),
                size,
            });
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut starts = vec![0u32; size + 1];
        for &(from, _) in &pairs {
            starts[from as usize + 1] += 1;
        }
        for s in 0..size {
            starts[s + 1] += starts[s];
        }
        Ok(LocalRelation {
            starts,
            targets: pairs.into_iter().map(|(_, to)| to).collect(),
        })
    }

    /// Number of local states.
    pub fn size(&self) -> usize {
        self.starts.len() - 1
    }

    /// The local states `s` moves to (sorted).
    pub fn successors(&self, s: usize) -> &[u32] {
        &self.targets[self.starts[s] as usize..self.starts[s + 1] as usize]
    }
}

impl Mdd {
    /// The set of tuples reachable from `initial` under `events`, each a
    /// per-level list of local relations (`None` = the level is
    /// untouched), as a chained breadth-first fixpoint of symbolic images.
    ///
    /// The result is byte-identical to [`Mdd::from_tuples`] of the same
    /// set. Emits a `build.reach` span with the `iterations` (rounds over
    /// all events) and final `nodes`, and counts image-cache traffic in
    /// `mdd.image.hit` / `mdd.image.miss`.
    ///
    /// # Errors
    ///
    /// * [`MddError::InvalidShape`] for bad `sizes` or an event whose slot
    ///   count or relation sizes do not match them;
    /// * [`MddError::WrongArity`] / [`MddError::ValueOutOfRange`] for a
    ///   malformed `initial` tuple;
    /// * [`MddError::TooManyStates`] exactly when the reachable set has more
    ///   than `max_states` tuples (checked after every round, so the
    ///   fixpoint stops at the first round that passes the bound).
    pub fn reachable(
        sizes: Vec<usize>,
        initial: &[u32],
        events: &[Vec<Option<LocalRelation>>],
        max_states: u64,
    ) -> Result<Mdd, MddError> {
        if sizes.is_empty() || sizes.iter().any(|&s| s == 0 || s > u32::MAX as usize) {
            return Err(MddError::InvalidShape);
        }
        let shape_ok = events.iter().all(|e| {
            e.len() == sizes.len()
                && e.iter()
                    .zip(&sizes)
                    .all(|(r, &size)| r.as_ref().map_or(true, |r| r.size() == size))
        });
        if !shape_ok {
            return Err(MddError::InvalidShape);
        }
        // Validates `initial`.
        Mdd::from_tuples(sizes.clone(), vec![initial.to_vec()])?;

        let mut span = mdl_obs::span("build.reach");
        let mut fix = Fixpoint::new(sizes, events);
        let mut root = fix.intern_path(initial);
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let before = root;
            for e in 0..events.len() {
                root = fix.apply_event(e, root);
            }
            if fix.count(0, root) > max_states {
                return Err(MddError::TooManyStates { bound: max_states });
            }
            if root == before {
                break;
            }
        }
        let mdd = fix.interner.finish(root);
        span.record("iterations", iterations);
        span.record("nodes", mdd.num_nodes());
        Ok(mdd)
    }
}

/// Working state of [`Mdd::reachable`]: the unique table, the operation
/// caches beside it, and memoized tuple counts.
struct Fixpoint<'a> {
    interner: Interner,
    events: &'a [Vec<Option<LocalRelation>>],
    /// Per event, the deepest level it touches (`None`: touches none);
    /// below it the image of a node is the node itself.
    bottom: Vec<Option<usize>>,
    /// Persistent per-level union cache on ordered node pairs — interned
    /// nodes never change, so entries stay valid for the whole fixpoint.
    union_memo: Vec<HashMap<(u32, u32), u32>>,
    /// Per-level image cache for the event application in progress.
    image_memo: Vec<HashMap<u32, u32>>,
    /// Tuple count per interned node, `u64::MAX` until computed.
    counts: Vec<Vec<u64>>,
    image_hits: mdl_obs::Counter,
    image_misses: mdl_obs::Counter,
}

impl<'a> Fixpoint<'a> {
    fn new(sizes: Vec<usize>, events: &'a [Vec<Option<LocalRelation>>]) -> Self {
        let num_levels = sizes.len();
        Fixpoint {
            interner: Interner::new(sizes),
            events,
            bottom: events
                .iter()
                .map(|e| e.iter().rposition(Option::is_some))
                .collect(),
            union_memo: vec![HashMap::new(); num_levels],
            image_memo: vec![HashMap::new(); num_levels],
            counts: vec![Vec::new(); num_levels],
            image_hits: mdl_obs::counter("mdd.image.hit"),
            image_misses: mdl_obs::counter("mdd.image.miss"),
        }
    }

    fn last(&self) -> usize {
        self.interner.sizes().len() - 1
    }

    /// Interns the one-tuple set `{tuple}`, returning its root.
    fn intern_path(&mut self, tuple: &[u32]) -> u32 {
        let mut child = TERMINAL;
        for (l, &v) in tuple.iter().enumerate().rev() {
            let mut row = vec![NO_CHILD; self.interner.sizes()[l]];
            row[v as usize] = child;
            child = self.interner.intern(l, row);
        }
        child
    }

    /// `root ∪ image_e(root)`.
    fn apply_event(&mut self, e: usize, root: u32) -> u32 {
        if self.bottom[e].is_none() {
            return root;
        }
        self.image_memo.iter_mut().for_each(HashMap::clear);
        let image = self.image(e, 0, root);
        self.union(0, root, image)
    }

    /// The image of node `node` at `level` under event `e`: every suffix
    /// below `node` moved by the event's relations from `level` down.
    /// `NO_CHILD` when the event is disabled everywhere below `node`.
    fn image(&mut self, e: usize, level: usize, node: u32) -> u32 {
        if self.bottom[e].map_or(true, |b| level > b) {
            return node;
        }
        if let Some(&r) = self.image_memo[level].get(&node) {
            self.image_hits.inc();
            return r;
        }
        self.image_misses.inc();
        let events = self.events;
        let relation = events[e][level].as_ref();
        let size = self.interner.sizes()[level];
        let last = level == self.last();
        let mut row = vec![NO_CHILD; size];
        for s in 0..size {
            let c = self.interner.child(level, node, s);
            if c == NO_CHILD {
                continue;
            }
            let stay = [s as u32];
            let targets = relation.map_or(&stay[..], |r| r.successors(s));
            if targets.is_empty() {
                continue;
            }
            let moved = if last {
                TERMINAL
            } else {
                self.image(e, level + 1, c)
            };
            if moved == NO_CHILD {
                continue;
            }
            for &t in targets {
                let t = t as usize;
                row[t] = self.union(level + 1, row[t], moved);
            }
        }
        let result = if row.iter().all(|&c| c == NO_CHILD) {
            NO_CHILD
        } else {
            self.interner.intern(level, row)
        };
        self.image_memo[level].insert(node, result);
        result
    }

    /// Union of two nodes at `level`, either possibly `NO_CHILD` (empty).
    /// One past the last level the operands are `NO_CHILD` or `TERMINAL`,
    /// which the first two tests settle before any table is touched.
    fn union(&mut self, level: usize, a: u32, b: u32) -> u32 {
        if a == NO_CHILD || a == b {
            return b;
        }
        if b == NO_CHILD {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.union_memo[level].get(&key) {
            return r;
        }
        let row = (0..self.interner.sizes()[level])
            .map(|s| {
                let ca = self.interner.child(level, a, s);
                let cb = self.interner.child(level, b, s);
                self.union(level + 1, ca, cb)
            })
            .collect();
        let result = self.interner.intern(level, row);
        self.union_memo[level].insert(key, result);
        result
    }

    /// Tuples below `node` at `level` (saturating).
    fn count(&mut self, level: usize, node: u32) -> u64 {
        let n = node as usize;
        if self.counts[level].len() <= n {
            self.counts[level].resize(n + 1, u64::MAX);
        }
        if self.counts[level][n] != u64::MAX {
            return self.counts[level][n];
        }
        let last = level == self.last();
        let mut total = 0u64;
        for s in 0..self.interner.sizes()[level] {
            let c = self.interner.child(level, node, s);
            total = total.saturating_add(if c == NO_CHILD {
                0
            } else if last {
                1
            } else {
                self.count(level + 1, c)
            });
        }
        self.counts[level][n] = total;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(size: usize, pairs: &[(u32, u32)]) -> Option<LocalRelation> {
        Some(LocalRelation::from_pairs(size, pairs.iter().copied()).unwrap())
    }

    #[test]
    fn relation_is_sorted_csr() {
        let r = LocalRelation::from_pairs(3, [(2, 0), (0, 2), (0, 1), (0, 2)]).unwrap();
        assert_eq!(r.size(), 3);
        assert_eq!(r.successors(0), &[1, 2]);
        assert!(r.successors(1).is_empty());
        assert_eq!(r.successors(2), &[0]);
        assert!(LocalRelation::from_pairs(2, [(0, 2)]).is_err());
    }

    #[test]
    fn synchronized_and_local_events_reach_everything() {
        // (0,0) -sync-> (1,1); local resets give (0,1) and (1,0).
        let events = vec![
            vec![rel(2, &[(0, 1)]), rel(2, &[(0, 1)])],
            vec![rel(2, &[(1, 0)]), None],
            vec![None, rel(2, &[(1, 0)])],
        ];
        let m = Mdd::reachable(vec![2, 2], &[0, 0], &events, 100).unwrap();
        let full = Mdd::full(vec![2, 2]).unwrap();
        assert_eq!(m.tuples(), full.tuples());
        assert_eq!(m.raw_level_children(1), full.raw_level_children(1));
    }

    #[test]
    fn result_is_byte_identical_to_tuple_build() {
        // A counter on level 1 that carries into level 0; level 2 flips
        // only while level 1 is odd.
        let events = vec![
            vec![None, rel(4, &[(0, 1), (1, 2), (2, 3)]), None],
            vec![rel(3, &[(0, 1), (1, 2)]), rel(4, &[(3, 0)]), None],
            vec![None, rel(4, &[(1, 1), (3, 3)]), rel(2, &[(0, 1), (1, 0)])],
        ];
        let m = Mdd::reachable(vec![3, 4, 2], &[0, 0, 0], &events, 1000).unwrap();
        let mut expect = Vec::new();
        for a in 0..3u32 {
            for b in 0..4u32 {
                for c in 0..2u32 {
                    // Level 2 leaves 0 only once level 1 has been odd.
                    if c == 0 || a > 0 || b > 0 {
                        expect.push(vec![a, b, c]);
                    }
                }
            }
        }
        let oracle = Mdd::from_tuples(vec![3, 4, 2], expect).unwrap();
        assert_eq!(m.tuples(), oracle.tuples());
        for l in 0..3 {
            assert_eq!(m.raw_level_children(l), oracle.raw_level_children(l));
        }
    }

    #[test]
    fn bound_and_shape_errors() {
        let events = vec![vec![rel(
            10,
            &(0..9).map(|s| (s, s + 1)).collect::<Vec<_>>(),
        )]];
        assert!(Mdd::reachable(vec![10], &[0], &events, 10).is_ok());
        assert_eq!(
            Mdd::reachable(vec![10], &[0], &events, 9).unwrap_err(),
            MddError::TooManyStates { bound: 9 }
        );
        assert_eq!(
            Mdd::reachable(vec![9], &[0], &events, 10).unwrap_err(),
            MddError::InvalidShape
        );
        assert!(matches!(
            Mdd::reachable(vec![10], &[10], &events, 10),
            Err(MddError::ValueOutOfRange { .. })
        ));
        // No events: only the initial state.
        let m = Mdd::reachable(vec![2, 3], &[1, 2], &[], 1).unwrap();
        assert_eq!(m.tuples(), vec![vec![1, 2]]);
    }
}
