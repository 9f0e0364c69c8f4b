//! Exact sequence search under precedence constraints.
//!
//! All of the paper's consistency definitions have the same shape: *there
//! exists a sequence `S` in the service's specification that is equivalent to
//! the completed history and respects a set of precedence constraints* (real
//! time for strict serializability/linearizability, causality plus the
//! "regular" write constraint for RSS/RSC, process order for PO
//! serializability/sequential consistency). This module implements the shared
//! existential search: a backtracking topological enumeration with spec replay
//! and memoization on (scheduled-set, state) pairs.
//!
//! The search is exponential in the worst case (the problem is NP-hard), so it
//! is intended for the small histories used in Table 1, Appendix A, and the
//! property tests — not for full protocol runs, which use the certificate
//! checkers instead.
//!
//! # One path
//!
//! [`find_sequence_with`] is the one exact-search entry point (the model
//! checkers and the proximal checkers all call it). It runs the plain search
//! below under a fixed step budget and, only if that budget runs out, hands
//! the inputs to [`find_sequence_saturated`] — the complete fallback whose
//! saturation cycle check refutes unsatisfiable histories without
//! enumerating them.
//!
//! # Hot-path structure
//!
//! The search runs over *local indices* (positions in the `required` ++
//! `optional` list), never over `OpId`-keyed maps:
//!
//! * [`Constraints`] is an edge list with a sorted/deduplicated invariant;
//!   it is compiled once per [`find_sequence`] call into a
//!   [`ConstraintGraph`] of per-node predecessor bitset rows.
//! * Scheduled sets, candidate masks, and the memo key are [`OpSet`] bitsets
//!   over the local indices (inline up to 128 ops, a word arena beyond), so
//!   there is no size ceiling. (The old `MAX_SEARCH_OPS` cap survives only
//!   in [`find_sequence_reference`], whose masks are still plain `u128`.)
//! * Cycle checks per optional-subset are bitset Kahn peels on the compiled
//!   graph — no hash maps, no sorting, and no allocation in the subset loop
//!   for ≤128-op histories.
//! * The backtracking step threads one mutable
//!   [`IndexedSpecState`] with an undo log
//!   instead of cloning the state per node, and the memo table is keyed on
//!   `(placed-set, state fingerprint)` in an
//!   [`FxHash`](crate::hashing::FxHasher)-hashed set with an O(1)
//!   incrementally-maintained fingerprint.
//!
//! [`find_sequence_reference`] retains the straightforward clone-per-step
//! implementation; the property tests assert the two agree on randomized
//! histories.

use std::collections::HashMap;
use std::collections::HashSet;

use crate::checker::saturate::find_sequence_saturated;
use crate::hashing::FxSeenSet;
use crate::history::{History, HistoryIndex};
use crate::opset::{words_for, OpSet};
use crate::spec::{IndexedSpecState, SpecState};
use crate::types::OpId;

/// Maximum history size [`find_sequence_reference`] accepts (its
/// scheduled-set is still a `u128` bitmask). The optimized search has no size
/// ceiling: [`OpSet`] spills past 128 ops.
pub const MAX_SEARCH_OPS: usize = 128;

/// Maximum number of optional (pending mutating) operations whose subsets are
/// enumerated; more is a [`SearchError::TooManyPending`].
const MAX_OPTIONAL_OPS: usize = 12;

/// Backtracking frames the plain search in [`find_sequence_with`] may enter
/// before it hands the inputs to the saturation fallback.
const PLAIN_SEARCH_BUDGET: usize = 1 << 16;

/// Precedence constraints: `a` must appear before `b` whenever both are in the
/// candidate sequence.
///
/// Invariant: the edge list is always sorted, deduplicated, and free of
/// self-loops — [`Constraints::add`], [`Constraints::extend`], and
/// [`Constraints::from_edges`] all maintain it, so consumers of
/// [`Constraints::edges`] never see duplicates and compilation into a
/// [`ConstraintGraph`] never re-sorts.
#[derive(Debug, Clone, Default)]
pub struct Constraints {
    edges: Vec<(OpId, OpId)>,
}

impl Constraints {
    /// Creates an empty constraint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a constraint set from explicit edges.
    pub fn from_edges(edges: Vec<(OpId, OpId)>) -> Self {
        let mut c = Constraints { edges };
        c.edges.sort_unstable();
        c.edges.dedup();
        c.edges.retain(|(a, b)| a != b);
        c
    }

    /// Adds an edge `a → b`, keeping the sorted/deduplicated invariant.
    pub fn add(&mut self, a: OpId, b: OpId) {
        if a == b {
            return;
        }
        if let Err(pos) = self.edges.binary_search(&(a, b)) {
            self.edges.insert(pos, (a, b));
        }
    }

    /// Merges another constraint set into this one (a sorted-list merge; no
    /// full re-sort).
    pub fn extend(&mut self, other: &Constraints) {
        if other.edges.is_empty() {
            return;
        }
        if self.edges.is_empty() {
            self.edges = other.edges.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.edges.len() + other.edges.len());
        let (mut i, mut j) = (0, 0);
        while i < self.edges.len() && j < other.edges.len() {
            let next = match self.edges[i].cmp(&other.edges[j]) {
                std::cmp::Ordering::Less => {
                    i += 1;
                    self.edges[i - 1]
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    other.edges[j - 1]
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    self.edges[i - 1]
                }
            };
            merged.push(next);
        }
        merged.extend_from_slice(&self.edges[i..]);
        merged.extend_from_slice(&other.edges[j..]);
        self.edges = merged;
    }

    /// The constraint edges (sorted, deduplicated, no self-loops).
    pub fn edges(&self) -> &[(OpId, OpId)] {
        &self.edges
    }

    /// True if the constraints (restricted to `included`) contain a cycle, in
    /// which case no sequence can satisfy them.
    ///
    /// Not on the hot path (the search uses
    /// [`ConstraintGraph::has_cycle_masked`]); delegates to the reference
    /// Kahn implementation so the repo carries one general-purpose cycle
    /// check.
    pub fn has_cycle(&self, included: &[OpId]) -> bool {
        reference_has_cycle(self, included)
    }
}

/// A constraint set compiled to per-node predecessor bitset rows over the
/// local indices of one search (positions in `required` ++ `optional`).
///
/// Built once per [`find_sequence`] call; all per-subset and per-step work is
/// pure word arithmetic on the row-major `preds` arena (`words_per_row`
/// words per node — one or two words inline-sized for ≤128-op searches).
#[derive(Debug, Clone)]
pub struct ConstraintGraph {
    /// Number of local nodes.
    n: usize,
    /// Words per predecessor row: `words_for(n)`.
    wpr: usize,
    /// Row-major predecessor bitsets: `preds[i*wpr..(i+1)*wpr]` is the set of
    /// local nodes that must precede node `i`.
    preds: Vec<u64>,
}

impl ConstraintGraph {
    /// Compiles `constraints` over the nodes `ids` (edge endpoints not in
    /// `ids` — including op ids outside the history entirely — are
    /// irrelevant to this search and dropped, matching
    /// [`Constraints::has_cycle`]). `history_len` bounds the op-id space for
    /// the direct-indexed lookup table.
    pub fn compile(constraints: &Constraints, ids: &[OpId], history_len: usize) -> Self {
        let n = ids.len();
        let wpr = words_for(n);
        let mut local = vec![u32::MAX; history_len];
        for (li, id) in ids.iter().enumerate() {
            debug_assert_eq!(local[id.index()], u32::MAX, "duplicate op in search set");
            local[id.index()] = li as u32;
        }
        let lookup = |id: OpId| local.get(id.index()).copied().unwrap_or(u32::MAX);
        let mut preds = vec![0u64; n * wpr];
        for &(a, b) in constraints.edges() {
            let (la, lb) = (lookup(a), lookup(b));
            if la != u32::MAX && lb != u32::MAX {
                let (la, lb) = (la as usize, lb as usize);
                preds[lb * wpr + la / 64] |= 1u64 << (la % 64);
            }
        }
        ConstraintGraph { n, wpr, preds }
    }

    /// Number of local nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Words per predecessor row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// Predecessor row of node `i` (least-significant word first).
    #[inline]
    pub fn preds_row(&self, i: usize) -> &[u64] {
        &self.preds[i * self.wpr..(i + 1) * self.wpr]
    }

    /// True if `j` must precede `i`.
    #[inline]
    pub fn pred_contains(&self, i: usize, j: usize) -> bool {
        self.preds_row(i)[j / 64] & (1u64 << (j % 64)) != 0
    }

    /// True if node `i` has a predecessor in `active` that is not in
    /// `placed` — i.e. `i` is not yet schedulable.
    #[inline]
    pub fn preds_blocked(&self, i: usize, active: &OpSet, placed: &OpSet) -> bool {
        self.preds_row(i)
            .iter()
            .zip(active.words())
            .zip(placed.words())
            .any(|((&row, &a), &p)| row & a & !p != 0)
    }

    /// True if the graph restricted to `active` contains a cycle: a bitset
    /// Kahn peel (repeatedly remove nodes with no unremoved predecessors).
    /// Allocation-free for inline-sized (≤128-op) searches.
    pub fn has_cycle_masked(&self, active: &OpSet) -> bool {
        let mut inline_buf = [0u64; 2];
        let mut heap_buf: Vec<u64>;
        let remaining: &mut [u64] = if self.wpr <= inline_buf.len() {
            for (w, slot) in inline_buf.iter_mut().enumerate().take(self.wpr) {
                *slot = active.word(w);
            }
            &mut inline_buf[..self.wpr]
        } else {
            heap_buf = (0..self.wpr).map(|w| active.word(w)).collect();
            &mut heap_buf
        };
        self.cycle_on(remaining)
    }

    /// The Kahn peel over a mutable word buffer. Peeling eagerly within a
    /// pass (instead of batching a round's peels) is still correct: a node is
    /// removable exactly when it has no unremoved predecessors, and removal
    /// order cannot create cycles.
    fn cycle_on(&self, remaining: &mut [u64]) -> bool {
        loop {
            let mut peeled = false;
            for w in 0..self.wpr {
                let mut scan = remaining[w];
                while scan != 0 {
                    let b = scan.trailing_zeros() as usize;
                    scan &= scan - 1;
                    let row = self.preds_row(w * 64 + b);
                    if row.iter().zip(remaining.iter()).all(|(&r, &m)| r & m == 0) {
                        remaining[w] &= !(1u64 << b);
                        peeled = true;
                    }
                }
            }
            if remaining.iter().all(|&m| m == 0) {
                return false;
            }
            if !peeled {
                return true;
            }
        }
    }
}

/// Errors from the exact search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The history exceeds [`MAX_SEARCH_OPS`]. Only produced by
    /// [`find_sequence_reference`] (whose masks are still `u128`); the
    /// optimized search accepts any size.
    TooLarge {
        /// Number of operations in the history.
        ops: usize,
    },
    /// More optional (pending mutating) operations than the search
    /// enumerates subsets of. Dropping the excess would be unsound — a
    /// pending write beyond the cut may be the only explanation of a read —
    /// so the search refuses instead of answering.
    TooManyPending {
        /// Number of optional operations passed in.
        pending: usize,
    },
}

/// Searches for a legal sequence containing every operation in `required` and
/// any subset of `optional` (incomplete mutating operations whose effects may
/// or may not have taken place), respecting `constraints` and the sequential
/// specification.
///
/// Returns a witness sequence if one exists, `None` otherwise. There is no
/// size ceiling (the scheduled-set is an [`OpSet`] bitset arena), but the
/// search is exponential in the worst case — protocol-scale histories belong
/// to the certificate checkers.
///
/// # Errors
///
/// [`SearchError::TooManyPending`] when `optional` holds more than the
/// search enumerates subsets of.
pub fn find_sequence(
    history: &History,
    required: &[OpId],
    optional: &[OpId],
    constraints: &Constraints,
) -> Result<Option<Vec<OpId>>, SearchError> {
    let index = HistoryIndex::new(history);
    find_sequence_with(&index, required, optional, constraints)
}

/// [`find_sequence`] over a prebuilt [`HistoryIndex`], letting callers that
/// run several searches on one history (the model checkers) share the index.
///
/// This is the one exact-search entry point. The plain backtracking search
/// runs first under a fixed step budget — on satisfiable inputs it usually
/// finds a witness in about one step per operation. Only when the budget runs out
/// does [`find_sequence_saturated`] take over: it is complete, and its
/// saturation cycle check refutes unsatisfiable inputs the plain search
/// would enumerate for exponentially long.
///
/// # Errors
///
/// [`SearchError::TooManyPending`] when `optional` holds more than the
/// search enumerates subsets of.
pub fn find_sequence_with(
    index: &HistoryIndex,
    required: &[OpId],
    optional: &[OpId],
    constraints: &Constraints,
) -> Result<Option<Vec<OpId>>, SearchError> {
    match search(index, required, optional, constraints, PLAIN_SEARCH_BUDGET)? {
        Searched::Found(seq) => Ok(Some(seq)),
        Searched::Unsatisfiable => Ok(None),
        Searched::OutOfBudget => find_sequence_saturated(index, required, optional, constraints),
    }
}

/// The plain search with no step budget: the complete search the saturation
/// fallback runs over its augmented constraints.
pub(crate) fn find_sequence_unbounded(
    index: &HistoryIndex,
    required: &[OpId],
    optional: &[OpId],
    constraints: &Constraints,
) -> Result<Option<Vec<OpId>>, SearchError> {
    match search(index, required, optional, constraints, usize::MAX)? {
        Searched::Found(seq) => Ok(Some(seq)),
        Searched::Unsatisfiable => Ok(None),
        Searched::OutOfBudget => unreachable!("an unbounded search cannot run out of budget"),
    }
}

/// How a budgeted search ended.
#[derive(Debug, PartialEq, Eq)]
enum Searched {
    Found(Vec<OpId>),
    Unsatisfiable,
    OutOfBudget,
}

/// The backtracking search over [`OpSet`] scheduled sets, trying the optional
/// subsets smallest first (the common case is that pending writes need not
/// be included). `budget` caps the backtracking frames entered across all
/// subsets.
fn search(
    index: &HistoryIndex,
    required: &[OpId],
    optional: &[OpId],
    constraints: &Constraints,
    budget: usize,
) -> Result<Searched, SearchError> {
    if optional.len() > MAX_OPTIONAL_OPS {
        return Err(SearchError::TooManyPending { pending: optional.len() });
    }
    let mut ids = Vec::with_capacity(required.len() + optional.len());
    ids.extend_from_slice(required);
    ids.extend_from_slice(optional);
    let universe = ids.len();
    let graph = ConstraintGraph::compile(constraints, &ids, index.len());
    let required_set = OpSet::first_n(universe, required.len());
    let mut searcher = Searcher {
        index,
        graph: &graph,
        ids: &ids,
        state: IndexedSpecState::new(index.num_dense_keys()),
        seen: FxSeenSet::default(),
        seq: Vec::with_capacity(universe),
        active: OpSet::empty(universe),
        placed: OpSet::empty(universe),
        active_count: 0,
        budget,
    };
    for subset in 0..1usize << optional.len() {
        let mut active = required_set.clone();
        if subset != 0 {
            // `subset > 0` implies `optional` is non-empty, so the shifted
            // bits stay inside the universe.
            active.or_shifted(subset as u64, required.len());
        }
        if graph.has_cycle_masked(&active) {
            continue;
        }
        if searcher.search(active) {
            return Ok(Searched::Found(searcher.seq));
        }
        if searcher.budget == 0 {
            return Ok(Searched::OutOfBudget);
        }
    }
    Ok(Searched::Unsatisfiable)
}

/// The backtracking searcher: holds the mutable state reused across
/// optional-subsets.
struct Searcher<'a> {
    index: &'a HistoryIndex,
    graph: &'a ConstraintGraph,
    ids: &'a [OpId],
    state: IndexedSpecState,
    seen: FxSeenSet<OpSet>,
    seq: Vec<OpId>,
    active: OpSet,
    placed: OpSet,
    active_count: usize,
    /// Backtracking frames left; the search gives up when it reaches zero.
    budget: usize,
}

impl Searcher<'_> {
    /// Searches for a topological order of `active` that replays legally.
    /// A `false` with `budget == 0` means the search gave up, not that no
    /// order exists.
    fn search(&mut self, active: OpSet) -> bool {
        debug_assert_eq!(self.state.checkpoint(), 0, "state is pristine between subsets");
        debug_assert!(self.placed.is_empty(), "placed set is pristine between subsets");
        self.active_count = active.count();
        self.active = active;
        self.seen.clear();
        self.seq.clear();
        let found = self.backtrack(0);
        // `seq` and `placed` keep the witness on success (the caller returns
        // immediately); on failure backtracking has restored `placed` to
        // empty. The state is always reset for the next subset.
        self.state.rollback(0);
        found
    }

    fn backtrack(&mut self, depth: usize) -> bool {
        if depth == self.active_count {
            return true;
        }
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        if !self.seen.insert((self.placed.clone(), self.state.fingerprint())) {
            return false;
        }
        // Candidates are recomputed from the live `placed` set after every
        // recursive return (it is restored on the way out), with a `tried`
        // mask excluding bits this frame already attempted — no per-frame
        // snapshot allocation for any history size.
        for w in 0..self.graph.words_per_row() {
            let mut tried = 0u64;
            loop {
                let cand = self.active.word(w) & !self.placed.word(w) & !tried;
                if cand == 0 {
                    break;
                }
                let b = cand.trailing_zeros() as usize;
                tried |= 1u64 << b;
                let i = w * 64 + b;
                if self.graph.preds_blocked(i, &self.active, &self.placed) {
                    continue;
                }
                let op = self.ids[i].index();
                let cp = self.state.checkpoint();
                if !self.state.apply_checked(self.index, op) {
                    continue;
                }
                self.placed.insert(i);
                self.seq.push(self.ids[i]);
                if self.backtrack(depth + 1) {
                    return true;
                }
                self.seq.pop();
                self.placed.remove(i);
                self.state.rollback(cp);
                if self.budget == 0 {
                    return false;
                }
            }
        }
        false
    }
}

/// The straightforward reference implementation of [`find_sequence`]: hash
/// maps keyed by `OpId`, a cloned [`SpecState`] per step, a rebuilt
/// Kahn's-algorithm cycle check per optional subset, and `u128` scheduled-set
/// masks (hence the [`MAX_SEARCH_OPS`] cap this implementation keeps).
///
/// Retained (not cfg-gated) so the property tests can assert the optimized
/// search agrees with it on randomized histories, and as executable
/// documentation of the definitions.
pub fn find_sequence_reference(
    history: &History,
    required: &[OpId],
    optional: &[OpId],
    constraints: &Constraints,
) -> Result<Option<Vec<OpId>>, SearchError> {
    if history.len() > MAX_SEARCH_OPS {
        return Err(SearchError::TooLarge { ops: history.len() });
    }
    if optional.len() > MAX_OPTIONAL_OPS {
        return Err(SearchError::TooManyPending { pending: optional.len() });
    }
    let subsets = 1usize << optional.len();
    for subset in 0..subsets {
        let mut included: Vec<OpId> = required.to_vec();
        for (i, &op) in optional.iter().enumerate() {
            if subset & (1 << i) != 0 {
                included.push(op);
            }
        }
        if reference_has_cycle(constraints, &included) {
            continue;
        }
        if let Some(seq) = reference_search_included(history, &included, constraints) {
            return Ok(Some(seq));
        }
    }
    Ok(None)
}

fn reference_has_cycle(constraints: &Constraints, included: &[OpId]) -> bool {
    let set: HashSet<OpId> = included.iter().copied().collect();
    let mut indegree: HashMap<OpId, usize> = included.iter().map(|&o| (o, 0)).collect();
    let mut adj: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for &(a, b) in constraints.edges() {
        if set.contains(&a) && set.contains(&b) {
            *indegree.get_mut(&b).expect("b is included") += 1;
            adj.entry(a).or_default().push(b);
        }
    }
    let mut queue: Vec<OpId> = indegree.iter().filter(|(_, &d)| d == 0).map(|(&o, _)| o).collect();
    let mut visited = 0;
    while let Some(o) = queue.pop() {
        visited += 1;
        if let Some(next) = adj.get(&o) {
            for &b in next {
                let d = indegree.get_mut(&b).expect("b is included");
                *d -= 1;
                if *d == 0 {
                    queue.push(b);
                }
            }
        }
    }
    visited != included.len()
}

fn reference_search_included(
    history: &History,
    included: &[OpId],
    constraints: &Constraints,
) -> Option<Vec<OpId>> {
    let n = included.len();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut local: HashMap<OpId, usize> = HashMap::new();
    for (i, &op) in included.iter().enumerate() {
        local.insert(op, i);
    }
    let mut preds = vec![0u128; n];
    for &(a, b) in constraints.edges() {
        if let (Some(&ia), Some(&ib)) = (local.get(&a), local.get(&b)) {
            preds[ib] |= 1 << ia;
        }
    }
    let mut seq = Vec::with_capacity(n);
    let mut seen: HashSet<(u128, u64)> = HashSet::new();
    if reference_backtrack(history, included, &preds, 0, &SpecState::new(), &mut seq, &mut seen) {
        Some(seq)
    } else {
        None
    }
}

fn reference_backtrack(
    history: &History,
    included: &[OpId],
    preds: &[u128],
    placed_mask: u128,
    state: &SpecState,
    seq: &mut Vec<OpId>,
    seen: &mut HashSet<(u128, u64)>,
) -> bool {
    let n = included.len();
    if seq.len() == n {
        return true;
    }
    if !seen.insert((placed_mask, state.fingerprint())) {
        return false;
    }
    for i in 0..n {
        let bit = 1u128 << i;
        if placed_mask & bit != 0 {
            continue;
        }
        if preds[i] & !placed_mask != 0 {
            continue;
        }
        let op = history.op(included[i]);
        let mut next_state = state.clone();
        let produced = next_state.apply(op.service, &op.kind);
        if let Some(recorded) = &op.result {
            let matches = match &op.kind {
                crate::op::OpKind::Write { .. }
                | crate::op::OpKind::Enqueue { .. }
                | crate::op::OpKind::Fence => true,
                _ => &produced == recorded,
            };
            if !matches {
                continue;
            }
        }
        seq.push(included[i]);
        if reference_backtrack(history, included, preds, placed_mask | bit, &next_state, seq, seen)
        {
            return true;
        }
        seq.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::order::CausalOrder;

    fn opset(universe: usize, bits: &[usize]) -> OpSet {
        let mut s = OpSet::empty(universe);
        for &b in bits {
            s.insert(b);
        }
        s
    }

    #[test]
    fn constraints_cycle_detection() {
        let a = OpId(0);
        let b = OpId(1);
        let c = OpId(2);
        let cons = Constraints::from_edges(vec![(a, b), (b, c), (c, a)]);
        assert!(cons.has_cycle(&[a, b, c]));
        assert!(!cons.has_cycle(&[a, b]));
        let acyclic = Constraints::from_edges(vec![(a, b), (b, c)]);
        assert!(!acyclic.has_cycle(&[a, b, c]));
    }

    #[test]
    fn add_keeps_edges_sorted_and_deduplicated() {
        let mut cons = Constraints::new();
        cons.add(OpId(2), OpId(3));
        cons.add(OpId(0), OpId(1));
        cons.add(OpId(2), OpId(3));
        cons.add(OpId(1), OpId(1)); // self-loop dropped
        assert_eq!(cons.edges(), &[(OpId(0), OpId(1)), (OpId(2), OpId(3))]);
    }

    #[test]
    fn extend_merges_without_duplicates() {
        let mut a = Constraints::from_edges(vec![(OpId(0), OpId(1)), (OpId(4), OpId(5))]);
        let b = Constraints::from_edges(vec![(OpId(0), OpId(1)), (OpId(2), OpId(3))]);
        a.extend(&b);
        assert_eq!(a.edges(), &[(OpId(0), OpId(1)), (OpId(2), OpId(3)), (OpId(4), OpId(5))]);
        let mut empty = Constraints::new();
        empty.extend(&a);
        assert_eq!(empty.edges(), a.edges());
    }

    #[test]
    fn constraint_graph_masked_cycles() {
        let edges = Constraints::from_edges(vec![
            (OpId(0), OpId(1)),
            (OpId(1), OpId(2)),
            (OpId(2), OpId(0)),
        ]);
        let ids = [OpId(0), OpId(1), OpId(2)];
        let graph = ConstraintGraph::compile(&edges, &ids, 3);
        assert!(graph.has_cycle_masked(&opset(3, &[0, 1, 2])));
        assert!(!graph.has_cycle_masked(&opset(3, &[0, 1])), "dropping one node breaks the cycle");
        assert!(!graph.has_cycle_masked(&opset(3, &[])));
        assert!(graph.pred_contains(1, 0));
        assert!(!graph.pred_contains(0, 1));
    }

    #[test]
    fn constraint_graph_cycles_beyond_128_ops() {
        // A cycle whose nodes straddle the third word (indices 126..=130).
        let n = 160;
        let edges = Constraints::from_edges(vec![
            (OpId(126), OpId(127)),
            (OpId(127), OpId(128)),
            (OpId(128), OpId(130)),
            (OpId(130), OpId(126)),
        ]);
        let ids: Vec<OpId> = (0..n as u32).map(OpId).collect();
        let graph = ConstraintGraph::compile(&edges, &ids, n);
        assert_eq!(graph.words_per_row(), 3);
        let all: Vec<usize> = (0..n).collect();
        assert!(graph.has_cycle_masked(&opset(n, &all)));
        let without: Vec<usize> = (0..n).filter(|&i| i != 128).collect();
        assert!(!graph.has_cycle_masked(&opset(n, &without)));
    }

    #[test]
    fn finds_order_for_simple_history() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 2);
        let r = b.read(2, 1, 5, 3, 4);
        let h = b.build();
        let cons = Constraints::from_edges(CausalOrder::new(&h).direct_edges().to_vec());
        let seq = find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap().unwrap();
        assert_eq!(seq, vec![w, r]);
    }

    #[test]
    fn detects_unsatisfiable_history() {
        let mut b = HistoryBuilder::new();
        // Read of a value nobody wrote.
        let _r = b.read(1, 1, 99, 0, 2);
        let h = b.build();
        let cons = Constraints::new();
        assert_eq!(find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap(), None);
    }

    #[test]
    fn optional_pending_write_can_justify_read() {
        let mut b = HistoryBuilder::new();
        let pw = b.pending_write(1, 1, 9, 0);
        let r = b.read(2, 1, 9, 10, 12);
        let h = b.build();
        let cons = Constraints::new();
        let seq = find_sequence(&h, &[r], &[pw], &cons).unwrap().unwrap();
        assert_eq!(seq, vec![pw, r]);
    }

    #[test]
    fn constraints_can_make_history_unsatisfiable() {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 2);
        let r = b.read(2, 1, 0, 3, 4); // reads null
        let h = b.build();
        // Force the write before the read: then the read of null is invalid.
        let cons = Constraints::from_edges(vec![(w, r)]);
        assert_eq!(find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap(), None);
        // Without the constraint the read can be ordered first.
        let free = Constraints::new();
        assert!(find_sequence(&h, &h.complete_ids(), &[], &free).unwrap().is_some());
    }

    #[test]
    fn tolerates_constraint_edges_outside_the_history() {
        // Out-of-range op ids in the constraint set must be dropped, not
        // panic — matching `Constraints::has_cycle` and the reference path.
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 2);
        let r = b.read(2, 1, 5, 3, 4);
        let h = b.build();
        let cons = Constraints::from_edges(vec![(OpId(200), w), (w, OpId(300)), (w, r)]);
        let fast = find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap();
        let slow = find_sequence_reference(&h, &h.complete_ids(), &[], &cons).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast, Some(vec![w, r]));
    }

    /// Builds a history of `n` sequential writes by one process and checks
    /// that the search recovers the full order under causal constraints.
    fn chain_of_writes(n: u64) -> (crate::history::History, Constraints) {
        let mut b = HistoryBuilder::new();
        for i in 0..n {
            b.write(1, 1, i + 1, i * 10, i * 10 + 5);
        }
        let h = b.build();
        let cons = Constraints::from_edges(CausalOrder::new(&h).direct_edges().to_vec());
        (h, cons)
    }

    #[test]
    fn handles_histories_at_every_representation_boundary() {
        // 64 (one-word boundary), 127/128 (the old u128 ceiling), and 129
        // (the first spilled size, which the old path rejected outright).
        for n in [64u64, 127, 128, 129] {
            let (h, cons) = chain_of_writes(n);
            let seq = find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap();
            assert_eq!(seq.map(|s| s.len()), Some(n as usize), "chain of {n} writes");
        }
    }

    #[test]
    fn searches_large_histories_the_old_path_rejected() {
        // 130 ops: beyond the old `u128` ceiling. Mixed reads/writes so the
        // spec replay is exercised, not just topological enumeration.
        let mut b = HistoryBuilder::new();
        for i in 0..65u64 {
            b.write(1, 1, i + 1, i * 20, i * 20 + 5);
            b.read(2, 1, i + 1, i * 20 + 10, i * 20 + 15);
        }
        let h = b.build();
        assert_eq!(h.len(), 130);
        let cons = Constraints::from_edges(CausalOrder::new(&h).direct_edges().to_vec());
        let seq = find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap().unwrap();
        assert_eq!(seq.len(), 130);
        // The reference implementation still caps at 128 ops.
        assert!(matches!(
            find_sequence_reference(&h, &h.complete_ids(), &[], &cons),
            Err(SearchError::TooLarge { ops: 130 })
        ));
    }

    #[test]
    fn unsatisfiable_large_history_is_rejected_not_errored() {
        // The process-order chain keeps the (exponential) search tractable:
        // the 130 writes are totally ordered, and the impossible read fails
        // spec replay at each of its candidate positions.
        let mut b = HistoryBuilder::new();
        for i in 0..130u64 {
            b.write(1, 1, i + 1, i * 10, i * 10 + 5);
        }
        b.read(2, 1, 999, 2000, 2010); // value nobody wrote
        let h = b.build();
        let cons = Constraints::from_edges(CausalOrder::new(&h).direct_edges().to_vec());
        assert_eq!(find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap(), None);
    }

    #[test]
    fn queue_histories_replay_with_undo() {
        use crate::op::{OpKind, OpResult};
        use crate::types::{Key, ProcessId, ServiceId, Timestamp, Value};
        let mut h = History::new();
        let e1 = h.add_complete(
            ProcessId(1),
            ServiceId::QUEUE,
            OpKind::Enqueue { queue: Key(1), value: Value(10) },
            Timestamp(0),
            Timestamp(1),
            OpResult::Ack,
        );
        let e2 = h.add_complete(
            ProcessId(1),
            ServiceId::QUEUE,
            OpKind::Enqueue { queue: Key(1), value: Value(20) },
            Timestamp(2),
            Timestamp(3),
            OpResult::Ack,
        );
        let d1 = h.add_complete(
            ProcessId(2),
            ServiceId::QUEUE,
            OpKind::Dequeue { queue: Key(1) },
            Timestamp(4),
            Timestamp(5),
            OpResult::Value(Value(10)),
        );
        let d2 = h.add_complete(
            ProcessId(2),
            ServiceId::QUEUE,
            OpKind::Dequeue { queue: Key(1) },
            Timestamp(6),
            Timestamp(7),
            OpResult::Value(Value(20)),
        );
        let cons = Constraints::new();
        let seq = find_sequence(&h, &h.complete_ids(), &[], &cons).unwrap().unwrap();
        // FIFO forces the full order.
        assert_eq!(seq, vec![e1, e2, d1, d2]);
    }

    /// Tiny deterministic PRNG for the differential tests below (core has no
    /// RNG dependency).
    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Runs the unbudgeted [`OpSet`] search and [`find_sequence_reference`]
    /// (the `u128`-mask oracle) on identical inputs and checks they agree on
    /// satisfiability; any witness either produces must replay legally and
    /// respect the constraints.
    fn assert_small_and_large_agree(h: &History, cons: &Constraints, label: &str) {
        let index = HistoryIndex::new(h);
        let required = h.complete_ids();
        let optional = h.pending_mutations();
        let small = find_sequence_reference(h, &required, &optional, cons).unwrap();
        let large = find_sequence_unbounded(&index, &required, &optional, cons).unwrap();
        assert_eq!(
            small.is_some(),
            large.is_some(),
            "reference/OpSet searches disagree ({label}): reference={small:?} opset={large:?}"
        );
        for seq in [&small, &large].into_iter().flatten() {
            assert!(crate::spec::check_sequence(h, seq).is_ok(), "illegal witness ({label})");
            let pos = |id: OpId| seq.iter().position(|&x| x == id);
            for &(a, b) in cons.edges() {
                if let (Some(pa), Some(pb)) = (pos(a), pos(b)) {
                    assert!(pa < pb, "constraint {a} -> {b} violated ({label})");
                }
            }
        }
    }

    #[test]
    fn small_and_large_searchers_agree_on_randomized_histories() {
        // The OpSet searcher's word-loop candidate enumeration and memo key
        // must reach the reference search's verdict. Random small histories
        // (mixed reads/writes/pending, reads sometimes of impossible values)
        // cover the one-word regime densely.
        for seed in 1..=120u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let n = 4 + xorshift(&mut s) % 7; // 4..=10 ops
            let mut b = HistoryBuilder::new();
            for i in 0..n {
                let p = 1 + (xorshift(&mut s) % 3) as u32;
                let key = 1 + xorshift(&mut s) % 2;
                let t = i * 10;
                match xorshift(&mut s) % 4 {
                    0 | 1 => {
                        b.write(p, key, 100 + i, t, t + 5);
                    }
                    2 => {
                        // Read of null, an existing value, or an impossible one.
                        let v = match xorshift(&mut s) % 3 {
                            0 => 0,
                            1 => 100 + xorshift(&mut s) % n.max(1),
                            _ => 999,
                        };
                        b.read(p, key, v, t, t + 5);
                    }
                    _ => {
                        b.pending_write(p, key, 500 + i, t);
                    }
                }
            }
            let h = b.build();
            let cons = Constraints::from_edges(CausalOrder::new(&h).direct_edges().to_vec());
            assert_small_and_large_agree(&h, &cons, &format!("random seed {seed}"));
        }
    }

    #[test]
    fn small_and_large_searchers_agree_across_word_boundaries() {
        // Structured multi-chain histories at 70 and 100 ops: the OpSet path
        // runs two-word candidate masks (word-boundary crossings after deep
        // recursive returns) while staying tractable — three processes write
        // independent keys, so the searchers interleave three chains.
        for (n, impossible_read) in [(70u64, false), (70, true), (100, false), (100, true)] {
            let mut b = HistoryBuilder::new();
            for i in 0..n {
                let p = 1 + (i % 3) as u32;
                // One key per process: chains are independent.
                b.write(p, p as u64, i + 1, i * 10, i * 10 + 5);
            }
            if impossible_read {
                b.read(4, 1, 9_999, n * 10, n * 10 + 5);
            }
            let h = b.build();
            let cons = Constraints::from_edges(CausalOrder::new(&h).direct_edges().to_vec());
            let label = format!("{n} ops, impossible_read={impossible_read}");
            assert_small_and_large_agree(&h, &cons, &label);
        }
    }

    #[test]
    fn exhausted_budget_falls_back_to_saturation_for_unsat() {
        // Under sequential consistency, P1 reads y=20 then writes x=10 while
        // P2 reads x=10 then writes y=20: each read needs the other process's
        // later write first, a cycle saturation sees at once. Neither read can
        // ever be placed, so the plain search instead enumerates every
        // interleaving of six independent 8-write padding chains (9^6 placed
        // sets) and runs out of budget.
        let mut b = HistoryBuilder::new();
        b.read(1, 2, 20, 0, 5);
        b.write(1, 1, 10, 10, 15);
        b.read(2, 1, 10, 0, 5);
        b.write(2, 2, 20, 10, 15);
        for p in 3..9u32 {
            for i in 0..8u64 {
                b.write(p, 100 + p as u64, i + 1, i * 10, i * 10 + 5);
            }
        }
        let h = b.build();
        let index = HistoryIndex::new(&h);
        let cons = Constraints::from_edges(index.process_order_pairs().collect());
        let required = h.complete_ids();
        assert_eq!(
            search(&index, &required, &[], &cons, PLAIN_SEARCH_BUDGET),
            Ok(Searched::OutOfBudget)
        );
        assert!(crate::checker::saturate::saturate(&index, &required, &cons).is_cyclic());
        assert_eq!(find_sequence_with(&index, &required, &[], &cons), Ok(None));
    }

    #[test]
    fn exhausted_budget_still_finds_a_witness() {
        // Under sequential consistency, a read of x=0 concurrent with a write
        // of x=1 is satisfiable only with the read first. The plain search
        // places the write first (lower index) and then enumerates every
        // interleaving of five independent 9-write padding chains (10^5
        // placed sets) before it could backtrack, so it runs out of budget;
        // the complete fallback must still return the witness.
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 5);
        let r = b.read(2, 1, 0, 0, 5);
        for p in 3..8u32 {
            for i in 0..9u64 {
                b.write(p, 100 + p as u64, i + 1, i * 10, i * 10 + 5);
            }
        }
        let h = b.build();
        let index = HistoryIndex::new(&h);
        let cons = Constraints::from_edges(index.process_order_pairs().collect());
        let required = h.complete_ids();
        assert_eq!(
            search(&index, &required, &[], &cons, PLAIN_SEARCH_BUDGET),
            Ok(Searched::OutOfBudget)
        );
        let seq = find_sequence_with(&index, &required, &[], &cons).unwrap().expect("satisfiable");
        assert!(crate::spec::check_sequence(&h, &seq).is_ok());
        assert!(seq.iter().position(|&x| x == r) < seq.iter().position(|&x| x == OpId(0)));
    }

    #[test]
    fn optimized_and_reference_agree_on_small_histories() {
        // A handful of hand-picked shapes; the exhaustive randomized check
        // lives in tests/properties.rs.
        let mut b = HistoryBuilder::new();
        b.write(1, 1, 1, 0, 100);
        b.read(2, 1, 1, 10, 20);
        b.read(3, 1, 0, 30, 40);
        b.pending_write(2, 2, 9, 50);
        let h = b.build();
        let cons = Constraints::from_edges(CausalOrder::new(&h).direct_edges().to_vec());
        let required = h.complete_ids();
        let optional = h.pending_mutations();
        let fast = find_sequence(&h, &required, &optional, &cons).unwrap();
        let slow = find_sequence_reference(&h, &required, &optional, &cons).unwrap();
        assert_eq!(fast.is_some(), slow.is_some());
    }
}
