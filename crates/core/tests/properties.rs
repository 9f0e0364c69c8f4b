//! Property-based tests of the consistency-model core: checker soundness,
//! witness/search agreement, spec replay determinism, and the witness
//! assembler.

use proptest::prelude::*;
use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::{check_witness, check_witness_parallel, WitnessModel};
use regular_core::checker::models::{check, constraints_for, Model};
use regular_core::checker::saturate::find_sequence_saturated;
use regular_core::checker::search::{find_sequence, find_sequence_reference};
use regular_core::checker::window::StreamingChecker;
use regular_core::history::History;
use regular_core::history::HistoryIndex;
use regular_core::op::{OpKind, OpResult};
use regular_core::order::{message_edges, reads_from_edges, CausalOrder};
use regular_core::spec::{check_sequence, SpecState};
use regular_core::types::{Key, ProcessId, ServiceId, Timestamp, Value};

/// Operation description used by the generators.
#[derive(Debug, Clone)]
struct GenOp {
    process: u8,
    key: u8,
    is_write: bool,
    duration: u8,
    pick: u8,
}

fn gen_ops(max: usize) -> impl Strategy<Value = Vec<GenOp>> {
    prop::collection::vec(
        (0u8..3, 0u8..3, any::<bool>(), 0u8..3, any::<u8>()).prop_map(
            |(process, key, is_write, duration, pick)| GenOp {
                process,
                key,
                is_write,
                duration,
                pick,
            },
        ),
        1..max,
    )
}

/// Builds a well-formed history where reads return either null or a value some
/// write (anywhere in the history) wrote to the same key. Not necessarily
/// satisfiable under any model.
fn build_history(ops: &[GenOp]) -> History {
    let mut history = History::new();
    let mut writes: Vec<(Key, Value)> = Vec::new();
    // Pre-assign write values so reads can "read from the future" too — the
    // checkers must handle that (it is simply unsatisfiable in most models).
    for (i, op) in ops.iter().enumerate() {
        if op.is_write {
            writes.push((Key((op.key % 3) as u64 + 1), Value(1_000 + i as u64)));
        }
    }
    let mut now = 0u64;
    let mut free_at = [0u64; 4];
    for (i, op) in ops.iter().enumerate() {
        let pidx = (op.process % 3) as usize + 1;
        let key = Key((op.key % 3) as u64 + 1);
        now += 7;
        let invoke = now.max(free_at[pidx] + 1);
        let response = invoke + 3 + (op.duration as u64 % 3) * 15;
        free_at[pidx] = response;
        if op.is_write {
            history.add_complete(
                ProcessId(pidx as u32),
                ServiceId::KV,
                OpKind::Write { key, value: Value(1_000 + i as u64) },
                Timestamp(invoke),
                Timestamp(response),
                OpResult::Ack,
            );
        } else {
            let candidates: Vec<Value> =
                writes.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
            let value = if candidates.is_empty()
                || (op.pick as usize).is_multiple_of(candidates.len() + 1)
            {
                Value::NULL
            } else {
                candidates[(op.pick as usize) % candidates.len()]
            };
            history.add_complete(
                ProcessId(pidx as u32),
                ServiceId::KV,
                OpKind::Read { key },
                Timestamp(invoke),
                Timestamp(response),
                OpResult::Value(value),
            );
        }
    }
    history
}

/// Like [`build_history`], but writes with `duration == 2` are recorded as
/// incomplete (pending), so the optional-subset enumeration of the search is
/// exercised as well.
fn build_history_with_pending(ops: &[GenOp]) -> History {
    let complete = build_history(ops);
    let mut history = History::new();
    for (op, gen) in complete.ops().iter().zip(ops) {
        if gen.is_write && gen.duration == 2 {
            history.add_incomplete(op.process, op.service, op.kind.clone(), op.invoke);
        } else {
            history.add_complete(
                op.process,
                op.service,
                op.kind.clone(),
                op.invoke,
                op.response.expect("build_history records complete ops"),
                op.result.clone().expect("build_history records results"),
            );
        }
    }
    history
}

/// Builds `groups` disjoint copies of the generated history — distinct
/// processes, keys, and write values per group, but overlapping real-time
/// intervals — so the checkers see several communication components with
/// real-time edges between them.
fn build_grouped_history(ops: &[GenOp], groups: usize) -> History {
    let mut history = History::new();
    for g in 0..groups as u64 {
        let value_of = |i: usize| Value(1_000 + g * 10_000 + i as u64);
        let key_of = |k: u8| Key((k % 3) as u64 + 1 + g * 3);
        let writes: Vec<(Key, Value)> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.is_write)
            .map(|(i, op)| (key_of(op.key), value_of(i)))
            .collect();
        let mut now = 0u64;
        let mut free_at = [0u64; 4];
        for (i, op) in ops.iter().enumerate() {
            let pslot = (op.process % 3) as usize + 1;
            let process = ProcessId(g as u32 * 3 + pslot as u32);
            let key = key_of(op.key);
            now += 7;
            let invoke = now.max(free_at[pslot] + 1);
            let response = invoke + 3 + (op.duration as u64 % 3) * 15;
            free_at[pslot] = response;
            if op.is_write {
                history.add_complete(
                    process,
                    ServiceId::KV,
                    OpKind::Write { key, value: value_of(i) },
                    Timestamp(invoke),
                    Timestamp(response),
                    OpResult::Ack,
                );
            } else {
                let candidates: Vec<Value> =
                    writes.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
                let value = if candidates.is_empty()
                    || (op.pick as usize).is_multiple_of(candidates.len() + 1)
                {
                    Value::NULL
                } else {
                    candidates[(op.pick as usize) % candidates.len()]
                };
                history.add_complete(
                    process,
                    ServiceId::KV,
                    OpKind::Read { key },
                    Timestamp(invoke),
                    Timestamp(response),
                    OpResult::Value(value),
                );
            }
        }
    }
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whenever the exact search finds a witness for a model, the certificate
    /// checker accepts that witness for the corresponding witness model (the
    /// two characterizations of the definitions agree).
    #[test]
    fn search_witnesses_pass_the_certificate_checker(ops in gen_ops(8)) {
        let h = build_history(&ops);
        for (model, witness_model) in [
            (Model::Linearizability, WitnessModel::RealTime),
            (Model::RegularSequentialConsistency, WitnessModel::Regular),
            (Model::SequentialConsistency, WitnessModel::ProcessOrder),
        ] {
            let outcome = check(&h, model).unwrap();
            if let (true, Some(witness)) = (outcome.satisfied, outcome.witness) {
                prop_assert!(
                    check_witness(&h, &witness, witness_model).is_ok(),
                    "{} witness rejected by the certificate checker",
                    model.name()
                );
            }
        }
    }

    /// The witness found by the search is always a legal sequence per the spec
    /// and respects the model's constraint edges.
    #[test]
    fn witnesses_respect_spec_and_constraints(ops in gen_ops(8)) {
        let h = build_history(&ops);
        let model = Model::RegularSequentialSerializability;
        let outcome = check(&h, model).unwrap();
        if let (true, Some(witness)) = (outcome.satisfied, outcome.witness) {
            prop_assert!(check_sequence(&h, &witness).is_ok());
            let constraints = constraints_for(&h, model);
            let pos = |id| witness.iter().position(|x| *x == id);
            for (a, b) in constraints.edges() {
                if let (Some(pa), Some(pb)) = (pos(*a), pos(*b)) {
                    prop_assert!(pa < pb, "constraint {a} -> {b} violated");
                }
            }
        }
    }

    /// The two reachability implementations of the causal order (per-query DFS
    /// and the all-pairs closure) agree, and reads-from edges always point
    /// from a write to a read of the same key. (Acyclicity is only guaranteed
    /// for histories recorded from real executions; this generator can create
    /// impossible "read from the future" histories, which the model checkers
    /// simply reject.)
    #[test]
    fn causal_order_reachability_and_reads_from_are_well_typed(ops in gen_ops(10)) {
        let h = build_history(&ops);
        let causal = CausalOrder::new(&h);
        let closure = causal.closure();
        for a in h.complete_ids() {
            for b in h.complete_ids() {
                if a != b {
                    prop_assert_eq!(
                        causal.precedes(a, b),
                        closure[a.index()][b.index()],
                        "reachability implementations disagree for {} -> {}",
                        a,
                        b
                    );
                }
            }
        }
        for (w, r) in reads_from_edges(&h) {
            prop_assert!(h.op(w).kind.is_mutating());
            prop_assert!(!h.op(r).kind.is_mutating());
            let wk = h.op(w).kind.written_keys();
            let rk = h.op(r).kind.read_keys();
            prop_assert!(wk.iter().any(|k| rk.contains(k)));
        }
    }

    /// A sequence accepted by the spec replay yields exactly the same final
    /// state regardless of how many times it is replayed (replay determinism).
    #[test]
    fn spec_replay_is_deterministic(ops in gen_ops(10)) {
        let h = build_history(&ops);
        let order = h.complete_ids();
        let mut s1 = SpecState::new();
        let mut s2 = SpecState::new();
        for id in &order {
            let op = h.op(*id);
            s1.apply(op.service, &op.kind);
        }
        for id in &order {
            let op = h.op(*id);
            s2.apply(op.service, &op.kind);
        }
        prop_assert_eq!(s1.fingerprint(), s2.fingerprint());
        prop_assert_eq!(s1, s2);
    }

    /// If the search says a history is linearizable, the assembler — given the
    /// per-key order implied by the search witness — also produces a witness
    /// the certificate checker accepts.
    #[test]
    fn assembler_reconstructs_linearizable_witnesses(ops in gen_ops(7)) {
        let h = build_history(&ops);
        let outcome = check(&h, Model::Linearizability).unwrap();
        if let (true, Some(witness)) = (outcome.satisfied, outcome.witness) {
            // Derive per-key chains from the search witness (what a protocol
            // would provide via its per-key metadata).
            let mut edges = Vec::new();
            for key in 1..=3u64 {
                let chain: Vec<_> = witness
                    .iter()
                    .copied()
                    .filter(|id| h.op(*id).kind.accessed_keys().contains(&Key(key)))
                    .collect();
                for w in chain.windows(2) {
                    edges.push((w[0], w[1]));
                }
            }
            let assembled = assemble_witness(&h, &edges, WitnessModel::RealTime);
            prop_assert!(assembled.is_ok(), "assembler failed on a linearizable history");
            prop_assert!(check_witness(&h, &assembled.unwrap(), WitnessModel::RealTime).is_ok());
        }
    }

    /// The index-based search (compiled constraint graph, mutable spec state
    /// with undo, bitmask cycle checks) agrees exactly with the retained
    /// naive reference implementation — same satisfiability verdict under
    /// every model's constraint set, and any witness it produces passes the
    /// spec replay and the constraints.
    #[test]
    fn optimized_search_agrees_with_reference(ops in gen_ops(8)) {
        let h = build_history_with_pending(&ops);
        let required = h.complete_ids();
        let optional = h.pending_mutations();
        for model in [
            Model::StrictSerializability,
            Model::Linearizability,
            Model::RegularSequentialSerializability,
            Model::RegularSequentialConsistency,
            Model::ProcessOrderedSerializability,
            Model::SequentialConsistency,
        ] {
            let constraints = constraints_for(&h, model);
            let fast = find_sequence(&h, &required, &optional, &constraints).unwrap();
            let slow = find_sequence_reference(&h, &required, &optional, &constraints).unwrap();
            prop_assert_eq!(
                fast.is_some(),
                slow.is_some(),
                "{} verdicts diverge: optimized={:?} reference={:?}",
                model.name(),
                &fast,
                &slow
            );
            if let Some(witness) = &fast {
                prop_assert!(check_sequence(&h, witness).is_ok());
                let pos = |id| witness.iter().position(|x| *x == id);
                for (a, b) in constraints.edges() {
                    if let (Some(pa), Some(pb)) = (pos(*a), pos(*b)) {
                        prop_assert!(pa < pb, "constraint {a} -> {b} violated under {}", model.name());
                    }
                }
            }
        }
    }

    /// Sharded parallel witness checking is *equivalent* to the sequential
    /// checker: identical accept/reject verdicts at every thread count, on
    /// random histories well past the 128-op ceiling the old `u128` search
    /// masks imposed on the exact checkers. Histories range to ~700 ops so
    /// a large fraction exceed the checker's parallel-dispatch threshold and
    /// exercise the real multi-thread shards, while the smaller ones pin the
    /// sequential fallback. (When a witness is invalid the *reported*
    /// violation may differ between shards — only the verdict is compared.)
    #[test]
    fn parallel_witness_check_agrees_with_sequential(ops in gen_ops(700), flip in any::<bool>()) {
        let h = build_history(&ops);
        let index = HistoryIndex::new(&h);
        // Candidate witnesses: history order (often valid for ProcessOrder,
        // sometimes for the others) and a deliberately perturbed order that
        // usually trips a constraint.
        let mut witness = h.complete_ids();
        if flip && witness.len() >= 2 {
            let n = witness.len();
            witness.swap(0, n - 1);
        }
        for model in [WitnessModel::RealTime, WitnessModel::Regular, WitnessModel::ProcessOrder] {
            let sequential = check_witness(&h, &witness, model);
            for threads in [2usize, 3, 5] {
                let parallel = check_witness_parallel(&h, &index, &witness, model, threads);
                prop_assert_eq!(
                    sequential.is_ok(),
                    parallel.is_ok(),
                    "verdicts diverge ({} ops, {} threads, {:?}): seq={:?} par={:?}",
                    h.len(),
                    threads,
                    model,
                    &sequential,
                    &parallel
                );
            }
        }
    }

    /// The exact search — `check` (plain search, saturation fallback) and
    /// the saturated search on its own — reaches exactly the same
    /// satisfiability verdict as the naive reference search under every
    /// model, on histories made of one or more disjoint groups. Any witness
    /// either produces passes the spec replay and the model's constraint
    /// edges.
    #[test]
    fn certification_cascade_agrees_with_reference_search(
        ops in gen_ops(7),
        groups in 1usize..3,
    ) {
        let h = build_grouped_history(&ops, groups);
        let index = HistoryIndex::new(&h);
        let required = h.complete_ids();
        let optional = h.pending_mutations();
        for model in [
            Model::StrictSerializability,
            Model::Linearizability,
            Model::RegularSequentialSerializability,
            Model::RegularSequentialConsistency,
            Model::ProcessOrderedSerializability,
            Model::SequentialConsistency,
        ] {
            let constraints = constraints_for(&h, model);
            let reference =
                find_sequence_reference(&h, &required, &optional, &constraints).unwrap();
            let saturated =
                find_sequence_saturated(&index, &required, &optional, &constraints).unwrap();
            let checked = check(&h, model).unwrap().witness;
            prop_assert_eq!(
                saturated.is_some(),
                reference.is_some(),
                "{} verdicts diverge: saturated={:?} reference={:?}",
                model.name(),
                &saturated,
                &reference
            );
            prop_assert_eq!(
                checked.is_some(),
                reference.is_some(),
                "{} verdicts diverge: check={:?} reference={:?}",
                model.name(),
                &checked,
                &reference
            );
            for witness in [&saturated, &checked].into_iter().flatten() {
                prop_assert!(check_sequence(&h, witness).is_ok());
                let pos = |id| witness.iter().position(|x| *x == id);
                for (a, b) in constraints.edges() {
                    if let (Some(pa), Some(pb)) = (pos(*a), pos(*b)) {
                        prop_assert!(pa < pb, "constraint {a} -> {b} violated under {}", model.name());
                    }
                }
            }
        }
    }

    /// The windowed streaming checker — fed the witness one operation at a
    /// time, with the same message edges and per-process predecessor pairs
    /// the batch checker walks — reaches exactly the batch checker's verdict
    /// under every witness model, on valid and deliberately perturbed
    /// witnesses alike.
    #[test]
    fn streaming_checker_agrees_with_batch(ops in gen_ops(40), flip in any::<bool>()) {
        let h = build_history(&ops);
        let mut witness = h.complete_ids();
        if flip && witness.len() >= 2 {
            let n = witness.len();
            witness.swap(0, n - 1);
        }
        let edges = message_edges(&h);
        let complete = h.complete_ids();
        let mut prev = vec![None; h.len()];
        for p in h.processes() {
            let mut last = None;
            for id in h.ops_of_process(p) {
                prev[id.index()] = last;
                last = Some(id);
            }
        }
        for model in [WitnessModel::RealTime, WitnessModel::Regular, WitnessModel::ProcessOrder] {
            let batch = check_witness(&h, &witness, model);
            let mut checker = StreamingChecker::with_message_edges(model, &edges);
            let mut streamed = Ok(());
            for &id in &witness {
                if let Err(v) = checker.push(h.op(id), prev[id.index()]) {
                    streamed = Err(v);
                    break;
                }
            }
            let streamed = streamed.and_then(|()| checker.finish(&complete));
            prop_assert_eq!(
                batch.is_ok(),
                streamed.is_ok(),
                "verdicts diverge ({} ops, {:?}): batch={:?} streamed={:?}",
                h.len(),
                model,
                &batch,
                &streamed
            );
        }
    }

    /// The exact search and the constraint structure agree on monotonicity:
    /// adding the pending-writes subsets can only help, never hurt — if a
    /// history is satisfiable using only complete operations it stays
    /// satisfiable when the same call may also include pending ones.
    #[test]
    fn find_sequence_is_monotone_in_optional_ops(ops in gen_ops(7)) {
        let h = build_history(&ops);
        let constraints = constraints_for(&h, Model::RegularSequentialConsistency);
        let required = h.complete_ids();
        let without = find_sequence(&h, &required, &[], &constraints).unwrap();
        let with = find_sequence(&h, &required, &h.pending_mutations(), &constraints).unwrap();
        if without.is_some() {
            prop_assert!(with.is_some());
        }
    }
}
