//! Buffer-lifetime hazard pass (`B001`–`B003`).
//!
//! Reconstructs, per canonical buffer, the program-order sequence of memory
//! events touching it — reading the plan's [`BufferKeys`], the labels
//! parsed once in the vocabulary ([`rpu::channel::split_label`]) the
//! schedule builders emit and the channel placement keys on — and checks
//! each buffer's lifetime:
//!
//! * **`B001` load-before-store** (Error): a buffer that the schedule itself
//!   materializes (it has a `spill`/`park` write) is loaded *before* the
//!   first write. Program order is a valid witness here because validated
//!   graphs only depend backwards, so an earlier load can never be ordered
//!   after a later store. Buffers that begin life in DRAM (`in[...]`
//!   input limbs, `evk[...]` key towers) are exempt — their first load is
//!   the legitimate initial read.
//! * **`B002` dead store** (Warning): a `spill`/`park` write never followed
//!   by a reload of the same buffer — the value round-trips to DRAM for
//!   nothing (a `release` would have freed the space without traffic).
//! * **`B003` redundant load** (Note): consecutive loads of one buffer
//!   with no intervening write — each pair is a missed caching opportunity.
//!   Streamed evk towers reloaded by every kernel of a fused pipeline land
//!   here by design: this lint is the static signal for the ROADMAP's
//!   cross-kernel evk cache.

use rpu::channel::Verb;
use rpu::verify::Diagnostic;
use rpu::{BufferKeys, ExecPlan, TaskGraph, TaskId};

use super::codes;

/// One memory event on a buffer, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Load(TaskId),
    /// Any write verb: `store`, `spill` or `park`. The flag records whether
    /// it was a spill-family write (`spill`/`park`), the ones that promise a
    /// later reload.
    Write(TaskId, bool),
}

/// Buffers whose first load needs no prior write: key-switch inputs and evk
/// towers start life in DRAM.
fn starts_in_dram(buffer: &str) -> bool {
    buffer.starts_with("in[") || buffer.starts_with("evk[")
}

/// Runs the buffer-lifetime pass over a task graph, reading the labels out
/// of `plan` (compiled from `graph`).
pub fn lint(graph: &TaskGraph, plan: &ExecPlan) -> Vec<Diagnostic> {
    let keys = plan.buffer_keys(graph);
    let (start, events) = group_events(graph, keys);
    // Buffers in name order, for a deterministic diagnostic order.
    let mut order: Vec<(&str, usize)> = (0..keys.buffer_count())
        .filter(|&b| start[b] < start[b + 1])
        .map(|b| (keys.name(graph, b as u32), b))
        .collect();
    order.sort_unstable();
    let mut diagnostics = Vec::new();
    for (buffer, b) in order {
        let events = &events[start[b]..start[b + 1]];
        let spilled = events.iter().any(|e| matches!(e, Event::Write(_, true)));
        let first_write = events.iter().find_map(|e| match e {
            Event::Write(t, _) => Some(*t),
            Event::Load(_) => None,
        });

        // B001: the schedule materializes this buffer itself (spill/park
        // write, not an original DRAM input), yet loads it before anything
        // wrote it — the load reads garbage.
        // Only the earliest offending load is reported; later pre-write
        // loads share the same root cause.
        if spilled && !starts_in_dram(buffer) {
            if let (Some(Event::Load(load)), Some(write)) = (events.first(), first_write) {
                diagnostics.push(
                    Diagnostic::error(
                        codes::LOAD_BEFORE_STORE,
                        format!(
                            "buffer `{buffer}` is loaded (task {load}) before its first \
                             write (task {write}): nothing has put it in DRAM yet"
                        ),
                    )
                    .with_tasks([*load, write])
                    .with_label(format!("load {buffer}").into()),
                );
            }
        }

        // B002: spill-family writes never reloaded.
        for (at, event) in events.iter().enumerate() {
            if let Event::Write(task, true) = event {
                let reloaded = events[at + 1..].iter().any(|e| matches!(e, Event::Load(_)));
                if !reloaded {
                    diagnostics.push(
                        Diagnostic::warning(
                            codes::DEAD_STORE,
                            format!(
                                "buffer `{buffer}` is spilled/parked (task {task}) but never \
                                 reloaded: the writeback is wasted traffic (release it instead)"
                            ),
                        )
                        .with_tasks([*task])
                        .with_label(format!("spill {buffer}").into()),
                    );
                    break; // one report per buffer
                }
            }
        }

        // B003: count load pairs with no intervening write.
        let mut redundant = 0usize;
        let mut witness: Option<(TaskId, TaskId)> = None;
        let mut last_load: Option<TaskId> = None;
        for event in events {
            match event {
                Event::Load(task) => {
                    if let Some(prev) = last_load {
                        redundant += 1;
                        witness.get_or_insert((prev, *task));
                    }
                    last_load = Some(*task);
                }
                Event::Write(..) => last_load = None,
            }
        }
        if let Some((first, second)) = witness {
            diagnostics.push(
                Diagnostic::note(
                    codes::REDUNDANT_LOAD,
                    format!(
                        "buffer `{buffer}` is reloaded {redundant} time(s) with no intervening \
                         write (first: tasks {first} then {second}): caching it on-chip would \
                         elide the repeat traffic"
                    ),
                )
                .with_tasks([first, second])
                .with_label(format!("load {buffer}").into()),
            );
        }
    }
    diagnostics
}

/// Each buffer's program-ordered events, grouped CSR-style: buffer `b`'s
/// are `events[start[b]..start[b + 1]]`. Tasks without the canonical verb
/// vocabulary are skipped: custom strategies are free to label however they
/// like, and such buffers are not analyzable.
fn group_events(graph: &TaskGraph, keys: &BufferKeys) -> (Vec<usize>, Vec<Event>) {
    let keyed = || {
        keys.memory_tasks(graph).filter_map(|(_, task, key)| {
            let event = match key.verb? {
                Verb::Load => Event::Load(task.id),
                verb => Event::Write(task.id, verb.is_spill()),
            };
            Some((key.buffer as usize, event))
        })
    };
    let mut start = vec![0usize; keys.buffer_count() + 1];
    for (buffer, _) in keyed() {
        start[buffer + 1] += 1;
    }
    for b in 0..keys.buffer_count() {
        start[b + 1] += start[b];
    }
    let mut events = vec![Event::Load(0); start[keys.buffer_count()]];
    let mut cursor = start.clone();
    for (buffer, event) in keyed() {
        events[cursor[buffer]] = event;
        cursor[buffer] += 1;
    }
    (start, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu::{ChannelMap, MemoryDirection, TaskGraph};

    fn lint(graph: &TaskGraph) -> Vec<Diagnostic> {
        super::lint(graph, &ExecPlan::new(graph, &ChannelMap::hashed(1), 1))
    }

    fn load(g: &mut TaskGraph, label: &str) -> TaskId {
        g.push_memory(MemoryDirection::Load, 100, vec![], label, "P1")
    }

    fn store(g: &mut TaskGraph, label: &str, deps: Vec<TaskId>) -> TaskId {
        g.push_memory(MemoryDirection::Store, 100, deps, label, "P1")
    }

    #[test]
    fn load_before_spill_of_an_intermediate_is_an_error() {
        let mut g = TaskGraph::new();
        let bad = load(&mut g, "load acc0[1]");
        let write = store(&mut g, "spill acc0[1]", vec![]);
        load(&mut g, "load acc0[1]"); // reload, so the spill is not also dead
        let diagnostics = lint(&g);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert_eq!(diagnostics[0].code, codes::LOAD_BEFORE_STORE);
        assert_eq!(diagnostics[0].tasks, vec![bad, write]);
    }

    #[test]
    fn dram_inputs_may_be_loaded_then_parked_then_reloaded() {
        // `in[1]` starts in DRAM: load -> park -> load is the legitimate
        // capacity-pressure pattern, not a hazard.
        let mut g = TaskGraph::new();
        let first = load(&mut g, "load in[1]");
        store(&mut g, "park in[1]", vec![first]);
        load(&mut g, "load in[1]");
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn spill_never_reloaded_is_a_dead_store_warning() {
        let mut g = TaskGraph::new();
        store(&mut g, "spill acc1[3]", vec![]);
        let diagnostics = lint(&g);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::DEAD_STORE);
        assert_eq!(diagnostics[0].severity, rpu::Severity::Warning);
    }

    #[test]
    fn repeated_loads_without_a_write_are_flagged_once_with_a_count() {
        let mut g = TaskGraph::new();
        load(&mut g, "k0:load evk[d0][t1]");
        load(&mut g, "k1:load evk[d0][t1]");
        load(&mut g, "k2:load evk[d0][t1]");
        let diagnostics = lint(&g);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::REDUNDANT_LOAD);
        assert!(diagnostics[0].message.contains("2 time(s)"));
    }

    #[test]
    fn a_write_between_loads_clears_the_redundancy() {
        // spill -> load -> park -> load: every load follows a write, every
        // write is reloaded, and the intervening park clears B003.
        let mut g = TaskGraph::new();
        store(&mut g, "spill acc0[0]", vec![]);
        let reload = load(&mut g, "load acc0[0]");
        store(&mut g, "park acc0[0]", vec![reload]);
        load(&mut g, "load acc0[0]");
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn final_output_stores_are_not_dead_stores() {
        let mut g = TaskGraph::new();
        store(&mut g, "store out1[0]", vec![]);
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn unrecognized_labels_are_ignored() {
        let mut g = TaskGraph::new();
        load(&mut g, "reload working set (ModUp-P1)");
        store(&mut g, "writeback working set (ModUp-P1)", vec![]);
        assert!(lint(&g).is_empty());
    }
}
