//! Buffer-lifetime hazard pass (`B001`–`B003`).
//!
//! Reconstructs, per buffer, the program-order sequence of memory events
//! touching it — reading the plan's [`BufferKeys`], each memory task's
//! buffer interned once by name (the key channel placement hashes) and its
//! [`Verb`] — and checks each buffer's lifetime. Every memory task carries a
//! verb, so every strategy's buffers are checked, built-in or custom:
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

use rpu::verify::Diagnostic;
use rpu::{BufferKeys, ExecPlan, Label, LabelText, TaskGraph, TaskId, Verb};

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

/// Runs the buffer-lifetime pass over a task graph, reading the buffers out
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
                    .with_label(shown(Verb::Load, buffer)),
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
                        .with_label(shown(Verb::Spill, buffer)),
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
                .with_label(shown(Verb::Load, buffer)),
            );
        }
    }
    diagnostics
}

/// A diagnostic's label: `verb` applied to `buffer`, as a task shows it.
fn shown(verb: Verb, buffer: &str) -> Label {
    let text = LabelText {
        kernel: None,
        verb: Some(verb),
        label: buffer,
    };
    text.to_string().into()
}

/// Each buffer's program-ordered events, grouped CSR-style: buffer `b`'s
/// are `events[start[b]..start[b + 1]]`.
fn group_events(graph: &TaskGraph, keys: &BufferKeys) -> (Vec<usize>, Vec<Event>) {
    let keyed = || {
        keys.memory_tasks(graph).map(|(_, task, key)| {
            let event = match key.verb {
                Verb::Load => Event::Load(task.id),
                verb => Event::Write(task.id, verb.is_spill()),
            };
            (key.buffer as usize, event)
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
    use rpu::{ChannelMap, TaskGraph};

    fn lint(graph: &TaskGraph) -> Vec<Diagnostic> {
        super::lint(graph, &ExecPlan::new(graph, &ChannelMap::hashed(1), 1))
    }

    fn load(g: &mut TaskGraph, buffer: &str) -> TaskId {
        g.push_memory(Verb::Load, 100, vec![], buffer, "P1")
    }

    fn write(g: &mut TaskGraph, verb: Verb, buffer: &str, deps: Vec<TaskId>) -> TaskId {
        g.push_memory(verb, 100, deps, buffer, "P1")
    }

    #[test]
    fn load_before_spill_of_an_intermediate_is_an_error() {
        let mut g = TaskGraph::new();
        let bad = load(&mut g, "acc0[1]");
        let spill = write(&mut g, Verb::Spill, "acc0[1]", vec![]);
        load(&mut g, "acc0[1]"); // reload, so the spill is not also dead
        let diagnostics = lint(&g);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert_eq!(diagnostics[0].code, codes::LOAD_BEFORE_STORE);
        assert_eq!(diagnostics[0].tasks, vec![bad, spill]);
        assert_eq!(diagnostics[0].label.as_deref(), Some("load acc0[1]"));
    }

    #[test]
    fn dram_inputs_may_be_loaded_then_parked_then_reloaded() {
        // `in[1]` starts in DRAM: load -> park -> load is the legitimate
        // capacity-pressure pattern, not a hazard.
        let mut g = TaskGraph::new();
        let first = load(&mut g, "in[1]");
        write(&mut g, Verb::Park, "in[1]", vec![first]);
        load(&mut g, "in[1]");
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn spill_never_reloaded_is_a_dead_store_warning() {
        let mut g = TaskGraph::new();
        write(&mut g, Verb::Spill, "acc1[3]", vec![]);
        let diagnostics = lint(&g);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::DEAD_STORE);
        assert_eq!(diagnostics[0].label.as_deref(), Some("spill acc1[3]"));
        assert_eq!(diagnostics[0].severity, rpu::Severity::Warning);
    }

    #[test]
    fn repeated_loads_without_a_write_are_flagged_once_with_a_count() {
        // One streamed evk tower, loaded by each of three kernels.
        let mut kernel = TaskGraph::new();
        load(&mut kernel, "evk[d0][t1]");
        let mut g = TaskGraph::new();
        for k in 0..3 {
            g.append_offset(&kernel, Some(k), |_| rpu::AppendAction::keep())
                .unwrap();
        }
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
        write(&mut g, Verb::Spill, "acc0[0]", vec![]);
        let reload = load(&mut g, "acc0[0]");
        write(&mut g, Verb::Park, "acc0[0]", vec![reload]);
        load(&mut g, "acc0[0]");
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn final_output_stores_are_not_dead_stores() {
        let mut g = TaskGraph::new();
        write(&mut g, Verb::Store, "out1[0]", vec![]);
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn unrecognized_labels_are_ignored() {
        // Custom buffer names are buffers like any other; one load and one
        // final store of distinct buffers carry no hazard.
        let mut g = TaskGraph::new();
        load(&mut g, "reload working set (ModUp-P1)");
        write(
            &mut g,
            Verb::Store,
            "writeback working set (ModUp-P1)",
            vec![],
        );
        assert!(lint(&g).is_empty());
    }

    #[test]
    fn a_kernel_like_prefix_is_part_of_the_buffer_name() {
        // `k7:x` is its own buffer, not kernel 7's copy of `x`: its spill is
        // never reloaded, while `x`'s is.
        let mut g = TaskGraph::new();
        let dead = write(&mut g, Verb::Spill, "k7:x", vec![]);
        write(&mut g, Verb::Spill, "x", vec![]);
        load(&mut g, "x");
        let diagnostics = lint(&g);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert_eq!(diagnostics[0].code, codes::DEAD_STORE);
        assert_eq!(diagnostics[0].tasks, vec![dead]);
        assert_eq!(diagnostics[0].label.as_deref(), Some("spill k7:x"));
    }
}
