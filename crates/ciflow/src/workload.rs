//! Multi-kernel workload pipelines: chained HKS invocations fused into one
//! task graph.
//!
//! The paper evaluates single HKS kernels, but its headline argument — the
//! dataflow decides whether key switching is bandwidth- or compute-bound —
//! matters most in real CKKS programs where many key switches chain
//! back-to-back: rotation batches, relinearize+rescale sequences, the
//! key-switch backbone of bootstrapping. A [`Workload`] describes such a
//! sequence of kernel steps; [`build_workload`] turns it into a single fused
//! task graph by stitching per-kernel schedules together with
//! [`TaskGraph::append_offset`](rpu::TaskGraph::append_offset).
//!
//! Workloads may be **heterogeneous**: every step can carry its own
//! [`HksBenchmark`] parameter point (defaulting to the workload's), because
//! real CKKS programs *rescale* between kernels — each multiply-rescale level
//! drops one prime from the modulus chain, so the live tower count ℓ shrinks
//! as the chain progresses. The [`Workload::rescaling_chain`] preset derives
//! exactly that descending-ℓ ladder from a starting point, and
//! [`build_workload`] re-derives the chaining at *every* kernel boundary:
//! only the towers that survive into the consumer's (smaller) basis are
//! forwarded or loaded, the rest keep their ordinary output stores, and
//! forwarding eligibility plus the elided traffic are recomputed per boundary
//! instead of assuming one shared kernel template.
//!
//! Two pipeline modes are compared:
//!
//! * [`PipelineMode::BackToBack`] — the unfused baseline: every kernel waits
//!   for the previous kernel to fully drain (a barrier between kernels),
//!   which is what running each kernel as its own engine invocation would
//!   measure.
//! * [`PipelineMode::Fused`] — cross-kernel dependencies are expressed at
//!   buffer granularity, so the decoupled memory queue prefetches kernel
//!   *i+1*'s evk towers and input limbs under kernel *i*'s compute. When the
//!   chained ciphertext polynomial fits in the data memory, its DRAM
//!   round-trip (the producing kernel's output store and the consuming
//!   kernel's input load) is elided entirely: the value is forwarded
//!   on-chip.
//!
//! Fusion keys on the chained polynomial's transfers every
//! [`ScheduleBuilder`](crate::schedule)-based strategy emits: loads of the
//! buffers `in[t]` and stores of `out1[t]`. A custom strategy that does not
//! name its buffers that way still runs correctly — its kernels are chained
//! through a conservative barrier — it just forgoes the overlap.

use crate::api::ScheduleStrategy;
use crate::benchmark::HksBenchmark;
use crate::error::CiflowError;
use crate::hks_shape::HksShape;
use crate::schedule::{Schedule, ScheduleConfig};
use rpu::{AppendAction, Task, TaskGraph, TaskId, Verb};
use serde::Serialize;
use std::collections::HashMap;

/// One step of a workload: how many chained HKS invocations it expands to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum KernelStep {
    /// A single hybrid key switch.
    KeySwitch,
    /// A batch of `count` chained rotations — each rotation applies its
    /// Galois automorphism and key-switches the rotated polynomial (the
    /// dominant pattern in CKKS matrix-vector products and bootstrapping's
    /// CoeffToSlot/SlotToCoeff stages).
    RotationBatch {
        /// Number of rotations in the batch.
        count: usize,
    },
    /// A relinearization after a ciphertext-ciphertext multiply: one key
    /// switch of the quadratic component.
    Relinearize,
}

impl KernelStep {
    /// Number of HKS kernel invocations this step expands to.
    ///
    /// ```
    /// use ciflow::{HksBenchmark, KernelStep, Workload};
    /// let count = |step| Workload::new("w", HksBenchmark::ARK).step(step).hks_invocations();
    /// assert_eq!(count(KernelStep::KeySwitch), 1);
    /// assert_eq!(count(KernelStep::Relinearize), 1);
    /// assert_eq!(count(KernelStep::RotationBatch { count: 6 }), 6);
    /// ```
    fn hks_count(&self) -> usize {
        match self {
            KernelStep::KeySwitch | KernelStep::Relinearize => 1,
            KernelStep::RotationBatch { count } => *count,
        }
    }
}

/// One entry of a workload: a [`KernelStep`] plus the parameter point it runs
/// at (`None` means the workload's default benchmark).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WorkloadStep {
    /// What the step does.
    pub step: KernelStep,
    /// The step's own parameter point, or `None` to inherit the workload's.
    pub benchmark: Option<HksBenchmark>,
}

impl WorkloadStep {
    /// The parameter point this step runs at, given the workload default.
    fn benchmark_or(&self, default: HksBenchmark) -> HksBenchmark {
        self.benchmark.unwrap_or(default)
    }

    /// Number of HKS kernel invocations this step expands to.
    fn hks_count(&self) -> usize {
        self.step.hks_count()
    }
}

/// How the kernels of a workload are scheduled relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PipelineMode {
    /// Kernels are fused into one pipeline: cross-kernel dependencies at
    /// buffer granularity, memory-queue prefetch of the next kernel under the
    /// current kernel's compute, and on-chip forwarding of the chained
    /// polynomial when it fits.
    Fused,
    /// Kernels run back-to-back with a full barrier between them — the
    /// unfused baseline.
    BackToBack,
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineMode::Fused => write!(f, "fused"),
            PipelineMode::BackToBack => write!(f, "back-to-back"),
        }
    }
}

/// A named sequence of kernel steps, each at its own (or the default)
/// benchmark parameter point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Workload {
    /// Human-readable workload name (used in job labels and reports).
    pub name: String,
    /// The default Table III parameter point a step runs at unless it carries
    /// its own (see [`Workload::step_at`]).
    pub benchmark: HksBenchmark,
    steps: Vec<WorkloadStep>,
}

impl Workload {
    /// An empty workload; add steps with [`Workload::step`] or
    /// [`Workload::step_at`]. A workload with no kernel invocations is
    /// rejected by [`build_workload`] — every pipeline must contain at least
    /// one kernel.
    ///
    /// ```
    /// use ciflow::{HksBenchmark, KernelStep, Workload};
    /// let w = Workload::new("mvp-row", HksBenchmark::ARK)
    ///     .step(KernelStep::Relinearize)
    ///     .step(KernelStep::RotationBatch { count: 3 });
    /// assert_eq!(w.hks_invocations(), 4);
    /// assert_eq!(w.steps().len(), 2);
    /// ```
    pub fn new(name: impl Into<String>, benchmark: HksBenchmark) -> Self {
        Self {
            name: name.into(),
            benchmark,
            steps: Vec::new(),
        }
    }

    /// Appends one step at the workload's default parameter point (builder
    /// style; see [`Workload::new`] for an example).
    pub fn step(mut self, step: KernelStep) -> Self {
        self.steps.push(WorkloadStep {
            step,
            benchmark: None,
        });
        self
    }

    /// Appends one step at its own parameter point — how heterogeneous
    /// pipelines (e.g. rescaling chains, where ℓ shrinks between kernels)
    /// are described.
    ///
    /// ```
    /// use ciflow::{HksBenchmark, KernelStep, Workload};
    /// let w = Workload::new("square-then-rotate", HksBenchmark::ARK)
    ///     .step(KernelStep::Relinearize)
    ///     .step_at(
    ///         KernelStep::RotationBatch { count: 2 },
    ///         HksBenchmark::ARK.at_q_towers(23),
    ///     );
    /// assert_eq!(w.kernel_benchmarks().iter().map(|b| b.q_towers).collect::<Vec<_>>(),
    ///            vec![24, 23, 23]);
    /// ```
    pub fn step_at(mut self, step: KernelStep, benchmark: HksBenchmark) -> Self {
        self.steps.push(WorkloadStep {
            step,
            benchmark: Some(benchmark),
        });
        self
    }

    /// The steps in execution order.
    pub fn steps(&self) -> &[WorkloadStep] {
        &self.steps
    }

    /// Total number of HKS kernel invocations across all steps — one per
    /// key switch or relinearization and `count` per rotation batch, summed
    /// over [`Workload::steps`] — and the value reported back as
    /// [`JobOutput::kernels`](crate::api::JobOutput::kernels) after a run.
    pub fn hks_invocations(&self) -> usize {
        self.steps.iter().map(WorkloadStep::hks_count).sum()
    }

    /// The parameter point of every kernel invocation, in execution order
    /// (each step expanded by its kernel count). This is the
    /// per-kernel shape ladder reported back as
    /// [`JobOutput::kernel_benchmarks`](crate::api::JobOutput::kernel_benchmarks).
    pub fn kernel_benchmarks(&self) -> Vec<HksBenchmark> {
        self.steps
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.benchmark_or(self.benchmark), s.hks_count()))
            .collect()
    }

    /// Preset: a batch of `count` chained rotations.
    ///
    /// ```
    /// use ciflow::{HksBenchmark, Workload};
    /// let w = Workload::rotation_batch(HksBenchmark::ARK, 8);
    /// assert_eq!(w.hks_invocations(), 8);
    /// assert!(w.name.contains("rot8"));
    /// ```
    pub fn rotation_batch(benchmark: HksBenchmark, count: usize) -> Self {
        Self::new(format!("rot{count}-{}", benchmark.name), benchmark)
            .step(KernelStep::RotationBatch { count })
    }

    /// Preset: a multiply-relinearize-rotate inner loop (one relinearization
    /// followed by a small rotation batch), the body of an encrypted
    /// matrix-vector product.
    pub fn mul_rot_block(benchmark: HksBenchmark, rotations: usize) -> Self {
        Self::new(format!("mulrot{rotations}-{}", benchmark.name), benchmark)
            .step(KernelStep::Relinearize)
            .step(KernelStep::RotationBatch { count: rotations })
    }

    /// Preset: the key-switch backbone of one CKKS bootstrapping iteration —
    /// a CoeffToSlot rotation batch, the EvalMod relinearization, and a
    /// SlotToCoeff rotation batch, each batch followed by its own
    /// relinearization.
    pub fn bootstrap_key_switch(benchmark: HksBenchmark) -> Self {
        Self::new(format!("bts-ks-{}", benchmark.name), benchmark)
            .step(KernelStep::RotationBatch { count: 6 })
            .step(KernelStep::Relinearize)
            .step(KernelStep::RotationBatch { count: 6 })
            .step(KernelStep::Relinearize)
    }

    /// Preset: a chain of `levels` multiply-relinearize-rescale steps at
    /// descending ℓ — the whole-program shape of evaluating a degree-`levels`
    /// polynomial. Step `i` runs at
    /// [`at_q_towers(ℓ₀ − i)`](HksBenchmark::at_q_towers) of the starting
    /// point, so the working set shrinks one tower per level exactly as the
    /// modulus chain drains (clamped at ℓ = 1 for chains deeper than the
    /// starting level budget).
    ///
    /// ```
    /// use ciflow::{HksBenchmark, Workload};
    /// let w = Workload::rescaling_chain(HksBenchmark::ARK, 4);
    /// assert_eq!(w.kernel_benchmarks().iter().map(|b| b.q_towers).collect::<Vec<_>>(),
    ///            vec![24, 23, 22, 21]);
    /// ```
    pub fn rescaling_chain(benchmark: HksBenchmark, levels: usize) -> Self {
        let mut workload = Self::new(format!("rescale{levels}-{}", benchmark.name), benchmark);
        for i in 0..levels {
            let point = benchmark.at_q_towers(benchmark.q_towers.saturating_sub(i));
            workload = workload.step_at(KernelStep::Relinearize, point);
        }
        workload
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} x {} HKS)",
            self.name,
            self.benchmark.name,
            self.hks_invocations()
        )
    }
}

/// A fused (or deliberately unfused) multi-kernel schedule plus its pipeline
/// metadata.
///
/// The stitched [`schedule`](Self::schedule) carries the channel hints of
/// its per-kernel templates: task labels keep their buffer names, and each
/// task records its kernel in [`Task::kernel`], so
/// [`Schedule::channel_map`] places evk prefetch
/// and limb writebacks on disjoint memory channels for any channel count —
/// derived from the union of every step's traffic, since heterogeneous steps
/// contribute different evk-vs-limb shares.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSchedule {
    /// The stitched schedule: one task graph covering every kernel.
    pub schedule: Schedule,
    /// Number of HKS kernel invocations in the pipeline. Always equals the
    /// workload's [`Workload::hks_invocations`].
    pub kernels: usize,
    /// The parameter point of each kernel invocation, in execution order
    /// (always equals the workload's [`Workload::kernel_benchmarks`]).
    pub kernel_benchmarks: Vec<HksBenchmark>,
    /// The pipeline mode the graph was stitched under.
    pub mode: PipelineMode,
    /// Total DRAM traffic eliminated by on-chip forwarding, in bytes (0 when
    /// unfused or when no boundary's chained polynomial fits on-chip).
    /// Always the sum of [`boundary_forwarded_bytes`](Self::boundary_forwarded_bytes),
    /// and always equal to the sum of the per-kernel template traffic minus
    /// the stitched graph's total DRAM traffic.
    pub forwarded_bytes: u64,
    /// DRAM traffic eliminated at each kernel boundary (`kernels − 1`
    /// entries; entry `i` covers the boundary between kernel `i` and kernel
    /// `i+1`). At a rescaling boundary only the towers surviving into the
    /// consumer's smaller basis are forwarded, so entries shrink as ℓ decays.
    pub boundary_forwarded_bytes: Vec<u64>,
}

/// The dependencies one kernel exposes to its successor.
struct Boundary {
    /// Every sink of the kernel (for the back-to-back barrier).
    terminals: Vec<TaskId>,
    /// Per output tower: the tasks standing for `store out1[t]` (the store
    /// itself, or — when elided — the compute task producing the tower).
    forward: HashMap<usize, Vec<TaskId>>,
}

/// One kernel's schedule template plus the boundary structure derived from
/// it. Built once per distinct parameter point of the workload.
struct KernelTemplate {
    shape: HksShape,
    schedule: Schedule,
    /// The template graph's sinks.
    terminals: Vec<TaskId>,
    /// Per output tower: the template's `store out1[t]` task.
    forward_stores: HashMap<usize, TaskId>,
    /// Number of `load in[t]` tasks in the template.
    input_loads: usize,
}

impl KernelTemplate {
    fn build(
        benchmark: HksBenchmark,
        strategy: &dyn ScheduleStrategy,
        config: &ScheduleConfig,
    ) -> Result<Self, CiflowError> {
        let shape = HksShape::new(benchmark);
        let schedule = strategy.build(&shape, config)?;
        let terminals = schedule.graph.terminal_tasks();
        let mut forward_stores = HashMap::new();
        let mut input_loads = 0;
        for task in schedule.graph.tasks() {
            match chained_tower(task) {
                Some(ChainedTower::Output(tower)) => {
                    forward_stores.insert(tower, task.id);
                }
                Some(ChainedTower::Input(_)) => input_loads += 1,
                None => {}
            }
        }
        Ok(Self {
            shape,
            schedule,
            terminals,
            forward_stores,
            input_loads,
        })
    }

    /// Buffer-granular stitching needs loads of the `in[t]` input towers; a
    /// strategy without them chains through a conservative barrier instead.
    fn has_canonical_inputs(&self) -> bool {
        self.input_loads > 0
    }
}

/// A transfer of the polynomial a kernel chains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChainedTower {
    /// A load of input tower `in[t]`.
    Input(usize),
    /// A store of output tower `out1[t]`, the next kernel's input tower `t`.
    Output(usize),
}

/// The chained tower `task` moves, if it moves one: the one reader of the
/// `in[t]` loads and `out1[t]` stores that workload fusion and the boundary
/// lint share. The tower index is read out of the buffer name.
pub(crate) fn chained_tower(task: &Task) -> Option<ChainedTower> {
    let tower = |class: &str| -> Option<usize> {
        task.label
            .strip_prefix(class)?
            .strip_suffix(']')?
            .parse()
            .ok()
    };
    match task.verb()? {
        Verb::Load => tower("in[").map(ChainedTower::Input),
        Verb::Store => tower("out1[").map(ChainedTower::Output),
        Verb::Spill | Verb::Park => None,
    }
}

/// Decides whether the chained polynomial can be forwarded on-chip across
/// the boundary from `producer` to `consumer`.
///
/// On-chip forwarding requires the producer's per-tower `out1[t]` stores,
/// the consumer's `in[t]` loads, and a chained polynomial no
/// larger than half the data memory. Forwarding is capacity-neutral relative
/// to the per-kernel residency the tracker already accounts for: the
/// producing kernel pins each surviving `out1[t]` tower in the slots freed by
/// the very combine that releases `acc0[t]`/`acc1[t]`, and the consuming
/// kernel's working set charges `in[]` regardless of whether it arrives by
/// DRAM load or by forwarding. The half-capacity bound keeps the boundary
/// overlap (producer's ModDown tail running concurrently with the consumer's
/// ModUp ramp) within the configured memory — measured against the
/// *consumer's* input polynomial, which at a rescaling boundary is the
/// smaller of the two and exactly what stays resident.
///
/// Forwarding also requires exactly one load per consumer input tower: a
/// template with capacity-pressure *reloads* of `in[t]` re-reads data it
/// evicted mid-kernel, and under forwarding that DRAM copy would not exist —
/// such kernels chain through their stores instead. Finally, the consumer's
/// basis must be a prefix of the producer's output (`ℓ_c ≤ ℓ_p`, equal tower
/// sizes): a rescaling boundary drops trailing towers, it never invents new
/// ones, and towers of different ring degrees are not interchangeable.
fn forwarding_eligible(
    producer: &KernelTemplate,
    consumer: &KernelTemplate,
    config: &ScheduleConfig,
) -> bool {
    consumer.input_loads == consumer.shape.ell()
        && producer.forward_stores.len() == producer.shape.ell()
        && consumer.shape.ell() <= producer.shape.ell()
        && consumer.shape.tower_bytes() == producer.shape.tower_bytes()
        && 2 * consumer.shape.input_bytes() <= config.data_memory_bytes
}

/// Builds the pipeline schedule for a workload under one strategy.
///
/// Every kernel invocation uses the schedule the strategy generates for its
/// step's benchmark (the workload's default unless the step carries its
/// own); kernel *i+1*'s input is kernel *i*'s second output polynomial (the
/// key-switched component a rotation or relinearization chains on). In
/// [`PipelineMode::Fused`] mode the graphs are stitched at buffer
/// granularity, with chaining re-derived at every boundary — at a rescaling
/// boundary where the consumer runs at a smaller ℓ, only the surviving
/// towers are forwarded or chained, and the dropped towers keep their
/// ordinary output stores. In [`PipelineMode::BackToBack`] mode a barrier
/// separates consecutive kernels.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for a workload with zero kernel
/// invocations (no steps, or steps that expand to nothing such as
/// `RotationBatch { count: 0 }`), propagates the strategy's build error, and
/// reports [`CiflowError::Graph`] if stitching produces an inconsistent
/// graph (a fusion-layer bug).
///
/// # Invariant
///
/// The per-kernel schedules' DRAM traffic, summed over the kernels, is
/// exactly the stitched graph's traffic plus
/// [`forwarded_bytes`](WorkloadSchedule::forwarded_bytes): stitching
/// removes only the chained stores and input loads that forwarding splices
/// out, and counts each one's bytes in its boundary's entry.
pub fn build_workload(
    workload: &Workload,
    strategy: &dyn ScheduleStrategy,
    config: &ScheduleConfig,
    mode: PipelineMode,
) -> Result<WorkloadSchedule, CiflowError> {
    let kernel_benchmarks = workload.kernel_benchmarks();
    let kernels = kernel_benchmarks.len();
    if kernels == 0 {
        return Err(CiflowError::InvalidConfig {
            message: format!(
                "workload {:?} contains no kernel invocations",
                workload.name
            ),
        });
    }

    // One template per distinct parameter point (a homogeneous pipeline
    // builds exactly one, like the old single-template path).
    let mut templates: HashMap<HksBenchmark, KernelTemplate> = HashMap::new();
    for &benchmark in &kernel_benchmarks {
        if let std::collections::hash_map::Entry::Vacant(slot) = templates.entry(benchmark) {
            slot.insert(KernelTemplate::build(benchmark, strategy, config)?);
        }
    }
    let template_of = |i: usize| &templates[&kernel_benchmarks[i]];

    // Forwarding eligibility, re-derived per boundary: producer i, consumer
    // i+1.
    let forwarding_at: Vec<bool> = (0..kernels.saturating_sub(1))
        .map(|i| {
            mode == PipelineMode::Fused
                && forwarding_eligible(template_of(i), template_of(i + 1), config)
        })
        .collect();

    let mut graph = TaskGraph::new();
    let mut prev: Option<Boundary> = None;
    let mut boundary_forwarded_bytes = vec![0u64; kernels.saturating_sub(1)];
    for i in 0..kernels {
        let tpl = template_of(i);
        let kernel = (kernels > 1).then_some(i as u32);
        let inbound_forwarding = i > 0 && forwarding_at[i - 1];
        let outbound_forwarding = i + 1 < kernels && forwarding_at[i];
        // The towers that survive into the next kernel's (possibly smaller)
        // basis; everything above keeps its ordinary output store.
        let surviving = if outbound_forwarding {
            template_of(i + 1).shape.ell()
        } else {
            0
        };
        let canonical = tpl.has_canonical_inputs();
        // Bytes elided at this kernel's inbound/outbound boundary, counted
        // off the actual spliced tasks.
        let mut inbound_elided = 0u64;
        let mut outbound_elided = 0u64;
        let appended = graph
            .append_offset(&tpl.schedule.graph, kernel, |task| {
                let chained = chained_tower(task);
                if let Some(boundary) = &prev {
                    if mode == PipelineMode::BackToBack || !canonical {
                        if task.dependencies.is_empty() {
                            return AppendAction::Keep {
                                extra_deps: boundary.terminals.clone(),
                            };
                        }
                    } else if let Some(ChainedTower::Input(tower)) = chained {
                        // The chained input: forwarded on-chip, or loaded
                        // after the producing kernel's store, or (for
                        // producers without `out1[t]` stores) chained on its
                        // terminals.
                        let producers = boundary
                            .forward
                            .get(&tower)
                            .unwrap_or(&boundary.terminals)
                            .clone();
                        return if inbound_forwarding {
                            inbound_elided += task.bytes();
                            AppendAction::Splice {
                                extra_deps: producers,
                            }
                        } else {
                            AppendAction::Keep {
                                extra_deps: producers,
                            }
                        };
                    }
                }
                if let Some(ChainedTower::Output(t)) = chained {
                    if t < surviving {
                        // The chained polynomial never round-trips through
                        // DRAM: elide its store, consumers chain on its
                        // producer. Towers at or above `surviving` are
                        // dropped by the boundary rescale and store normally.
                        outbound_elided += task.bytes();
                        return AppendAction::Splice {
                            extra_deps: Vec::new(),
                        };
                    }
                }
                AppendAction::keep()
            })
            .map_err(CiflowError::Graph)?;
        if i > 0 {
            boundary_forwarded_bytes[i - 1] += inbound_elided;
        }
        if i + 1 < kernels {
            boundary_forwarded_bytes[i] += outbound_elided;
        }

        let terminals: Vec<TaskId> = {
            let mut ids: Vec<TaskId> = tpl
                .terminals
                .iter()
                .flat_map(|&old| appended.resolve(old).iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let forward = tpl
            .forward_stores
            .iter()
            .map(|(&tower, &old)| (tower, appended.resolve(old).to_vec()))
            .collect();
        prev = Some(Boundary { terminals, forward });
    }

    // Accumulated per boundary, never derived by one big subtraction: with
    // heterogeneous templates the per-kernel traffic varies, and
    // `kernels * template_bytes − actual` would underflow. The invariant
    // (see the function's docs) is asserted here in debug builds only; the
    // `workload_pipelines` suite holds it on every preset in release too.
    let forwarded_bytes: u64 = boundary_forwarded_bytes.iter().sum();
    let mut template_traffic = 0u64;
    let mut peak_on_chip_bytes = 0u64;
    let mut spill_bytes = 0u64;
    for &benchmark in &kernel_benchmarks {
        let tpl = &templates[&benchmark];
        let (loaded, stored) = tpl.schedule.graph.total_bytes();
        template_traffic += loaded + stored;
        // The pipeline's peak residency equals the largest per-kernel peak:
        // the forwarded polynomial reuses space both adjacent kernels already
        // account for (see `forwarding_eligible`), so it never pushes the
        // pipeline past the capacity any kernel schedule was generated
        // against.
        peak_on_chip_bytes = peak_on_chip_bytes.max(tpl.schedule.peak_on_chip_bytes);
        spill_bytes += tpl.schedule.spill_bytes;
    }
    let (loaded, stored) = graph.total_bytes();
    debug_assert_eq!(
        template_traffic,
        loaded + stored + forwarded_bytes,
        "per-boundary forwarding accounting diverged from the stitched graph"
    );

    let strategy_name = templates[&kernel_benchmarks[0]].schedule.strategy.clone();
    Ok(WorkloadSchedule {
        schedule: Schedule {
            strategy: strategy_name,
            graph,
            peak_on_chip_bytes,
            spill_bytes,
        },
        kernels,
        kernel_benchmarks,
        mode,
        forwarded_bytes,
        boundary_forwarded_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;
    use rpu::{EvkPolicy, RpuConfig, RpuEngine};

    fn config(evk_policy: EvkPolicy) -> ScheduleConfig {
        ScheduleConfig {
            data_memory_bytes: 32 * rpu::MIB,
            evk_policy,
        }
    }

    fn build(
        benchmark: HksBenchmark,
        dataflow: Dataflow,
        evk_policy: EvkPolicy,
        count: usize,
        mode: PipelineMode,
    ) -> WorkloadSchedule {
        build_workload(
            &Workload::rotation_batch(benchmark, count),
            &dataflow,
            &config(evk_policy),
            mode,
        )
        .unwrap()
    }

    #[test]
    fn workload_presets_count_their_kernels() {
        assert_eq!(
            Workload::rotation_batch(HksBenchmark::ARK, 8).hks_invocations(),
            8
        );
        assert_eq!(
            Workload::mul_rot_block(HksBenchmark::ARK, 3).hks_invocations(),
            4
        );
        assert_eq!(
            Workload::bootstrap_key_switch(HksBenchmark::DPRIVE).hks_invocations(),
            14
        );
        assert_eq!(
            Workload::rescaling_chain(HksBenchmark::ARK, 5).hks_invocations(),
            5
        );
        let display = Workload::rotation_batch(HksBenchmark::ARK, 8).to_string();
        assert!(
            display.contains("ARK") && display.contains('8'),
            "{display}"
        );
    }

    #[test]
    fn rescaling_chain_derives_a_descending_ladder() {
        let chain = Workload::rescaling_chain(HksBenchmark::DPRIVE, 4);
        let ells: Vec<usize> = chain
            .kernel_benchmarks()
            .iter()
            .map(|b| b.q_towers)
            .collect();
        assert_eq!(ells, vec![26, 25, 24, 23]);
        // A chain deeper than the level budget clamps at ℓ = 1 instead of
        // deriving a nonsensical zero-tower point.
        let deep = Workload::rescaling_chain(HksBenchmark::ARK, 30);
        let last = *deep.kernel_benchmarks().last().unwrap();
        assert_eq!(last.q_towers, 1);
        assert!(last.dnum >= 1);
    }

    #[test]
    fn empty_workload_is_rejected() {
        let err = build_workload(
            &Workload::new("empty", HksBenchmark::ARK),
            &Dataflow::OutputCentric,
            &config(EvkPolicy::OnChip),
            PipelineMode::Fused,
        )
        .unwrap_err();
        assert!(matches!(err, CiflowError::InvalidConfig { .. }));
        // A workload whose only step expands to zero kernels is just as
        // empty: no degenerate zero-task schedule may escape.
        let err = build_workload(
            &Workload::rotation_batch(HksBenchmark::ARK, 0),
            &Dataflow::OutputCentric,
            &config(EvkPolicy::OnChip),
            PipelineMode::BackToBack,
        )
        .unwrap_err();
        assert!(matches!(err, CiflowError::InvalidConfig { .. }));
    }

    #[test]
    fn pipelines_conserve_compute_work() {
        // Fusion rearranges memory traffic, never the modular operations.
        let shape = HksShape::new(HksBenchmark::ARK);
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            for dataflow in Dataflow::all() {
                let ws = build(HksBenchmark::ARK, dataflow, EvkPolicy::Streamed, 5, mode);
                assert_eq!(ws.kernels, 5);
                assert_eq!(ws.schedule.total_ops(), 5 * shape.total_ops(), "{dataflow}");
            }
        }
    }

    #[test]
    fn heterogeneous_pipelines_conserve_per_kernel_compute_work() {
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 4);
        let expected: u64 = chain
            .kernel_benchmarks()
            .iter()
            .map(|&b| HksShape::new(b).total_ops())
            .sum();
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            for dataflow in Dataflow::all() {
                let ws =
                    build_workload(&chain, &dataflow, &config(EvkPolicy::Streamed), mode).unwrap();
                assert_eq!(ws.schedule.total_ops(), expected, "{dataflow} {mode}");
                assert_eq!(ws.kernel_benchmarks, chain.kernel_benchmarks());
            }
        }
    }

    #[test]
    fn fused_pipelines_move_no_more_data_than_unfused() {
        for benchmark in HksBenchmark::all() {
            for dataflow in Dataflow::all() {
                let fused = build(
                    benchmark,
                    dataflow,
                    EvkPolicy::Streamed,
                    4,
                    PipelineMode::Fused,
                );
                let unfused = build(
                    benchmark,
                    dataflow,
                    EvkPolicy::Streamed,
                    4,
                    PipelineMode::BackToBack,
                );
                assert!(
                    fused.schedule.dram_bytes() <= unfused.schedule.dram_bytes(),
                    "{} {dataflow}",
                    benchmark.name
                );
                assert_eq!(unfused.forwarded_bytes, 0);
                assert!(unfused.boundary_forwarded_bytes.iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn forwarding_elides_the_boundary_round_trip_when_it_fits() {
        // ARK's chained polynomial (12 MiB) fits in half the 32 MiB data
        // memory: each of the 3 interior boundaries of a 4-kernel pipeline
        // saves one store plus one load of the polynomial.
        let shape = HksShape::new(HksBenchmark::ARK);
        let fused = build(
            HksBenchmark::ARK,
            Dataflow::OutputCentric,
            EvkPolicy::OnChip,
            4,
            PipelineMode::Fused,
        );
        assert_eq!(fused.forwarded_bytes, 3 * 2 * shape.input_bytes());
        assert_eq!(
            fused.boundary_forwarded_bytes,
            vec![2 * shape.input_bytes(); 3]
        );
        // BTS3's polynomial (45 MiB) cannot stay resident: nothing forwarded,
        // but the stitched dependencies still chain the kernels.
        let bts3 = build(
            HksBenchmark::BTS3,
            Dataflow::OutputCentric,
            EvkPolicy::OnChip,
            4,
            PipelineMode::Fused,
        );
        assert_eq!(bts3.forwarded_bytes, 0);
    }

    #[test]
    fn rescaling_boundary_forwards_only_the_surviving_towers() {
        // At the boundary from ℓ_p to ℓ_c < ℓ_p, the consumer chains on (and
        // the fused pipeline elides) exactly its own ℓ_c input towers; the
        // producer's dropped towers keep their output stores.
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
        let fused = build_workload(
            &chain,
            &Dataflow::OutputCentric,
            &config(EvkPolicy::OnChip),
            PipelineMode::Fused,
        )
        .unwrap();
        let ells: Vec<u64> = chain
            .kernel_benchmarks()
            .iter()
            .map(|b| b.q_towers as u64)
            .collect();
        let tower = HksBenchmark::ARK.tower_bytes();
        // Boundary i elides one store + one load of the consumer's ℓ towers.
        assert_eq!(
            fused.boundary_forwarded_bytes,
            vec![2 * ells[1] * tower, 2 * ells[2] * tower]
        );
        assert_eq!(
            fused.forwarded_bytes,
            fused.boundary_forwarded_bytes.iter().sum::<u64>()
        );
        // The traffic invariant against the unfused baseline.
        let unfused = build_workload(
            &chain,
            &Dataflow::OutputCentric,
            &config(EvkPolicy::OnChip),
            PipelineMode::BackToBack,
        )
        .unwrap();
        assert_eq!(
            fused.schedule.dram_bytes() + fused.forwarded_bytes,
            unfused.schedule.dram_bytes()
        );
    }

    #[test]
    fn heterogeneous_back_to_back_does_not_underflow_forwarding_accounting() {
        // Regression: the old accounting was a single unsigned subtraction
        // `kernels * template_bytes − actual`, which underflowed (panicking
        // in debug, absurd numbers in release) as soon as per-kernel traffic
        // varied. An ascending chain makes every kernel's traffic differ.
        let ascending = Workload::new("ascend", HksBenchmark::ARK.at_q_towers(20))
            .step_at(KernelStep::KeySwitch, HksBenchmark::ARK.at_q_towers(20))
            .step_at(KernelStep::KeySwitch, HksBenchmark::ARK.at_q_towers(22))
            .step_at(KernelStep::KeySwitch, HksBenchmark::ARK);
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            let ws = build_workload(
                &ascending,
                &Dataflow::OutputCentric,
                &config(EvkPolicy::Streamed),
                mode,
            )
            .unwrap();
            // An ascending boundary cannot forward (the consumer needs towers
            // the producer never had), so both modes move identical data.
            assert_eq!(ws.forwarded_bytes, 0, "{mode}");
        }
    }

    #[test]
    fn forwarding_is_refused_when_the_template_reloads_its_input() {
        // Regression: at a capacity just over 2x the input (forwarding
        // nominally eligible), the OC generator runs in tight mode and
        // re-loads evicted `in[t]` towers mid-kernel. Splicing those reloads
        // would elide traffic the schedule's own tracker requires, so
        // forwarding must be refused; the fused pipeline still chains through
        // its boundary stores and moves exactly as much data as back-to-back.
        let shape = HksShape::new(HksBenchmark::ARK);
        let tight = ScheduleConfig {
            data_memory_bytes: 2 * shape.input_bytes() + shape.tower_bytes(),
            evk_policy: EvkPolicy::OnChip,
        };
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 3);
        let fused = build_workload(
            &workload,
            &Dataflow::OutputCentric,
            &tight,
            PipelineMode::Fused,
        )
        .unwrap();
        assert_eq!(fused.forwarded_bytes, 0);
        let unfused = build_workload(
            &workload,
            &Dataflow::OutputCentric,
            &tight,
            PipelineMode::BackToBack,
        )
        .unwrap();
        assert_eq!(fused.schedule.dram_bytes(), unfused.schedule.dram_bytes());
    }

    #[test]
    fn pipeline_peak_residency_never_exceeds_the_data_memory() {
        // Regression: forwarding must not claim more on-chip residency than
        // the capacity the kernel schedules were generated against.
        for benchmark in HksBenchmark::all() {
            for dataflow in Dataflow::all() {
                for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
                    let ws = build(benchmark, dataflow, EvkPolicy::OnChip, 4, mode);
                    assert!(
                        ws.schedule.peak_on_chip_bytes <= 32 * rpu::MIB,
                        "{} {dataflow} {mode}: peak {} MiB exceeds the 32 MiB data memory",
                        benchmark.name,
                        ws.schedule.peak_on_chip_bytes / rpu::MIB
                    );
                }
            }
        }
    }

    #[test]
    fn pipelines_execute_without_deadlock_under_every_strategy() {
        let engine = RpuEngine::new(RpuConfig::ciflow_baseline().with_bandwidth(12.8));
        for benchmark in [HksBenchmark::ARK, HksBenchmark::BTS3] {
            for dataflow in Dataflow::all() {
                for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
                    let ws = build(benchmark, dataflow, EvkPolicy::Streamed, 3, mode);
                    // The stitched graph must satisfy the same invariants as a
                    // generated one.
                    rpu::TaskGraph::from_tasks(ws.schedule.graph.tasks().to_vec()).unwrap();
                    let result = engine.execute(&ws.schedule.graph).unwrap();
                    assert!(result.stats.runtime_seconds > 0.0);
                }
            }
        }
    }

    #[test]
    fn rescaling_chains_execute_under_every_strategy() {
        let engine = RpuEngine::new(RpuConfig::ciflow_baseline().with_bandwidth(12.8));
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 4);
        for dataflow in Dataflow::all() {
            for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
                let ws =
                    build_workload(&chain, &dataflow, &config(EvkPolicy::Streamed), mode).unwrap();
                rpu::TaskGraph::from_tasks(ws.schedule.graph.tasks().to_vec()).unwrap();
                let result = engine.execute(&ws.schedule.graph).unwrap();
                assert!(result.stats.runtime_seconds > 0.0, "{dataflow} {mode}");
            }
        }
    }

    #[test]
    fn fused_pipeline_beats_back_to_back() {
        // The acceptance claim: at DDR4-class bandwidth, OC pipelines on ARK
        // and DPRIVE run faster fused than back-to-back, with a lower
        // compute-idle fraction.
        for benchmark in [HksBenchmark::ARK, HksBenchmark::DPRIVE] {
            for evk_policy in [EvkPolicy::OnChip, EvkPolicy::Streamed] {
                let engine =
                    RpuEngine::new(RpuConfig::ciflow_with_policy(evk_policy).with_bandwidth(12.8));
                let fused = build(
                    benchmark,
                    Dataflow::OutputCentric,
                    evk_policy,
                    8,
                    PipelineMode::Fused,
                );
                let unfused = build(
                    benchmark,
                    Dataflow::OutputCentric,
                    evk_policy,
                    8,
                    PipelineMode::BackToBack,
                );
                let fused_stats = engine.execute(&fused.schedule.graph).unwrap().stats;
                let unfused_stats = engine.execute(&unfused.schedule.graph).unwrap().stats;
                assert!(
                    fused_stats.runtime_ms() < unfused_stats.runtime_ms(),
                    "{} {evk_policy}: fused {:.2} ms vs unfused {:.2} ms",
                    benchmark.name,
                    fused_stats.runtime_ms(),
                    unfused_stats.runtime_ms()
                );
                assert!(
                    fused_stats.compute_idle_fraction() < unfused_stats.compute_idle_fraction(),
                    "{} {evk_policy}: fused idle {:.3} vs unfused idle {:.3}",
                    benchmark.name,
                    fused_stats.compute_idle_fraction(),
                    unfused_stats.compute_idle_fraction()
                );
            }
        }
    }

    #[test]
    fn back_to_back_matches_separate_kernel_executions() {
        // The unfused pipeline is the honest baseline: its runtime must match
        // the sum of independent per-kernel runs to within rounding.
        let engine = RpuEngine::new(RpuConfig::ciflow_baseline().with_bandwidth(12.8));
        let single = Dataflow::OutputCentric
            .build(
                &HksShape::new(HksBenchmark::ARK),
                &config(EvkPolicy::OnChip),
            )
            .unwrap();
        let single_ms = engine.execute(&single.graph).unwrap().stats.runtime_ms();
        let unfused = build(
            HksBenchmark::ARK,
            Dataflow::OutputCentric,
            EvkPolicy::OnChip,
            6,
            PipelineMode::BackToBack,
        );
        let pipeline_ms = engine
            .execute(&unfused.schedule.graph)
            .unwrap()
            .stats
            .runtime_ms();
        let ratio = pipeline_ms / (6.0 * single_ms);
        assert!(
            (0.99..=1.01).contains(&ratio),
            "pipeline {pipeline_ms:.3} ms vs 6 x {single_ms:.3} ms (ratio {ratio:.4})"
        );
    }

    #[test]
    fn heterogeneous_back_to_back_matches_separate_kernel_executions() {
        // Same honesty check for a rescaling chain: the barriered pipeline
        // must cost the sum of its (different-sized) kernels.
        let engine = RpuEngine::new(RpuConfig::ciflow_baseline().with_bandwidth(12.8));
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
        let sum_ms: f64 = chain
            .kernel_benchmarks()
            .iter()
            .map(|&b| {
                let schedule = Dataflow::OutputCentric
                    .build(&HksShape::new(b), &config(EvkPolicy::OnChip))
                    .unwrap();
                engine.execute(&schedule.graph).unwrap().stats.runtime_ms()
            })
            .sum();
        let unfused = build_workload(
            &chain,
            &Dataflow::OutputCentric,
            &config(EvkPolicy::OnChip),
            PipelineMode::BackToBack,
        )
        .unwrap();
        let pipeline_ms = engine
            .execute(&unfused.schedule.graph)
            .unwrap()
            .stats
            .runtime_ms();
        let ratio = pipeline_ms / sum_ms;
        assert!(
            (0.99..=1.01).contains(&ratio),
            "pipeline {pipeline_ms:.3} ms vs sum {sum_ms:.3} ms (ratio {ratio:.4})"
        );
    }
}
