//! Schedule generation: turning an HKS shape into an RPU task graph under one
//! of the three dataflows.
//!
//! Every generator uses the same crate-internal `ScheduleBuilder`, which
//! combines a [`TaskGraph`] under construction with one residency map of the
//! RPU's data memory, keyed by typed buffer names (`Buf`). The builder
//! decides, buffer by buffer, whether an intermediate stays resident (free
//! reuse) or must be spilled to DRAM and reloaded (extra memory tasks) —
//! exactly the trade-off the paper's dataflows manage differently.

mod digit_centric;
mod max_parallel;
mod output_centric;

use digit_centric::build_digit_centric;
use max_parallel::build_max_parallel;
use output_centric::build_output_centric;

use crate::dataflow::Dataflow;
use crate::hks_shape::{HksShape, HksStage};
use rpu::{ComputeKind, EvkPolicy, Label, TaskGraph, TaskId, Verb};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};

/// Memory-related knobs a schedule is generated against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Capacity of the on-chip vector data memory in bytes (32 MB in the
    /// paper's evaluation).
    pub data_memory_bytes: u64,
    /// Whether evks are preloaded on-chip or streamed from DRAM.
    pub evk_policy: EvkPolicy,
}

impl ScheduleConfig {
    /// The paper's standard configuration: 32 MB of data memory.
    pub fn with_data_memory(data_memory_bytes: u64, evk_policy: EvkPolicy) -> Self {
        Self {
            data_memory_bytes,
            evk_policy,
        }
    }
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        Self {
            data_memory_bytes: 32 * rpu::MIB,
            evk_policy: EvkPolicy::OnChip,
        }
    }
}

/// Summary of a generated schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Short name of the strategy that generated it (`"MP"`, `"DC"`, `"OC"`,
    /// or the [`ScheduleStrategy::short_name`](crate::api::ScheduleStrategy::short_name)
    /// of a custom strategy).
    pub strategy: String,
    /// The task graph to execute.
    pub graph: TaskGraph,
    /// Peak bytes of data memory the schedule keeps resident.
    pub peak_on_chip_bytes: u64,
    /// Bytes written to DRAM because an intermediate did not fit.
    pub spill_bytes: u64,
}

impl Schedule {
    /// Total DRAM traffic (loads + stores) in bytes.
    pub fn dram_bytes(&self) -> u64 {
        let (l, s) = self.graph.total_bytes();
        l + s
    }

    /// Total modular operations.
    pub fn total_ops(&self) -> u64 {
        self.graph.total_ops()
    }

    /// Arithmetic intensity in operations per DRAM byte (Table II metric).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.graph.arithmetic_intensity()
    }

    /// Derives the channel-aware buffer placement for this schedule: the
    /// channel hints the generators encode in their buffer names, turned
    /// into a concrete [`ChannelMap`](rpu::ChannelMap) for
    /// `num_channels` memory pseudo-channels.
    ///
    /// Evk towers hash over their own contiguous channel group, sized
    /// proportionally to the share of DRAM traffic they move (at least one
    /// channel, never all of them), and every other buffer — input limbs,
    /// outputs, spills — is hashed over the remaining channels. The shares
    /// are computed from this schedule's whole task graph, so for a stitched
    /// (possibly heterogeneous) pipeline the split reflects the *union* of
    /// every kernel's traffic — one consistent placement even when the
    /// evk-vs-limb ratio changes as a rescaling chain's ℓ decays. This keeps
    /// the channels load-balanced under both evk policies while guaranteeing
    /// that cross-kernel evk prefetch in a fused pipeline never queues
    /// behind the current kernel's limb traffic. With one channel (or no
    /// evk traffic to segregate) it degenerates to the plain name hash, so
    /// `N = 1` engines behave exactly like the historical single queue. The
    /// split is [`ChannelMap::evk_split`](rpu::ChannelMap::evk_split).
    ///
    /// ```
    /// use ciflow::{build_schedule, Dataflow, HksBenchmark, HksShape, ScheduleConfig};
    /// use rpu::EvkPolicy;
    ///
    /// let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
    /// let schedule = build_schedule(Dataflow::OutputCentric, &HksShape::new(HksBenchmark::ARK), &config);
    /// let map = schedule.channel_map(4);
    /// // Evk towers and input limbs land on disjoint channels.
    /// assert_ne!(map.channel_for("evk[d0][t1]"), map.channel_for("in[1]"));
    /// ```
    pub fn channel_map(&self, num_channels: usize) -> rpu::ChannelMap {
        rpu::ChannelMap::evk_split(num_channels, || self.evk_traffic())
    }

    /// The `(evk, total)` memory-traffic bytes [`Schedule::channel_map`]
    /// splits the channels by, with [`rpu::channel::is_evk`] the evk test.
    pub(crate) fn evk_traffic(&self) -> (u64, u64) {
        let mut evk_bytes = 0u64;
        let mut total_bytes = 0u64;
        for task in self.graph.tasks() {
            if task.is_memory() {
                total_bytes += task.bytes();
                if rpu::channel::is_evk(&task.label) {
                    evk_bytes += task.bytes();
                }
            }
        }
        (evk_bytes, total_bytes)
    }
}

/// Generates the schedule for a built-in dataflow with its generator (what
/// [`Dataflow`]'s [`ScheduleStrategy::build`](crate::api::ScheduleStrategy::build)
/// returns). For custom strategies call their `build` directly or run jobs
/// through a [`Session`](crate::api::Session).
pub fn build_schedule(dataflow: Dataflow, shape: &HksShape, config: &ScheduleConfig) -> Schedule {
    match dataflow {
        Dataflow::MaxParallel => build_max_parallel(shape, config),
        Dataflow::DigitCentric => build_digit_centric(shape, config),
        Dataflow::OutputCentric => build_output_centric(shape, config),
    }
}

/// A buffer the generators move, keyed by its role and indices. Its
/// [`Display`](fmt::Display) form is the buffer's name, the label of every
/// memory task that moves it (`in[3]`, `acc0[7]`): the key channel
/// placement hashes and the lints group by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Buf {
    /// Input tower `t`, in the evaluation domain.
    In(usize),
    /// ModUp INTT output of input tower `t`.
    Intt(usize),
    /// ModUp BConv output of digit `j`, extended tower `e`.
    Bconv(usize, usize),
    /// ModUp NTT output of digit `j`, extended tower `e`.
    Ext(usize, usize),
    /// Accumulator of output polynomial `p`, tower `t`.
    Acc(usize, usize),
    /// Partial product of digit `j`, tower `t` (both polynomials).
    Part(usize, usize),
    /// Running accumulator of polynomial `p`, auxiliary tower `i`.
    Pacc(usize, usize),
    /// ModDown INTT output of polynomial `p`, auxiliary tower `i`.
    MdIntt(usize, usize),
    /// ModDown BConv output of polynomial `p`, tower `t`.
    MdConv(usize, usize),
    /// ModDown NTT output of polynomial `p`, tower `t`.
    MdNtt(usize, usize),
    /// Final output polynomial `p`, tower `t`.
    Out(usize, usize),
    /// The evk tower pair of digit `j`, extended tower `t`.
    Evk(usize, usize),
}

impl fmt::Display for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Buf::In(t) => write!(f, "in[{t}]"),
            Buf::Intt(t) => write!(f, "intt[{t}]"),
            Buf::Bconv(j, e) => write!(f, "bconv[{j}][{e}]"),
            Buf::Ext(j, e) => write!(f, "ext[{j}][{e}]"),
            Buf::Acc(p, t) => write!(f, "acc{p}[{t}]"),
            Buf::Part(j, t) => write!(f, "part[{j}][{t}]"),
            Buf::Pacc(p, i) => write!(f, "pacc{p}[{i}]"),
            Buf::MdIntt(p, i) => write!(f, "mdintt{p}[{i}]"),
            Buf::MdConv(p, t) => write!(f, "mdconv{p}[{t}]"),
            Buf::MdNtt(p, t) => write!(f, "mdntt{p}[{t}]"),
            Buf::Out(p, t) => write!(f, "out{p}[{t}]"),
            Buf::Evk(j, t) => write!(f, "evk[d{j}][t{t}]"),
        }
    }
}

/// A multiplicative hasher for [`Buf`] keys. The residency map only holds
/// keys the builder makes itself, so SipHash's collision resistance buys
/// nothing there.
#[derive(Default)]
struct BufHasher(u64);

impl Hasher for BufHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Where a tracked buffer currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// On-chip; the contained task produced or loaded it.
    OnChip(TaskId),
    /// In DRAM; the contained task (if any) stored it there. `None` means the
    /// buffer is an original input that has never been on-chip.
    InDram(Option<TaskId>),
}

/// Shared machinery for the three schedule generators.
pub(crate) struct ScheduleBuilder<'a> {
    shape: &'a HksShape,
    config: &'a ScheduleConfig,
    graph: TaskGraph,
    /// Every live buffer with its size; the resident ones are those whose
    /// residence is [`Residence::OnChip`], and `used` is their byte sum.
    buffers: HashMap<Buf, (Residence, u64), BuildHasherDefault<BufHasher>>,
    used: u64,
    peak: u64,
    spill_bytes: u64,
    /// The nine stage names, shared by every task of their stage.
    stages: [Label; 9],
    /// Scratch space each task label is rendered into before it is interned.
    label: String,
}

impl<'a> ScheduleBuilder<'a> {
    pub(crate) fn new(shape: &'a HksShape, config: &'a ScheduleConfig) -> Self {
        Self {
            shape,
            config,
            graph: TaskGraph::new(),
            buffers: HashMap::default(),
            used: 0,
            peak: 0,
            spill_bytes: 0,
            stages: HksStage::all().map(|stage| Label::from(stage.label())),
            label: String::new(),
        }
    }

    pub(crate) fn shape(&self) -> &HksShape {
        self.shape
    }

    /// Registers an input buffer that starts in DRAM (e.g. the key-switch
    /// input polynomial towers).
    pub(crate) fn declare_dram_input(&mut self, buf: Buf, bytes: u64) {
        let previous = self.buffers.insert(buf, (Residence::InDram(None), bytes));
        assert!(
            !matches!(previous, Some((Residence::OnChip(_), _))),
            "{buf} re-declared in DRAM while resident"
        );
    }

    /// Returns a dependency on `buf` being available on-chip, emitting a
    /// DRAM load if necessary. The buffer becomes resident if it fits;
    /// otherwise it is treated as streamed (usable by the next task but not
    /// retained).
    ///
    /// # Panics
    ///
    /// Panics if the buffer was never declared or produced — that is a
    /// generator bug.
    pub(crate) fn acquire(&mut self, buf: Buf, stage: HksStage) -> TaskId {
        let (residence, bytes) = *self
            .buffers
            .get(&buf)
            .unwrap_or_else(|| panic!("buffer {buf} used before being declared or produced"));
        match residence {
            Residence::OnChip(task) => task,
            Residence::InDram(source) => {
                let deps = source.map(|t| vec![t]).unwrap_or_default();
                let load = self.push_memory(Verb::Load, buf, bytes, deps, stage);
                // Streamed through when it does not fit: it then remains in
                // DRAM for any later use.
                if self.try_allocate(bytes) {
                    self.buffers.insert(buf, (Residence::OnChip(load), bytes));
                }
                load
            }
        }
    }

    /// Emits a compute task.
    pub(crate) fn compute(
        &mut self,
        kind: ComputeKind,
        ops: u64,
        deps: Vec<TaskId>,
        label: fmt::Arguments<'_>,
        stage: HksStage,
    ) -> TaskId {
        let (label, stage) = self.intern(label, stage);
        self.graph.push_compute(kind, ops, deps, label, stage)
    }

    /// Registers a buffer produced by `task`. If it fits on-chip it stays
    /// resident; otherwise a spill store is emitted and the buffer lives in
    /// DRAM until re-acquired.
    pub(crate) fn produce(&mut self, buf: Buf, bytes: u64, task: TaskId, stage: HksStage) {
        let resident = match self.buffers.get(&buf) {
            Some(&(Residence::OnChip(_), held)) => {
                assert_eq!(held, bytes, "{buf} re-produced at a different size");
                true
            }
            _ => self.try_allocate(bytes),
        };
        let residence = if resident {
            Residence::OnChip(task)
        } else {
            let store = self.push_memory(Verb::Spill, buf, bytes, vec![task], stage);
            self.spill_bytes += bytes;
            Residence::InDram(Some(store))
        };
        self.buffers.insert(buf, (residence, bytes));
    }

    /// Releases a buffer whose value is no longer needed, freeing its
    /// on-chip space (no DRAM traffic).
    pub(crate) fn release(&mut self, buf: Buf) {
        if let Some((Residence::OnChip(_), bytes)) = self.buffers.remove(&buf) {
            self.used -= bytes;
        }
    }

    /// Evicts a *live* buffer from on-chip memory while preserving its value:
    /// if it is resident, a spill store is emitted and the buffer is marked
    /// as living in DRAM so a later [`ScheduleBuilder::acquire`] reloads it.
    /// No-op if the buffer is already in DRAM or unknown.
    pub(crate) fn park(&mut self, buf: Buf, stage: HksStage) {
        if let Some(&(Residence::OnChip(task), bytes)) = self.buffers.get(&buf) {
            let store = self.push_memory(Verb::Park, buf, bytes, vec![task], stage);
            self.spill_bytes += bytes;
            self.used -= bytes;
            self.buffers
                .insert(buf, (Residence::InDram(Some(store)), bytes));
        }
    }

    /// True if the buffer is currently resident on-chip.
    pub(crate) fn is_resident(&self, buf: Buf) -> bool {
        matches!(self.buffers.get(&buf), Some((Residence::OnChip(_), _)))
    }

    /// Emits the final store of tower `tower` of output polynomial `poly`
    /// to DRAM.
    pub(crate) fn store_output(
        &mut self,
        poly: usize,
        tower: usize,
        bytes: u64,
        dep: TaskId,
        stage: HksStage,
    ) -> TaskId {
        self.push_memory(Verb::Store, Buf::Out(poly, tower), bytes, vec![dep], stage)
    }

    /// Returns the dependencies required to have the evk towers for digit
    /// `digit`, extended tower index `tower` available. Under the on-chip
    /// policy this is free; under the streaming policy it emits a load of the
    /// `(b, a)` tower pair.
    pub(crate) fn acquire_evk(
        &mut self,
        digit: usize,
        tower: usize,
        stage: HksStage,
    ) -> Vec<TaskId> {
        match self.config.evk_policy {
            EvkPolicy::OnChip => Vec::new(),
            EvkPolicy::Streamed => {
                let bytes = self.shape.evk_tower_pair_bytes();
                vec![self.push_memory(Verb::Load, Buf::Evk(digit, tower), bytes, vec![], stage)]
            }
        }
    }

    /// Finishes the schedule.
    pub(crate) fn finish(self, strategy: impl Into<String>) -> Schedule {
        Schedule {
            strategy: strategy.into(),
            peak_on_chip_bytes: self.peak,
            spill_bytes: self.spill_bytes,
            graph: self.graph,
        }
    }

    /// Claims `bytes` of data memory if they fit, tracking the high-water
    /// mark.
    fn try_allocate(&mut self, bytes: u64) -> bool {
        if self.used + bytes > self.config.data_memory_bytes {
            return false;
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        true
    }

    /// Emits a memory task applying `verb` to `buf`, labelled by the
    /// buffer's name.
    fn push_memory(
        &mut self,
        verb: Verb,
        buf: Buf,
        bytes: u64,
        deps: Vec<TaskId>,
        stage: HksStage,
    ) -> TaskId {
        let (label, stage) = self.intern(format_args!("{buf}"), stage);
        self.graph.push_memory(verb, bytes, deps, label, stage)
    }

    /// Renders `label` into the scratch string and interns it (one
    /// allocation per label), next to the shared name of `stage`.
    fn intern(&mut self, label: fmt::Arguments<'_>, stage: HksStage) -> (Label, Label) {
        self.label.clear();
        self.label
            .write_fmt(label)
            .expect("formatting into a String cannot fail");
        let stage = Label::clone(&self.stages[stage as usize]);
        (Label::from(self.label.as_str()), stage)
    }
}

/// ModUp P2 of one digit (shared by the MP and DC generators): one BConv
/// scaling pass over digit `j`'s INTT outputs, then one slice per extension
/// tower, each producing `bconv[j][e]`.
pub(crate) fn emit_digit_bconv(b: &mut ScheduleBuilder<'_>, j: usize) {
    let shape = *b.shape();
    let alpha_j = shape.digit_width(j);
    let mut digit_deps = Vec::with_capacity(alpha_j);
    for t in shape.benchmark.digit_range(j) {
        digit_deps.push(b.acquire(Buf::Intt(t), HksStage::ModUpBconv));
    }
    let scale = b.compute(
        ComputeKind::BasisConversion,
        shape.bconv_scale_ops(alpha_j),
        digit_deps.clone(),
        format_args!("bconv scale digit {j}"),
        HksStage::ModUpBconv,
    );
    for e in 0..shape.beta(j) {
        let mut deps = digit_deps.clone();
        deps.push(scale);
        let slice = b.compute(
            ComputeKind::BasisConversion,
            shape.bconv_slice_ops(alpha_j),
            deps,
            format_args!("bconv d{j} ext{e}"),
            HksStage::ModUpBconv,
        );
        b.produce(
            Buf::Bconv(j, e),
            shape.tower_bytes(),
            slice,
            HksStage::ModUpBconv,
        );
    }
}

/// ModUp P3 of one digit (shared by the MP and DC generators): the NTT of
/// each of digit `j`'s `bconv[j][e]` towers, producing `ext[j][e]`.
pub(crate) fn emit_digit_ntt(b: &mut ScheduleBuilder<'_>, j: usize) {
    let shape = *b.shape();
    for e in 0..shape.beta(j) {
        let dep = b.acquire(Buf::Bconv(j, e), HksStage::ModUpNtt);
        let ntt = b.compute(
            ComputeKind::Ntt,
            shape.ntt_ops(),
            vec![dep],
            format_args!("ntt d{j} ext{e}"),
            HksStage::ModUpNtt,
        );
        b.release(Buf::Bconv(j, e));
        b.produce(Buf::Ext(j, e), shape.tower_bytes(), ntt, HksStage::ModUpNtt);
    }
}

/// ModUp P4 of one tower of a materialized extension (shared by the MP and
/// DC generators): tower `t` of digit `j`'s extended polynomial is the
/// bypassed input tower when `t` belongs to the digit and its next
/// `ext[j][e]` tower otherwise; [`apply_evk`] multiplies it with the evk.
pub(crate) fn emit_extended_apply_evk(b: &mut ScheduleBuilder<'_>, j: usize, t: usize) -> TaskId {
    let range = b.shape().benchmark.digit_range(j);
    let d_dep = if range.contains(&t) {
        b.acquire(Buf::In(t), HksStage::ModUpApplyKey)
    } else {
        // The extension skips the digit's own towers.
        let e = if t < range.start { t } else { t - range.len() };
        b.acquire(Buf::Ext(j, e), HksStage::ModUpApplyKey)
    };
    apply_evk(b, j, t, d_dep)
}

/// ModUp P4 (shared by all three generators): the point-wise product of
/// digit `j`'s tower `t`, ready at `d_dep`, with the digit's evk tower pair
/// (loaded first when evks are streamed).
pub(crate) fn apply_evk(b: &mut ScheduleBuilder<'_>, j: usize, t: usize, d_dep: TaskId) -> TaskId {
    let mut deps = vec![d_dep];
    deps.extend(b.acquire_evk(j, t, HksStage::ModUpApplyKey));
    let ops = 2 * b.shape().pointwise_ops();
    b.compute(
        ComputeKind::PointwiseMul,
        ops,
        deps,
        format_args!("apply evk d{j} t{t}"),
        HksStage::ModUpApplyKey,
    )
}

/// Emits the ModDown phase (shared by the MP and DC generators, which handle
/// it identically: stage by stage, one output polynomial at a time).
///
/// Expects buffers `acc0[t]` / `acc1[t]` (for `t` in `0..ℓ+K`, one tower per
/// output polynomial) to have been produced already. Emits the final output
/// stores.
pub(crate) fn emit_moddown_stagewise(b: &mut ScheduleBuilder<'_>) {
    let shape = *b.shape();
    let ell = shape.ell();
    let k = shape.k();
    let tower = shape.tower_bytes();

    for poly in 0..2usize {
        // P1: INTT of the K auxiliary towers of this polynomial.
        for i in 0..k {
            let name = Buf::Acc(poly, ell + i);
            let dep = b.acquire(name, HksStage::ModDownIntt);
            let intt = b.compute(
                ComputeKind::Intt,
                shape.ntt_ops(),
                vec![dep],
                format_args!("moddown intt c{poly} p-tower {i}"),
                HksStage::ModDownIntt,
            );
            b.release(name);
            b.produce(Buf::MdIntt(poly, i), tower, intt, HksStage::ModDownIntt);
        }

        // P2: BConv from P to the ℓ live towers.
        let mut scale_deps = Vec::with_capacity(k);
        for i in 0..k {
            scale_deps.push(b.acquire(Buf::MdIntt(poly, i), HksStage::ModDownBconv));
        }
        let scale = b.compute(
            ComputeKind::BasisConversion,
            shape.bconv_scale_ops(k),
            scale_deps.clone(),
            format_args!("moddown bconv scale c{poly}"),
            HksStage::ModDownBconv,
        );
        for t in 0..ell {
            let mut deps = scale_deps.clone();
            deps.push(scale);
            let slice = b.compute(
                ComputeKind::BasisConversion,
                shape.bconv_slice_ops(k),
                deps,
                format_args!("moddown bconv slice c{poly} {t}"),
                HksStage::ModDownBconv,
            );
            b.produce(Buf::MdConv(poly, t), tower, slice, HksStage::ModDownBconv);
        }

        // P3: NTT of the converted towers.
        for t in 0..ell {
            let dep = b.acquire(Buf::MdConv(poly, t), HksStage::ModDownNtt);
            let ntt = b.compute(
                ComputeKind::Ntt,
                shape.ntt_ops(),
                vec![dep],
                format_args!("moddown ntt c{poly} {t}"),
                HksStage::ModDownNtt,
            );
            b.release(Buf::MdConv(poly, t));
            b.produce(Buf::MdNtt(poly, t), tower, ntt, HksStage::ModDownNtt);
        }

        // P4: subtract, scale by P^{-1}, store the final outputs.
        for t in 0..ell {
            let acc_dep = b.acquire(Buf::Acc(poly, t), HksStage::ModDownCombine);
            let ntt_dep = b.acquire(Buf::MdNtt(poly, t), HksStage::ModDownCombine);
            let combine = b.compute(
                ComputeKind::ScalarMul,
                2 * shape.pointwise_ops(),
                vec![acc_dep, ntt_dep],
                format_args!("moddown combine c{poly} {t}"),
                HksStage::ModDownCombine,
            );
            b.release(Buf::Acc(poly, t));
            b.release(Buf::MdNtt(poly, t));
            b.store_output(poly, t, tower, combine, HksStage::ModDownCombine);
        }
        // Release this polynomial's ModDown scratch.
        for i in 0..k {
            b.release(Buf::MdIntt(poly, i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::HksBenchmark;

    fn labels(schedule: &Schedule) -> Vec<String> {
        let tasks = schedule.graph.tasks();
        tasks
            .iter()
            .map(|t| t.display_label().to_string())
            .collect()
    }

    #[test]
    fn builder_tracks_residency_spills_and_parks_on_a_tiny_memory() {
        let shape = HksShape::new(HksBenchmark::ARK);
        let config = ScheduleConfig::with_data_memory(100, EvkPolicy::OnChip);
        let mut b = ScheduleBuilder::new(&shape, &config);
        let s = HksStage::ModUpIntt;

        // An input is loaded once, then stays resident.
        b.declare_dram_input(Buf::In(0), 40);
        let load = b.acquire(Buf::In(0), s);
        assert_eq!(b.acquire(Buf::In(0), s), load);

        // The first product fits (80 of 100 bytes), the second spills.
        let intt = b.compute(ComputeKind::Intt, 1, vec![load], format_args!("intt"), s);
        b.produce(Buf::Intt(0), 40, intt, s);
        b.produce(Buf::Intt(1), 40, intt, s);
        assert!(b.is_resident(Buf::Intt(0)) && !b.is_resident(Buf::Intt(1)));

        // Releasing the input frees room for an accumulator, which is then
        // parked (a second park is a no-op) and reloaded.
        b.release(Buf::In(0));
        b.produce(Buf::Acc(0, 2), 40, intt, s);
        b.park(Buf::Acc(0, 2), HksStage::ModUpReduce);
        b.park(Buf::Acc(0, 2), s);
        let reload = b.acquire(Buf::Acc(0, 2), s);
        assert!(b.is_resident(Buf::Acc(0, 2)));

        // The spilled product no longer fits (80 + 40 > 100): every use
        // streams it through with a fresh load.
        assert_ne!(b.acquire(Buf::Intt(1), s), b.acquire(Buf::Intt(1), s));
        assert!(!b.is_resident(Buf::Intt(1)));

        // Releases return every byte: the whole memory fits one buffer.
        for buf in [Buf::Acc(0, 2), Buf::Intt(0), Buf::Intt(1)] {
            b.release(buf);
        }
        b.produce(Buf::Part(0, 0), 100, reload, s);
        assert!(b.is_resident(Buf::Part(0, 0)));
        b.store_output(1, 0, 40, reload, s);

        let schedule = b.finish("T");
        assert_eq!(
            labels(&schedule).join(", "),
            "load in[0], intt, spill intt[1], park acc0[2], load acc0[2], load intt[1], \
             load intt[1], store out1[0]"
        );
        let tasks = schedule.graph.tasks();
        assert_eq!(tasks[4].dependencies, [3], "the reload waits for the park");
        assert_eq!(tasks[5].dependencies, [2], "the reload waits for the spill");
        assert_eq!(&*tasks[3].stage, "ModUp-P5");
        assert_eq!(schedule.peak_on_chip_bytes, 100);
        assert_eq!(schedule.spill_bytes, 80);
    }

    #[test]
    fn buffer_names_keep_the_label_vocabulary() {
        use crate::workload::{chained_tower, ChainedTower};
        use rpu::AppendAction;
        let bufs = [
            Buf::In(3),
            Buf::Intt(3),
            Buf::Bconv(1, 2),
            Buf::Ext(1, 2),
            Buf::Acc(0, 7),
            Buf::Part(2, 5),
            Buf::Pacc(1, 4),
            Buf::MdIntt(1, 4),
            Buf::MdConv(0, 6),
            Buf::MdNtt(1, 6),
        ];
        // Nothing fits in zero bytes: every buffer is loaded, then spilled.
        let shape = HksShape::new(HksBenchmark::ARK);
        let config = ScheduleConfig::with_data_memory(0, EvkPolicy::Streamed);
        let mut b = ScheduleBuilder::new(&shape, &config);
        let stage = HksStage::ModUpApplyKey;
        for buf in bufs {
            b.declare_dram_input(buf, 8);
            let load = b.acquire(buf, stage);
            b.produce(buf, 8, load, stage);
        }
        let evk = b.acquire_evk(0, 1, stage)[0];
        b.store_output(1, 6, 8, evk, stage);
        let schedule = b.finish("T");
        let labels = labels(&schedule);
        assert_eq!(
            labels.join(" "),
            "load in[3] spill in[3] load intt[3] spill intt[3] load bconv[1][2] \
             spill bconv[1][2] load ext[1][2] spill ext[1][2] load acc0[7] spill acc0[7] \
             load part[2][5] spill part[2][5] load pacc1[4] spill pacc1[4] load mdintt1[4] \
             spill mdintt1[4] load mdconv0[6] spill mdconv0[6] load mdntt1[6] \
             spill mdntt1[6] load evk[d0][t1] store out1[6]"
        );

        // The fields behind the text, which placement, the lints and
        // workload fusion read: each task's verb and buffer name.
        let map = schedule.channel_map(4);
        let evk_channel = map.channel_for("evk[d0][t1]");
        let tasks = schedule.graph.tasks();
        for (pair, buf) in tasks.chunks(2).zip(bufs) {
            let name = buf.to_string();
            for (task, verb) in pair.iter().zip([Verb::Load, Verb::Spill]) {
                assert_eq!((task.verb(), &*task.label), (Some(verb), name.as_str()));
                assert_ne!(map.channel_for(&task.label), evk_channel, "{name}");
                let input = (buf == Buf::In(3) && verb == Verb::Load).then_some(3);
                assert_eq!(chained_tower(task), input.map(ChainedTower::Input));
            }
        }
        assert_eq!(&*tasks[20].label, "evk[d0][t1]");
        assert_eq!(chained_tower(&tasks[21]), Some(ChainedTower::Output(6)));

        // A stitched pipeline's kernel shows as a prefix; the labels are
        // shared with the kernel's own graph.
        let mut stitched = TaskGraph::new();
        stitched
            .append_offset(&schedule.graph, Some(12), |_| AppendAction::keep())
            .unwrap();
        for (task, label) in stitched.tasks().iter().zip(&labels) {
            assert_eq!(*task.display_label(), format!("k12:{label}"));
        }
    }

    #[test]
    fn all_dataflows_charge_identical_compute_work() {
        // "The number of operations per HKS benchmark is independent of
        // dataflow" (paper §IV-D).
        for bench in HksBenchmark::all() {
            let shape = HksShape::new(bench);
            let config = ScheduleConfig::default();
            let expected = shape.total_ops();
            for dataflow in Dataflow::all() {
                let schedule = build_schedule(dataflow, &shape, &config);
                assert_eq!(
                    schedule.total_ops(),
                    expected,
                    "{} {dataflow}: op count diverges from the shape model",
                    bench.name
                );
            }
        }
    }

    #[test]
    fn output_centric_moves_least_data() {
        // Table II ordering: OC < DC <= MP for every benchmark when evks are
        // streamed with 32 MB of data memory.
        let config = ScheduleConfig {
            data_memory_bytes: 32 * rpu::MIB,
            evk_policy: EvkPolicy::Streamed,
        };
        for bench in HksBenchmark::all() {
            let shape = HksShape::new(bench);
            let mp = build_schedule(Dataflow::MaxParallel, &shape, &config).dram_bytes();
            let dc = build_schedule(Dataflow::DigitCentric, &shape, &config).dram_bytes();
            let oc = build_schedule(Dataflow::OutputCentric, &shape, &config).dram_bytes();
            assert!(
                oc < dc,
                "{}: OC ({oc}) must move less than DC ({dc})",
                bench.name
            );
            assert!(
                dc <= mp,
                "{}: DC ({dc}) must move at most MP ({mp})",
                bench.name
            );
        }
    }

    #[test]
    fn schedules_execute_without_deadlock() {
        let config = ScheduleConfig {
            data_memory_bytes: 32 * rpu::MIB,
            evk_policy: EvkPolicy::Streamed,
        };
        let engine = rpu::RpuEngine::new(rpu::RpuConfig::ciflow_baseline());
        for bench in [HksBenchmark::ARK, HksBenchmark::DPRIVE] {
            let shape = HksShape::new(bench);
            for dataflow in Dataflow::all() {
                let schedule = build_schedule(dataflow, &shape, &config);
                let result = engine
                    .execute(&schedule.graph)
                    .expect("schedule must execute");
                assert!(result.stats.runtime_seconds > 0.0);
            }
        }
    }

    #[test]
    fn unlimited_memory_eliminates_spills() {
        // With effectively unlimited on-chip memory no dataflow spills, and
        // DRAM traffic reduces to input + output (+ evk when streamed).
        let config = ScheduleConfig {
            data_memory_bytes: u64::MAX / 4,
            evk_policy: EvkPolicy::Streamed,
        };
        let shape = HksShape::new(HksBenchmark::ARK);
        for dataflow in Dataflow::all() {
            let schedule = build_schedule(dataflow, &shape, &config);
            assert_eq!(schedule.spill_bytes, 0, "{dataflow}");
            let expected = shape.input_bytes() + shape.output_bytes() + shape.evk_bytes();
            assert_eq!(schedule.dram_bytes(), expected, "{dataflow}");
        }
    }

    #[test]
    fn channel_map_segregates_evk_traffic_proportionally() {
        let shape = HksShape::new(HksBenchmark::ARK);
        let streamed = build_schedule(
            Dataflow::OutputCentric,
            &shape,
            &ScheduleConfig {
                data_memory_bytes: 32 * rpu::MIB,
                evk_policy: EvkPolicy::Streamed,
            },
        );
        let map = streamed.channel_map(8);
        // Every evk tower lands in one contiguous group, all limb traffic in
        // the other, and both groups are non-empty.
        let evk_channels: std::collections::BTreeSet<usize> = (0..shape.dnum())
            .flat_map(|d| (0..4).map(move |t| (d, t)))
            .map(|(d, t)| map.channel_for(&format!("evk[d{d}][t{t}]")))
            .collect();
        let data_channels: std::collections::BTreeSet<usize> = (0..shape.ell())
            .map(|t| map.channel_for(&format!("in[{t}]")))
            .collect();
        assert!(evk_channels.is_disjoint(&data_channels));
        assert!(!evk_channels.is_empty() && !data_channels.is_empty());
        // Spill and output traffic stays off the evk group.
        for buffer in ["acc0[0]", "out1[0]"] {
            assert!(!evk_channels.contains(&map.channel_for(buffer)), "{buffer}");
        }

        // One channel, or no evk traffic to segregate: plain hashing.
        assert_eq!(streamed.channel_map(1), rpu::ChannelMap::hashed(1));
        let on_chip = build_schedule(Dataflow::OutputCentric, &shape, &ScheduleConfig::default());
        assert_eq!(on_chip.channel_map(8), rpu::ChannelMap::hashed(8));
    }

    #[test]
    fn on_chip_evk_policy_removes_key_traffic() {
        let shape = HksShape::new(HksBenchmark::ARK);
        let streamed = build_schedule(
            Dataflow::OutputCentric,
            &shape,
            &ScheduleConfig {
                data_memory_bytes: 32 * rpu::MIB,
                evk_policy: EvkPolicy::Streamed,
            },
        );
        let on_chip = build_schedule(
            Dataflow::OutputCentric,
            &shape,
            &ScheduleConfig {
                data_memory_bytes: 32 * rpu::MIB,
                evk_policy: EvkPolicy::OnChip,
            },
        );
        assert_eq!(
            streamed.dram_bytes() - on_chip.dram_bytes(),
            shape.evk_bytes(),
            "the traffic difference must be exactly the evk size"
        );
    }
}
