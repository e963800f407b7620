//! The virtual-clock event simulation behind
//! [`try_serve_in`](super::try_serve_in) and
//! [`try_fault_serve_in`](super::try_fault_serve_in).
//!
//! The simulation advances a virtual clock (f64 seconds) through four event
//! kinds — device completions, device fault transitions (crash/restore),
//! retry releases, and request arrivals — and never consults wall time, so
//! a run is a pure function of `(ServeConfig, FaultPlan, strategy)`.
//! Service times come from the engine: one stats-only execution per
//! distinct request class (the session schedule cache means each class's
//! schedule is built once), and every request of a class takes exactly that
//! long, because the cluster's devices are identical and the engine is
//! deterministic. Degradation windows substitute timeline-derived service
//! times at the dispatch instant.
//!
//! Event ordering is fully specified so runs are bit-reproducible: the next
//! event is the earliest by time, with ties broken by kind — completions
//! first, then fault transitions (by device index), then retry releases,
//! then arrivals. Simultaneous completions order by device index, then
//! issue id. The fault-free path is this same loop with an empty
//! [`FaultPlan`]; it performs exactly the same arithmetic in exactly the
//! same order as it did before faults existed, which is what makes the
//! zero-fault replay bit-exact.

use super::arrival::ArrivalStream;
use super::config::ServeConfig;
use super::dispatch::DispatchPolicy;
use super::fault::{AdmissionPolicy, CrashPlan, FaultPlan, ServiceTable};
use super::report::{
    percentile, ClassUsage, DeviceUsage, LatencySummary, QueueSummary, RequestRecord, ServeReport,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Stream salts for the dedicated fault RNGs, xor-folded with the run seed
/// so fault draws never perturb the arrival stream (zero-fault purity) and
/// each device's crash process is independent of the others.
const CRASH_STREAM_SALT: u64 = 0x9D5C_B761_1FC8_42A7;
const TRANSIENT_STREAM_SALT: u64 = 0x51AF_0296_63B5_D10F;
const DEVICE_STREAM_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A scheduled completion event. Ordered for a max-heap of `Reverse`d
/// entries: earliest time first, ties broken by device index then issue
/// id. The epoch, failure flag and service time ride along without
/// affecting the order.
struct Completion {
    time: f64,
    device: usize,
    id: usize,
    /// The owning device's epoch at dispatch; a crash bumps the device
    /// epoch, turning this entry stale (lazily purged at the heap top).
    epoch: u64,
    /// Whether this attempt fails transiently at completion.
    failed: bool,
    /// The attempt's service time (wasted in full if `failed`).
    service: f64,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Completion {}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.device.cmp(&other.device))
            .then(self.id.cmp(&other.id))
    }
}

/// A retry whose backoff expires at `time`; ordered like completions.
struct RetryEntry {
    time: f64,
    id: usize,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RetryEntry {}

impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.id.cmp(&other.id))
    }
}

/// The attempt a device is currently executing.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: usize,
    dispatched_at: f64,
    completes_at: f64,
}

/// One device's simulation state.
#[derive(Debug, Clone)]
struct Device {
    busy: bool,
    /// Whether the device is up (crashed devices are never dispatched to).
    up: bool,
    busy_seconds: f64,
    served: usize,
    /// Class of the most recently *dispatched* request (the affinity key).
    /// A crash clears it: the replacement device comes up cold.
    last_class: Option<usize>,
    /// Bumped on every crash; completions from older epochs are stale.
    epoch: u64,
    crashes: usize,
    down_seconds: f64,
    down_since: f64,
    in_flight: Option<InFlight>,
}

/// A queued (arrived or re-queued, not yet dispatched) request.
struct Pending {
    id: usize,
    class: usize,
    arrival: f64,
}

/// Per-request bookkeeping beyond the public [`RequestRecord`].
struct ReqState {
    arrival: f64,
    /// Dispatch attempts consumed so far.
    attempts: usize,
    /// Whether admission downgraded the request to the fallback class.
    downgraded: bool,
    /// Absolute deadline (arrival + plan deadline), when timeouts are on.
    deadline: Option<f64>,
}

/// Final disposition of an accepted request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    Completed,
    TimedOut,
}

/// The crash/restore schedule of one device, advanced lazily as its
/// transitions are processed.
struct DeviceFaults {
    kind: FaultKind,
    /// The next transition, if any: `(time, what)`.
    next: Option<(f64, Transition)>,
}

enum FaultKind {
    Quiet,
    /// Sorted, non-overlapping `(crash, restore)` windows.
    Scripted {
        windows: Vec<(f64, f64)>,
        index: usize,
    },
    /// Exponential up/down times drawn from a per-device stream.
    Sampled {
        rng: SmallRng,
        mtbf_seconds: f64,
        mttr_seconds: f64,
    },
}

impl DeviceFaults {
    fn quiet() -> Self {
        Self {
            kind: FaultKind::Quiet,
            next: None,
        }
    }

    fn scripted(mut windows: Vec<(f64, f64)>) -> Self {
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let next = windows.first().map(|w| (w.0, Transition::Crash));
        Self {
            kind: FaultKind::Scripted { windows, index: 0 },
            next,
        }
    }

    fn sampled(seed: u64, mtbf_seconds: f64, mttr_seconds: f64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let first = exp_draw(&mut rng, mtbf_seconds);
        Self {
            kind: FaultKind::Sampled {
                rng,
                mtbf_seconds,
                mttr_seconds,
            },
            next: Some((first, Transition::Crash)),
        }
    }

    /// Advances past the transition just processed at `now`.
    fn advance(&mut self, now: f64, processed: Transition) {
        match (&mut self.kind, processed) {
            (FaultKind::Quiet, _) => self.next = None,
            (FaultKind::Scripted { windows, index }, Transition::Crash) => {
                self.next = Some((windows[*index].1, Transition::Restore));
            }
            (FaultKind::Scripted { windows, index }, Transition::Restore) => {
                *index += 1;
                self.next = windows.get(*index).map(|w| (w.0, Transition::Crash));
            }
            (
                FaultKind::Sampled {
                    rng, mttr_seconds, ..
                },
                Transition::Crash,
            ) => {
                self.next = Some((now + exp_draw(rng, *mttr_seconds), Transition::Restore));
            }
            (
                FaultKind::Sampled {
                    rng, mtbf_seconds, ..
                },
                Transition::Restore,
            ) => {
                self.next = Some((now + exp_draw(rng, *mtbf_seconds), Transition::Crash));
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Transition {
    Crash,
    Restore,
}

/// Inverse-CDF exponential draw with the given mean. `gen_range` yields
/// u in [0, 1), so `1 - u` is in (0, 1] and the log is finite.
fn exp_draw(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() * mean
}

/// What the event loop processes next. Priority on time ties:
/// completions < faults < retries < arrivals.
enum Event {
    Completion,
    Fault(usize),
    Retry,
    Arrival,
}

/// Counters a faulted run accumulates on top of the [`SimOutcome`].
pub(crate) struct FaultCounters {
    pub(crate) offered: usize,
    pub(crate) timed_out: usize,
    pub(crate) shed: usize,
    pub(crate) degraded: usize,
    pub(crate) late: usize,
    /// Completions that were on time and at full fidelity.
    pub(crate) useful: usize,
    pub(crate) retries: usize,
    pub(crate) transient_failures: usize,
    pub(crate) crash_losses: usize,
    pub(crate) wasted_seconds: f64,
    pub(crate) device_faults: Vec<DeviceFaultStats>,
}

/// Crash/down-time tally of one device.
pub(crate) struct DeviceFaultStats {
    pub(crate) crashes: usize,
    pub(crate) down_seconds: f64,
}

/// Runs the fault-free event simulation: the faulted loop under an empty
/// plan. `service_seconds[class]` is the deterministic per-request service
/// time of each class; the caller (`try_serve_in`) has already validated
/// the configuration and measured the classes.
pub(crate) fn simulate(config: &ServeConfig, service_seconds: &[f64]) -> SimOutcome {
    let plan = FaultPlan::none();
    let services = ServiceTable::base_only(service_seconds);
    simulate_resilient(config, &plan, &services).0
}

/// Runs the faulted event simulation. The returned [`SimOutcome`] holds the
/// records of *completed* requests only (in issue order; ids are sparse
/// when requests timed out); the [`FaultCounters`] hold the resilience
/// ledger. With an empty plan this is bit-identical to the historical
/// fault-free simulator.
pub(crate) fn simulate_resilient(
    config: &ServeConfig,
    plan: &FaultPlan,
    services: &ServiceTable,
) -> (SimOutcome, FaultCounters) {
    let num_devices = config.cluster.num_devices;
    let mut devices = vec![
        Device {
            busy: false,
            up: true,
            busy_seconds: 0.0,
            served: 0,
            last_class: None,
            epoch: 0,
            crashes: 0,
            down_seconds: 0.0,
            down_since: 0.0,
            in_flight: None,
        };
        num_devices
    ];
    let mut faults = build_device_faults(config, plan);
    let has_faults = faults.iter().any(|f| f.next.is_some());
    let mut failure_rng = SmallRng::seed_from_u64(config.seed ^ TRANSIENT_STREAM_SALT);
    let transient_rate = plan.transient_failure_rate;

    let mut arrivals = ArrivalStream::new(
        config.arrival,
        &config
            .classes
            .iter()
            .map(|c| c.weight)
            .collect::<Vec<f64>>(),
        rand::SeedableRng::seed_from_u64(config.seed),
    );
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let mut running: BinaryHeap<std::cmp::Reverse<Completion>> = BinaryHeap::new();
    let mut retries: BinaryHeap<std::cmp::Reverse<RetryEntry>> = BinaryHeap::new();
    let mut records: Vec<RequestRecord> = Vec::with_capacity(config.arrival.requests());
    let mut states: Vec<ReqState> = Vec::with_capacity(config.arrival.requests());
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(config.arrival.requests());

    let mut clock = 0.0f64;
    let mut queue_area = 0.0f64;
    let mut max_depth = 0usize;
    let mut counters = FaultCounters {
        offered: 0,
        timed_out: 0,
        shed: 0,
        degraded: 0,
        late: 0,
        useful: 0,
        retries: 0,
        transient_failures: 0,
        crash_losses: 0,
        wasted_seconds: 0.0,
        device_faults: Vec::new(),
    };

    loop {
        // Attempts lost to a crash leave stale heap entries behind; purge
        // them lazily so the earliest live completion is at the top.
        while let Some(head) = running.peek() {
            if head.0.epoch != devices[head.0.device].epoch {
                running.pop();
            } else {
                break;
            }
        }

        // The run is over when no request can still make progress. Fault
        // transitions scheduled beyond this point never execute: the
        // makespan is the completion of the last disposed request.
        let work_remains = !queue.is_empty()
            || devices.iter().any(|d| d.busy)
            || arrivals.peek_time().is_some()
            || !retries.is_empty();
        if !work_remains {
            break;
        }

        // Earliest event wins; kind breaks time ties (completion < fault <
        // retry < arrival, faults tie-broken by device index).
        let mut best: Option<(f64, u8, Event)> = None;
        let replace = |best: &Option<(f64, u8, Event)>, time: f64, priority: u8| match best {
            None => true,
            Some((bt, bp, _)) => time < *bt || (time == *bt && priority < *bp),
        };
        if let Some(head) = running.peek() {
            best = Some((head.0.time, 0, Event::Completion));
        }
        if has_faults {
            for (device, fault) in faults.iter().enumerate() {
                if let Some((time, _)) = fault.next {
                    if replace(&best, time, 1) {
                        best = Some((time, 1, Event::Fault(device)));
                    }
                }
            }
        }
        if let Some(head) = retries.peek() {
            if replace(&best, head.0.time, 2) {
                best = Some((head.0.time, 2, Event::Retry));
            }
        }
        if let Some(time) = arrivals.peek_time() {
            if replace(&best, time, 3) {
                best = Some((time, 3, Event::Arrival));
            }
        }

        let Some((time, _, event)) = best else {
            // Work is stranded (every remaining device is down forever and
            // nothing else is scheduled): the queued requests give up. A
            // closed loop may issue replacements at this same instant, so
            // keep looping rather than breaking.
            let stranded: Vec<Pending> = queue.drain(..).collect();
            for pending in stranded {
                give_up(
                    pending.id,
                    clock,
                    &mut outcomes,
                    &mut counters,
                    &mut arrivals,
                );
            }
            continue;
        };
        queue_area += queue.len() as f64 * (time - clock);
        clock = time;

        match event {
            Event::Completion => {
                let done = running.pop().expect("peeked completion exists").0;
                let device = &mut devices[done.device];
                device.busy = false;
                device.in_flight = None;
                if done.failed {
                    counters.transient_failures += 1;
                    counters.wasted_seconds += done.service;
                    let state = &states[done.id];
                    if state.attempts < plan.retry.max_attempts {
                        let backoff = plan.retry.backoff_seconds(state.attempts);
                        retries.push(std::cmp::Reverse(RetryEntry {
                            time: clock + backoff,
                            id: done.id,
                        }));
                    } else {
                        give_up(done.id, clock, &mut outcomes, &mut counters, &mut arrivals);
                    }
                } else {
                    device.served += 1;
                    outcomes[done.id] = Outcome::Completed;
                    let state = &states[done.id];
                    let late = state.deadline.is_some_and(|d| clock > d);
                    if state.downgraded {
                        counters.degraded += 1;
                    }
                    if late {
                        counters.late += 1;
                    }
                    if !state.downgraded && !late {
                        counters.useful += 1;
                    }
                    // A closed-loop client reissues the instant its request
                    // returns.
                    arrivals.on_completion(clock);
                }
            }
            Event::Fault(device_index) => {
                let (_, transition) = faults[device_index]
                    .next
                    .expect("selected fault transition exists");
                match transition {
                    Transition::Crash => {
                        let device = &mut devices[device_index];
                        device.up = false;
                        device.crashes += 1;
                        device.down_since = clock;
                        device.last_class = None;
                        if let Some(in_flight) = device.in_flight.take() {
                            // The in-flight attempt is lost: its partial
                            // execution is wasted, its scheduled completion
                            // goes stale, and the dispatcher fails the work
                            // over immediately (no backoff) if attempts
                            // remain.
                            device.busy = false;
                            device.epoch += 1;
                            device.busy_seconds -= in_flight.completes_at - clock;
                            counters.wasted_seconds += clock - in_flight.dispatched_at;
                            counters.crash_losses += 1;
                            let id = in_flight.id;
                            if states[id].attempts < plan.retry.max_attempts {
                                insert_by_arrival(
                                    &mut queue,
                                    Pending {
                                        id,
                                        class: records[id].class,
                                        arrival: states[id].arrival,
                                    },
                                );
                                max_depth = max_depth.max(queue.len());
                            } else {
                                give_up(id, clock, &mut outcomes, &mut counters, &mut arrivals);
                            }
                        }
                    }
                    Transition::Restore => {
                        let device = &mut devices[device_index];
                        device.up = true;
                        device.down_seconds += clock - device.down_since;
                    }
                }
                faults[device_index].advance(clock, transition);
            }
            Event::Retry => {
                let entry = retries.pop().expect("peeked retry exists").0;
                insert_by_arrival(
                    &mut queue,
                    Pending {
                        id: entry.id,
                        class: records[entry.id].class,
                        arrival: states[entry.id].arrival,
                    },
                );
                max_depth = max_depth.max(queue.len());
            }
            Event::Arrival => {
                let (arrival, class) = arrivals.pop().expect("peeked arrival exists");
                counters.offered += 1;
                match admit(
                    &plan.admission,
                    plan.deadline_seconds,
                    &queue,
                    &devices,
                    services,
                    class,
                ) {
                    Admit::Shed => {
                        counters.shed += 1;
                        // The client observes the rejection immediately; a
                        // closed loop moves on to its next request.
                        arrivals.on_completion(clock);
                    }
                    Admit::Accept {
                        class: admitted,
                        downgraded,
                    } => {
                        let id = records.len();
                        records.push(RequestRecord {
                            id,
                            class: admitted,
                            device: usize::MAX,
                            arrival_seconds: arrival,
                            wait_seconds: 0.0,
                            service_seconds: 0.0,
                        });
                        states.push(ReqState {
                            arrival,
                            attempts: 0,
                            downgraded,
                            deadline: plan.deadline_seconds.map(|d| arrival + d),
                        });
                        outcomes.push(Outcome::Pending);
                        queue.push_back(Pending {
                            id,
                            class: admitted,
                            arrival,
                        });
                        max_depth = max_depth.max(queue.len());
                    }
                }
            }
        }

        // Timeouts apply to *starting*: a queued request whose deadline has
        // passed gives up before it can be dispatched. Once dispatched, an
        // attempt always runs to completion (it may finish late).
        if plan.deadline_seconds.is_some() {
            let mut position = 0;
            while position < queue.len() {
                let expired = states[queue[position].id]
                    .deadline
                    .is_some_and(|d| clock >= d);
                if expired {
                    let pending = queue.remove(position).expect("position is in range");
                    give_up(
                        pending.id,
                        clock,
                        &mut outcomes,
                        &mut counters,
                        &mut arrivals,
                    );
                } else {
                    position += 1;
                }
            }
        }

        // Match idle up devices with queued requests until one side is
        // empty.
        while !queue.is_empty() {
            let Some((device, position)) = pick(config.policy, &devices, &queue) else {
                break;
            };
            let request = queue.remove(position).expect("picked position exists");
            let service = service_for(plan, services, device, request.class, clock);
            let state = &mut states[request.id];
            state.attempts += 1;
            if state.attempts > 1 {
                counters.retries += 1;
            }
            // One draw per attempt, skipped entirely at rate zero so the
            // fault-free path consumes no RNG state.
            let failed = transient_rate > 0.0 && failure_rng.gen_range(0.0..1.0) < transient_rate;
            let record = &mut records[request.id];
            record.device = device;
            record.wait_seconds = clock - request.arrival;
            record.service_seconds = service;
            let d = &mut devices[device];
            d.busy = true;
            d.busy_seconds += service;
            d.last_class = Some(request.class);
            d.in_flight = Some(InFlight {
                id: request.id,
                dispatched_at: clock,
                completes_at: clock + service,
            });
            running.push(std::cmp::Reverse(Completion {
                time: clock + service,
                device,
                id: request.id,
                epoch: d.epoch,
                failed,
                service,
            }));
        }
    }

    // A device still down when the run ends accrues its tail of down time.
    for device in &mut devices {
        if !device.up {
            device.down_seconds += clock - device.down_since;
        }
    }
    counters.device_faults = devices
        .iter()
        .map(|d| DeviceFaultStats {
            crashes: d.crashes,
            down_seconds: d.down_seconds,
        })
        .collect();

    // The outcome keeps completed requests only (all of them, in the
    // fault-free case), in issue order.
    let mut kept = Vec::with_capacity(records.len());
    for record in records {
        if outcomes[record.id] == Outcome::Completed {
            kept.push(record);
        }
    }

    (
        SimOutcome {
            makespan_seconds: clock,
            queue_area,
            max_depth,
            devices,
            records: kept,
        },
        counters,
    )
}

/// Marks an accepted request as given up (deadline expired before start,
/// retry budget exhausted, or stranded with every device down).
fn give_up(
    id: usize,
    clock: f64,
    outcomes: &mut [Outcome],
    counters: &mut FaultCounters,
    arrivals: &mut ArrivalStream,
) {
    outcomes[id] = Outcome::TimedOut;
    counters.timed_out += 1;
    // The client observes the failure; a closed loop moves on.
    arrivals.on_completion(clock);
}

/// Re-queues a request in arrival order (ties by issue id), so a failed-over
/// or retried request rejoins the queue where its age entitles it to be.
fn insert_by_arrival(queue: &mut VecDeque<Pending>, pending: Pending) {
    let position = queue
        .iter()
        .position(|p| {
            p.arrival
                .total_cmp(&pending.arrival)
                .then(p.id.cmp(&pending.id))
                .is_gt()
        })
        .unwrap_or(queue.len());
    queue.insert(position, pending);
}

/// Builds the per-device fault schedules from the plan.
fn build_device_faults(config: &ServeConfig, plan: &FaultPlan) -> Vec<DeviceFaults> {
    let num_devices = config.cluster.num_devices;
    match &plan.crashes {
        CrashPlan::None => (0..num_devices).map(|_| DeviceFaults::quiet()).collect(),
        CrashPlan::Scripted(events) => {
            let mut windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); num_devices];
            for event in events {
                windows[event.device]
                    .push((event.at_seconds, event.at_seconds + event.down_seconds));
            }
            windows.into_iter().map(DeviceFaults::scripted).collect()
        }
        CrashPlan::Random {
            mtbf_seconds,
            mttr_seconds,
        } => (0..num_devices)
            .map(|device| {
                let seed = config.seed
                    ^ CRASH_STREAM_SALT
                        .wrapping_add((device as u64).wrapping_mul(DEVICE_STREAM_STRIDE));
                DeviceFaults::sampled(seed, *mtbf_seconds, *mttr_seconds)
            })
            .collect(),
    }
}

/// The admission decision for one arrival.
enum Admit {
    Accept { class: usize, downgraded: bool },
    Shed,
}

fn admit(
    policy: &AdmissionPolicy,
    deadline: Option<f64>,
    queue: &VecDeque<Pending>,
    devices: &[Device],
    services: &ServiceTable,
    class: usize,
) -> Admit {
    match policy {
        AdmissionPolicy::Open => Admit::Accept {
            class,
            downgraded: false,
        },
        AdmissionPolicy::ShedAboveDepth { max_queue_depth } => {
            if queue.len() >= *max_queue_depth {
                Admit::Shed
            } else {
                Admit::Accept {
                    class,
                    downgraded: false,
                }
            }
        }
        AdmissionPolicy::DegradeAboveDepth {
            degrade_depth,
            fallback_class,
            shed_depth,
        } => {
            if shed_depth.is_some_and(|shed_at| queue.len() >= shed_at) {
                Admit::Shed
            } else if queue.len() >= *degrade_depth && class != *fallback_class {
                Admit::Accept {
                    class: *fallback_class,
                    downgraded: true,
                }
            } else {
                Admit::Accept {
                    class,
                    downgraded: false,
                }
            }
        }
        AdmissionPolicy::DeadlineAware => {
            let deadline = deadline.expect("validated: deadline-aware admission has a deadline");
            let up = devices.iter().filter(|d| d.up).count();
            if up == 0 {
                return Admit::Shed;
            }
            let backlog: f64 = queue.iter().map(|p| services.base[p.class]).sum();
            if backlog / up as f64 > deadline {
                Admit::Shed
            } else {
                Admit::Accept {
                    class,
                    downgraded: false,
                }
            }
        }
    }
}

/// The service time of one dispatch: the degraded row of an open window on
/// the device at the dispatch instant, otherwise the baseline. Degradation
/// applies at dispatch granularity — an attempt keeps the service time it
/// started with even if the window closes mid-flight.
fn service_for(
    plan: &FaultPlan,
    services: &ServiceTable,
    device: usize,
    class: usize,
    clock: f64,
) -> f64 {
    for (index, window) in plan.degradations.iter().enumerate() {
        if window.device == device && window.contains(clock) {
            return services.degraded[index][class];
        }
    }
    services.base[class]
}

/// Chooses `(device, queue position)` for the next dispatch, or `None` when
/// every device is busy or down. See [`DispatchPolicy`] for the
/// disciplines.
fn pick(
    policy: DispatchPolicy,
    devices: &[Device],
    queue: &VecDeque<Pending>,
) -> Option<(usize, usize)> {
    let ready = |d: &Device| !d.busy && d.up;
    let first_idle = devices.iter().position(&ready)?;
    let least_loaded_idle = || {
        devices
            .iter()
            .enumerate()
            .filter(|(_, d)| ready(d))
            .min_by(|(i, a), (j, b)| a.busy_seconds.total_cmp(&b.busy_seconds).then(i.cmp(j)))
            .map(|(i, _)| i)
            .expect("an idle device exists")
    };
    match policy {
        DispatchPolicy::Fifo => Some((first_idle, 0)),
        DispatchPolicy::LeastLoaded => Some((least_loaded_idle(), 0)),
        DispatchPolicy::ClassAffinity => {
            let head_class = queue.front().expect("queue is non-empty").class;
            // The head request prefers an idle device warm for its class.
            let warm = devices
                .iter()
                .enumerate()
                .filter(|(_, d)| ready(d) && d.last_class == Some(head_class))
                .min_by(|(i, a), (j, b)| a.busy_seconds.total_cmp(&b.busy_seconds).then(i.cmp(j)))
                .map(|(i, _)| i);
            if let Some(device) = warm {
                return Some((device, 0));
            }
            // Otherwise the least-loaded idle device batches the earliest
            // queued request of its own last class, falling back to the head.
            let device = least_loaded_idle();
            let position = devices[device]
                .last_class
                .and_then(|class| queue.iter().position(|p| p.class == class))
                .unwrap_or(0);
            Some((device, position))
        }
    }
}

/// The raw simulation outcome, assembled into a [`ServeReport`] by
/// [`finish`].
pub(crate) struct SimOutcome {
    makespan_seconds: f64,
    queue_area: f64,
    max_depth: usize,
    devices: Vec<Device>,
    records: Vec<RequestRecord>,
}

/// Assembles the report from the simulation outcome and the per-class
/// service times.
pub(crate) fn finish(
    config: &ServeConfig,
    strategy: String,
    service_seconds: &[f64],
    outcome: SimOutcome,
) -> ServeReport {
    let SimOutcome {
        makespan_seconds,
        queue_area,
        max_depth,
        devices,
        records,
    } = outcome;
    let completed = records.len();
    let throughput_rps = if makespan_seconds > 0.0 {
        completed as f64 / makespan_seconds
    } else {
        0.0
    };
    let mut sorted_ms: Vec<f64> = records.iter().map(RequestRecord::latency_ms).collect();
    sorted_ms.sort_by(f64::total_cmp);
    // A faulted run can complete zero requests; its latency summary is all
    // zeros rather than a panic.
    let latency = if sorted_ms.is_empty() {
        LatencySummary {
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
        }
    } else {
        LatencySummary {
            mean_ms: sorted_ms.iter().sum::<f64>() / completed.max(1) as f64,
            p50_ms: percentile(&sorted_ms, 50.0),
            p95_ms: percentile(&sorted_ms, 95.0),
            p99_ms: percentile(&sorted_ms, 99.0),
            max_ms: *sorted_ms.last().expect("at least one request completed"),
        }
    };
    let queue = QueueSummary {
        max_depth,
        mean_depth: if makespan_seconds > 0.0 {
            queue_area / makespan_seconds
        } else {
            0.0
        },
    };
    let device_usage = devices
        .iter()
        .enumerate()
        .map(|(i, d)| DeviceUsage {
            device: i,
            served: d.served,
            busy_seconds: d.busy_seconds,
            utilization: if makespan_seconds > 0.0 {
                d.busy_seconds / makespan_seconds
            } else {
                0.0
            },
        })
        .collect();
    let class_usage = config
        .classes
        .iter()
        .enumerate()
        .map(|(i, class)| ClassUsage {
            name: class.name.clone(),
            served: records.iter().filter(|r| r.class == i).count(),
            service_ms: service_seconds[i] * 1e3,
        })
        .collect();
    ServeReport {
        strategy,
        policy: config.policy,
        seed: config.seed,
        num_devices: config.cluster.num_devices,
        bandwidth_gbps: config.cluster.rpu.dram_bandwidth_gbps,
        completed,
        makespan_seconds,
        throughput_rps,
        latency,
        queue,
        devices: device_usage,
        classes: class_usage,
        records,
    }
}
