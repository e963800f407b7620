//! The outcome of one serving run: throughput, latency percentiles, queue
//! depths, and per-device / per-class usage.

use super::dispatch::DispatchPolicy;
use crate::json;
use serde::Serialize;
use std::fmt::Write as _;

/// Upper-end length of one rendered request record (~135 bytes at fleet
/// scale), for pre-sizing report buffers.
pub(crate) const JSON_BYTES_PER_RECORD: usize = 144;

/// One served request, in issue order. Latency is defined as
/// `wait + service` (not `completion − arrival`), so a request that never
/// queues reports its class's service time *bit-identically* — the invariant
/// the serve layer's zero-skew property test pins down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RequestRecord {
    /// Issue index (also the index into [`ServeReport::records`]).
    pub id: usize,
    /// Index into the run's request classes.
    pub class: usize,
    /// Device the request executed on.
    pub device: usize,
    /// Virtual arrival time in seconds.
    pub arrival_seconds: f64,
    /// Time spent queued before dispatch, in seconds (0.0 exactly when the
    /// request was dispatched at its arrival instant).
    pub wait_seconds: f64,
    /// Service time in seconds — the engine-simulated runtime of the
    /// request's class on one device.
    pub service_seconds: f64,
}

impl RequestRecord {
    /// End-to-end latency in seconds (`wait + service`).
    fn latency_seconds(&self) -> f64 {
        self.wait_seconds + self.service_seconds
    }

    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_seconds() * 1e3
    }
}

/// Latency distribution of one run, in milliseconds. Percentiles use the
/// nearest-rank method over the completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_ms: f64,
    /// Median (50th percentile) latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
}

/// Queue-depth statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueueSummary {
    /// Largest number of requests waiting at any instant.
    pub max_depth: usize,
    /// Time-weighted mean queue depth over the makespan.
    pub mean_depth: f64,
}

/// Usage of one simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceUsage {
    /// Device index.
    pub device: usize,
    /// Requests the device served.
    pub served: usize,
    /// Virtual seconds the device spent executing requests.
    pub busy_seconds: f64,
    /// `busy_seconds` over the run's makespan (1.0 = never idle).
    pub utilization: f64,
}

/// Usage of one request class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassUsage {
    /// Class name.
    pub name: String,
    /// Requests of this class that were served.
    pub served: usize,
    /// The class's per-request service time in milliseconds (identical for
    /// every request of the class — the cluster is homogeneous).
    pub service_ms: f64,
}

/// The full outcome of one serving run. Bit-reproducible: two runs with the
/// same [`ServeConfig`](super::ServeConfig) and seed compare equal.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Short name of the strategy that scheduled every request.
    pub strategy: String,
    /// The dispatch policy the run used.
    pub policy: DispatchPolicy,
    /// The arrival seed the run used.
    pub seed: u64,
    /// Number of devices in the cluster.
    pub num_devices: usize,
    /// Per-device DRAM bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Requests completed (always the configured request budget).
    pub completed: usize,
    /// Virtual time at which the last request completed, in seconds.
    pub makespan_seconds: f64,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
    /// Latency distribution over completed requests.
    pub latency: LatencySummary,
    /// Queue-depth statistics.
    pub queue: QueueSummary,
    /// Per-device usage, indexed by device.
    pub devices: Vec<DeviceUsage>,
    /// Per-class usage, in the order of the configured classes.
    pub classes: Vec<ClassUsage>,
    /// Every served request, in issue order.
    pub records: Vec<RequestRecord>,
}

impl ServeReport {
    /// Mean device utilization across the cluster.
    pub fn mean_utilization(&self) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        self.devices.iter().map(|d| d.utilization).sum::<f64>() / self.devices.len() as f64
    }

    /// Renders the report as one `ciflow.serve_report.v1` JSON document —
    /// the machine-readable twin of the [`Display`](std::fmt::Display)
    /// line, embedded by `serving_fleet --json` and by
    /// [`ResilienceReport::to_json`](super::ResilienceReport::to_json).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + JSON_BYTES_PER_RECORD * self.records.len());
        self.write_json(&mut out);
        out
    }

    /// Streams the [`to_json`](Self::to_json) document onto `out`. Repeated
    /// floats — a class's service time, a zero wait — replay their cached
    /// rendering ([`json::F64Memo`]), so the bytes do not change.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"schema\":\"ciflow.serve_report.v1\",\"strategy\":");
        json::write_str(out, &self.strategy);
        let _ = write!(
            out,
            ",\"policy\":\"{}\",\"seed\":{},\"num_devices\":{},\"bandwidth_gbps\":{},\
             \"completed\":{},\"makespan_seconds\":{},\"throughput_rps\":{},\
             \"latency\":{{\"mean_ms\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\
             \"max_ms\":{}}},\"queue\":{{\"max_depth\":{},\"mean_depth\":{}}},\"devices\":",
            self.policy,
            self.seed,
            self.num_devices,
            self.bandwidth_gbps,
            self.completed,
            self.makespan_seconds,
            self.throughput_rps,
            self.latency.mean_ms,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
            self.queue.max_depth,
            self.queue.mean_depth,
        );
        json::write_array(out, &self.devices, |out, d| {
            let _ = write!(
                out,
                "{{\"device\":{},\"served\":{},\"busy_seconds\":{},\"utilization\":{}}}",
                d.device, d.served, d.busy_seconds, d.utilization
            );
        });
        out.push_str(",\"classes\":");
        json::write_array(out, &self.classes, |out, c| {
            out.push_str("{\"name\":");
            json::write_str(out, &c.name);
            let _ = write!(
                out,
                ",\"served\":{},\"service_ms\":{}}}",
                c.served, c.service_ms
            );
        });
        // One memo slot per class (service time is constant per class) and
        // one for the last wait (often exactly zero). `class % len` only
        // bounds the index: the memo is correct for any slot.
        let mut service = vec![json::F64Memo::default(); self.classes.len().max(1)];
        let mut wait = json::F64Memo::default();
        out.push_str(",\"records\":");
        json::write_array(out, &self.records, |out, r| {
            out.push_str("{\"id\":");
            json::write_uint(out, r.id);
            out.push_str(",\"class\":");
            json::write_uint(out, r.class);
            out.push_str(",\"device\":");
            json::write_uint(out, r.device);
            out.push_str(",\"arrival_seconds\":");
            json::write_f64(out, r.arrival_seconds);
            out.push_str(",\"wait_seconds\":");
            wait.write(out, r.wait_seconds);
            out.push_str(",\"service_seconds\":");
            let slot = r.class % service.len();
            service[slot].write(out, r.service_seconds);
            out.push('}');
        });
        out.push('}');
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} x{} @ {} GB/s [{}] seed {}: {} req in {:.2} ms -> {:.1} req/s, \
             p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, util {:.1}%, queue max {}",
            self.strategy,
            self.num_devices,
            self.bandwidth_gbps,
            self.policy,
            self.seed,
            self.completed,
            self.makespan_seconds * 1e3,
            self.throughput_rps,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.mean_utilization() * 100.0,
            self.queue.max_depth,
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (`q` in 0..=100);
/// `0.0` for an empty slice, as a run that completes no request reports.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((q / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Small samples clamp to the observed extremes.
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 99.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn latency_is_wait_plus_service() {
        let record = RequestRecord {
            id: 0,
            class: 0,
            device: 0,
            arrival_seconds: 1.0,
            wait_seconds: 0.0,
            service_seconds: 0.25,
        };
        // Zero wait leaves the service time bit-identical.
        assert_eq!(record.latency_seconds().to_bits(), 0.25f64.to_bits());
        assert_eq!(record.latency_ms(), 250.0);
    }
}
