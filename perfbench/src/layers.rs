//! Per-layer readings of a traced round, and the benchmark's own phase
//! spans.
//!
//! The readings come from the program's public counters (`RunReport`,
//! `metrics_report`, `PoolStats`, `calibration_profile`) and from timers
//! around the benchmark's calls into each layer. A layer that does no work
//! on a workload reads 0 there.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use amt_comm::EngineStats;
use amt_core::{Cluster, RunReport, REC_ACTIVATE, REC_ARRIVAL, REC_GET_REQUEST, REC_TASK_OVERHEAD};
use amt_simnet::OnlineStats;

use crate::workload::Inputs;

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // amt-tlr
    ("tlr.build_s", "s", "lower"),
    ("tlr.compress_s", "s", "lower"),
    ("tlr.mean_rank", "count", "lower"),
    // amt-linalg (host time inside real kernels)
    ("kernel.gemm_s", "s", "lower"),
    ("kernel.syrk_s", "s", "lower"),
    ("kernel.trsm_s", "s", "lower"),
    ("kernel.potrf_s", "s", "lower"),
    ("kernel.busy_share", "fraction", "higher"),
    // amt-exec
    ("pool.steals", "count", "lower"),
    ("pool.failed_probes", "count", "lower"),
    ("pool.parks", "count", "lower"),
    ("pool.injector_pushes", "count", "lower"),
    // amt-core, real substrate
    ("runtime.overhead_s", "s", "lower"),
    ("record.activate_ns", "ns", "lower"),
    ("record.get_request_ns", "ns", "lower"),
    ("record.arrival_ns", "ns", "lower"),
    ("record.task_overhead_ns", "ns", "lower"),
    // amt-comm, shared-memory transport
    ("shm.am_sent", "count", "lower"),
    ("shm.puts", "count", "lower"),
    ("shm.put_bytes", "B", "lower"),
    ("shm.e2e_latency_us", "us", "lower"),
    ("shm.msg_latency_us", "us", "lower"),
    // amt-comm, simulated engine
    ("comm.am_submitted", "count", "lower"),
    ("comm.am_sent", "count", "lower"),
    ("comm.puts", "count", "lower"),
    ("comm.rounds", "count", "lower"),
    // amt-minimpi
    ("mpi.deferred_puts", "count", "lower"),
    ("mpi.dynamic_recvs", "count", "lower"),
    // amt-lci
    ("lci.backend_retries", "count", "lower"),
    ("lci.delegated_recvs", "count", "lower"),
    // amt-simnet
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.events_peak_pending", "count", "lower"),
    // amt-netmodel
    ("fabric.put_bytes", "B", "lower"),
    ("fabric.msgs_on_wire", "count", "lower"),
    // amt-core, virtual substrate and set-up
    ("core.cluster_new_s", "s", "lower"),
    ("core.tasks", "count", "higher"),
    // the fine DAG's own graph construction
    ("dag.build_s", "s", "lower"),
    // the benchmark's phases, traced
    ("phase.setup_s", "s", "lower"),
    ("phase.run_s", "s", "lower"),
    ("phase.check_s", "s", "lower"),
];

/// Mean of a latency distribution, 0 when it holds no samples.
pub fn mean_or_zero(s: &OnlineStats) -> f64 {
    if s.count() == 0 {
        0.0
    } else {
        s.mean()
    }
}

/// Readings of one traced round, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Read the program's counters after an execution that took `run_s`
    /// host seconds.
    pub fn read_run(&mut self, inputs: &Inputs, cluster: &Cluster, report: &RunReport, run_s: f64) {
        let mut engine = EngineStats::default();
        for s in &report.engine_stats {
            engine.merge(s);
        }
        self.set("core.tasks", report.tasks_executed as f64);
        self.set("mpi.deferred_puts", engine.deferred_puts.get() as f64);
        self.set("mpi.dynamic_recvs", engine.dynamic_recvs.get() as f64);
        self.set("lci.backend_retries", engine.backend_retries.get() as f64);
        self.set("lci.delegated_recvs", engine.delegated_recvs.get() as f64);
        let metrics = cluster.metrics_report(report);

        let Some(pool) = &report.pool else {
            // Virtual substrate.
            self.set("comm.am_submitted", engine.am_submitted.get() as f64);
            self.set("comm.am_sent", engine.am_sent.get() as f64);
            self.set("comm.puts", engine.puts_started.get() as f64);
            self.set("comm.rounds", engine.comm_rounds.get() as f64);
            self.set("sim.events", report.sim_events as f64);
            self.set(
                "sim.ns_per_event",
                run_s * 1e9 / report.sim_events.max(1) as f64,
            );
            self.set(
                "sim.events_peak_pending",
                metrics.events_peak_pending as f64,
            );
            self.set("fabric.put_bytes", report.bytes_transferred() as f64);
            let on_wire: u64 = metrics
                .stages
                .counters()
                .filter(|(name, _)| name.ends_with(".msgs_on_wire"))
                .map(|(_, v)| v)
                .sum();
            self.set("fabric.msgs_on_wire", on_wire as f64);
            return;
        };

        // Real substrate.
        for (class, name) in [
            ("gemm", "kernel.gemm_s"),
            ("syrk", "kernel.syrk_s"),
            ("trsm", "kernel.trsm_s"),
            ("potrf", "kernel.potrf_s"),
        ] {
            let busy = report
                .class_stats
                .iter()
                .find(|c| c.0 == class)
                .map_or(0.0, |c| c.2.as_secs_f64());
            self.set(name, busy);
        }
        let thread_s = inputs.threads as f64 * run_s;
        let busy_s = report.worker_busy.as_secs_f64();
        self.set("kernel.busy_share", busy_s / thread_s);
        self.set("runtime.overhead_s", thread_s - busy_s);
        self.set("pool.steals", pool.steals() as f64);
        self.set("pool.failed_probes", pool.failed_probes() as f64);
        self.set("pool.parks", pool.parks() as f64);
        self.set("pool.injector_pushes", pool.injector_pushes as f64);
        if let Some(profile) = cluster.calibration_profile() {
            for (rec, name) in [
                (REC_ACTIVATE, "record.activate_ns"),
                (REC_GET_REQUEST, "record.get_request_ns"),
                (REC_ARRIVAL, "record.arrival_ns"),
                (REC_TASK_OVERHEAD, "record.task_overhead_ns"),
            ] {
                let median = profile.records.get(rec).map_or(0, |s| s.median_ns);
                self.set(name, median as f64);
            }
        }
        self.set("shm.am_sent", engine.am_sent.get() as f64);
        self.set("shm.puts", engine.puts_started.get() as f64);
        self.set("shm.put_bytes", engine.put_bytes_in.get() as f64);
        self.set("shm.e2e_latency_us", mean_or_zero(&report.e2e_latency_us));
        self.set("shm.msg_latency_us", mean_or_zero(&report.msg_latency_us));
    }
}

/// One phase span recorded by the benchmark around its calls into the
/// program.
struct Span {
    name: &'static str,
    round: Option<usize>,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Phase spans, kept in memory and written out when the run ends.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, round: Option<usize>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            round,
            parent: self.open.last().copied(),
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` and return its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0];
        span.end_s = self.t0.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Chrome-trace JSON ("X" events, µs), one track per round.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.1},\"dur\":{:.1},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.round.map_or(0, |r| r + 1),
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("]}");
        out
    }
}
