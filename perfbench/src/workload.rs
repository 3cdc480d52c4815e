//! The four workloads: their inputs (all drawn from the seed), one timed
//! round of set-up, execution and checks, and the per-layer readings of a
//! traced round.

use std::time::Instant;

use amt_comm::BackendKind;
use amt_core::{
    Cluster, ClusterConfig, ExecMode, GraphBuilder, GraphSource, TaskDesc, TaskGraph, VersionId,
};
use amt_linalg::{sqexp_covariance, Grid2d};
use amt_tlr::{LrTile, TlrCholesky, TlrCholeskySource, TlrProblem};
use bytes::Bytes;

use crate::check::{self, decode_f64s, FactorTiles, Verdict};
use crate::layers::{mean_or_zero, Layers, Spans};

/// Simulated TLR tile size (the paper's).
const SIM_TILE: usize = 1200;
/// Discovery window of the windowed simulated run.
const SIM_WINDOW: usize = 20_000;
/// Real TLR tile size.
const REAL_TILE: usize = 32;
/// Bytes per fine-DAG lane.
const LANE_BYTES: usize = 512;
/// Random probe vectors of the TLR residual check.
const PROBES: usize = 4;
/// Bound on the relative probe residual (compression tolerance is 1e-8).
const PROBE_BOUND: f64 = 1e-6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimWideLci,
    SimDeepMpi,
    RealTlr,
    RealFineDag,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimWideLci,
        Workload::SimDeepMpi,
        Workload::RealTlr,
        Workload::RealFineDag,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimWideLci => "sim_wide_lci",
            Workload::SimDeepMpi => "sim_deep_mpi",
            Workload::RealTlr => "real_tlr",
            Workload::RealFineDag => "real_fine_dag",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_real(self) -> bool {
        matches!(self, Workload::RealTlr | Workload::RealFineDag)
    }
}

/// SplitMix64: the benchmark's own generator, so inputs do not depend on
/// any generator inside the program.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything a workload run is made of, fixed by the workload and seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub nodes: usize,
    /// Pool threads of the real workloads.
    pub threads: usize,
    /// Tile-grid side `nt` (TLR) or level count (fine DAG).
    pub size: usize,
    /// Fine-DAG lanes.
    pub lanes: usize,
    /// Simulated per-core speed, GFLOP/s: the paper's 36 scaled by ±2%.
    pub gflops: f64,
    /// Diagonal nugget of the real TLR covariance, in [0.01, 0.02).
    pub nugget: f64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed ^ 0x5eed_0001);
        let gflops = 36.0 * (0.98 + 0.04 * rng.unit());
        let nugget = 0.01 * (1.0 + rng.unit());
        let (nodes, size) = match workload {
            Workload::SimWideLci => (512, 40),
            Workload::SimDeepMpi => (16, 120),
            Workload::RealTlr => (4, 32),
            Workload::RealFineDag => (4, 2000),
        };
        Inputs {
            workload,
            seed,
            nodes,
            threads: 2,
            size,
            lanes: 128,
            gflops,
            nugget,
        }
    }

    #[cfg(test)]
    pub fn with_size(mut self, size: usize) -> Inputs {
        self.size = size;
        self
    }

    pub fn tlr_problem(&self) -> TlrProblem {
        let tile = if self.workload.is_real() {
            REAL_TILE
        } else {
            SIM_TILE
        };
        let mut p = TlrProblem::new(self.size * tile, tile);
        p.nugget = self.nugget;
        p
    }

    /// Tasks a complete run executes, from the closed forms.
    pub fn expected_tasks(&self) -> u64 {
        match self.workload {
            Workload::RealFineDag => (self.lanes * self.size) as u64,
            _ => check::cholesky_tasks(self.size as u64),
        }
    }

    fn config(&self, metrics: bool) -> ClusterConfig {
        let mut cfg = match self.workload {
            Workload::SimWideLci => ClusterConfig {
                mode: ExecMode::CostOnly,
                flyweight: true,
                get_window_bytes: 2 << 20,
                ..ClusterConfig::expanse(BackendKind::Lci, self.nodes)
            },
            Workload::SimDeepMpi => ClusterConfig {
                mode: ExecMode::CostOnly,
                ..ClusterConfig::expanse(BackendKind::Mpi, self.nodes)
            },
            Workload::RealTlr | Workload::RealFineDag => ClusterConfig {
                nodes: self.nodes,
                mode: ExecMode::Numeric,
                ..Default::default()
            },
        };
        cfg.cost.gflops_per_worker = self.gflops;
        cfg.metrics = metrics;
        cfg
    }

    /// Seeded probe vectors in [−1, 1)ⁿ for the TLR residual check.
    pub fn probes(&self, n: usize) -> Vec<Vec<f64>> {
        let mut rng = SplitMix::new(self.seed ^ 0x5eed_0002);
        (0..PROBES)
            .map(|_| (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect())
            .collect()
    }

    /// Seeded initial contents of every fine-DAG lane.
    pub fn lanes_initial(&self) -> Vec<Vec<u8>> {
        let mut rng = SplitMix::new(self.seed ^ 0x5eed_0003);
        (0..self.lanes)
            .map(|_| {
                (0..LANE_BYTES / 8)
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .collect()
            })
            .collect()
    }
}

/// The fine-DAG kernel: mix a lane with its right neighbour through a few
/// integer passes.
pub fn mix(own: &[u8], right: &[u8]) -> Vec<u8> {
    let mut out = own.to_vec();
    for pass in 0..4u8 {
        for (o, r) in out.iter_mut().zip(right) {
            *o = o.wrapping_mul(31).wrapping_add(r ^ pass);
        }
    }
    out
}

/// A fine-grained DAG and the versions holding its final lanes.
pub struct FineDag {
    pub graph: TaskGraph,
    pub finals: Vec<VersionId>,
}

/// `lanes × levels` mix tasks. Lane `l` lives on node `l % nodes`; each
/// task reads its own lane and lane `l + 1` from the previous level, which
/// sits on another node whenever there is more than one.
pub fn fine_dag(inputs: &Inputs) -> FineDag {
    let lanes = inputs.lanes as u64;
    let node_of = |lane: u64| (lane % inputs.nodes as u64) as usize;
    let mut g = GraphBuilder::new(inputs.nodes);
    for (lane, bytes) in inputs.lanes_initial().into_iter().enumerate() {
        let lane = lane as u64;
        g.data(lane, LANE_BYTES, node_of(lane), Some(Bytes::from(bytes)));
    }
    for _ in 0..inputs.size {
        let prev: Vec<VersionId> = (0..lanes)
            .map(|lane| g.current(lane).expect("lane version"))
            .collect();
        for lane in 0..lanes {
            g.insert(
                TaskDesc::new("mix")
                    .on_node(node_of(lane))
                    .flops(2.0 * LANE_BYTES as f64)
                    .read(prev[lane as usize])
                    .read(prev[((lane + 1) % lanes) as usize])
                    .write(lane, LANE_BYTES)
                    .kernel(|ins| vec![Bytes::from(mix(&ins[0], &ins[1]))]),
            );
        }
    }
    let finals = (0..lanes)
        .map(|lane| g.current(lane).expect("final lane"))
        .collect();
    FineDag {
        graph: g.build(),
        finals,
    }
}

/// The fine DAG's final lanes from a plain sequential loop.
pub fn fine_dag_reference(inputs: &Inputs) -> Vec<Vec<u8>> {
    let mut lanes = inputs.lanes_initial();
    let n = lanes.len();
    for _ in 0..inputs.size {
        lanes = (0..n)
            .map(|l| mix(&lanes[l], &lanes[(l + 1) % n]))
            .collect();
    }
    lanes
}

/// Read every factor tile of a finished numeric run through
/// [`Cluster::data`]; `None` if a tile is missing or has the wrong shape.
pub fn read_factor(chol: &TlrCholesky, cluster: &Cluster) -> Option<FactorTiles> {
    let ts = chol.problem.tile_size;
    let get = |v: VersionId| cluster.data(v).map(|b| decode_f64s(&b));
    let diag = chol
        .diag_out
        .iter()
        .map(|&v| get(v).filter(|d| d.len() == ts * ts))
        .collect::<Option<_>>()?;
    let lr = chol
        .lr_out
        .iter()
        .map(|(&(i, j), &(u, v))| {
            let (u, v) = (get(u)?, get(v)?);
            (u.len() == v.len() && u.len() % ts == 0).then_some(((i as usize, j as usize), (u, v)))
        })
        .collect::<Option<_>>()?;
    Some(FactorTiles {
        nt: chol.problem.nt() as usize,
        ts,
        diag,
        lr,
    })
}

/// Work done once per process, outside every timed phase.
pub struct Prepared {
    /// Critical path of the simulated graph under the run's cost model.
    critical_path_ns: Option<u64>,
    /// Sequential reference lanes of the fine DAG.
    reference_lanes: Option<Vec<Vec<u8>>>,
    /// Report digest of the first simulated round.
    first_digest: Option<String>,
    /// Host seconds to drain the windowed source into a graph builder, and
    /// the mean rank it reports (the windowed run discovers its graph
    /// inside `execute_windowed`, so this is timed on its own).
    drain: Option<(f64, f64)>,
}

impl Prepared {
    pub fn new(inputs: &Inputs, spans: &mut Spans) -> Prepared {
        let mut prep = Prepared {
            critical_path_ns: None,
            reference_lanes: None,
            first_digest: None,
            drain: None,
        };
        let span = spans.open("prepare", None);
        match inputs.workload {
            Workload::SimWideLci => {
                let t = Instant::now();
                let mut source = TlrCholeskySource::cost_only(inputs.tlr_problem(), inputs.nodes);
                let mut g = GraphBuilder::new(inputs.nodes);
                while source.next_task(&mut g) {}
                let graph = g.build();
                prep.drain = Some((t.elapsed().as_secs_f64(), source.stats().mean_rank));
                prep.critical_path_ns =
                    Some(check::critical_path_ns(&graph, &inputs.config(false).cost));
            }
            Workload::RealFineDag => prep.reference_lanes = Some(fine_dag_reference(inputs)),
            Workload::SimDeepMpi | Workload::RealTlr => {}
        }
        spans.close(span);
        prep
    }
}

/// What one round measured and checked.
pub struct Round {
    pub setup_s: f64,
    pub run_s: f64,
    pub tasks_attempted: u64,
    pub tasks_not_completed: u64,
    pub verdicts: Vec<Verdict>,
    /// Per-layer readings (traced rounds only).
    pub layers: Layers,
}

/// `sqexp_covariance` plus `LrTile::compress` over every off-diagonal
/// tile, as the numeric build does, timed on its own.
fn time_compression(problem: &TlrProblem) -> f64 {
    let t = Instant::now();
    let grid = Grid2d::new(problem.n);
    let ts = problem.tile_size;
    let nt = problem.nt() as usize;
    let mut ranks = 0usize;
    for i in 0..nt {
        for j in 0..i {
            let block = sqexp_covariance(
                &grid,
                i * ts,
                j * ts,
                ts,
                ts,
                problem.length_scale,
                problem.nugget,
            );
            ranks += LrTile::compress(&block, problem.tol, problem.maxrank).rank();
        }
    }
    std::hint::black_box(ranks);
    t.elapsed().as_secs_f64()
}

/// One round: set up, execute once, check every output.
pub fn run_round(
    inputs: &Inputs,
    trace: bool,
    prep: &mut Prepared,
    spans: &mut Spans,
    round: usize,
) -> Round {
    let mut layers = Layers::default();
    let problem = inputs.tlr_problem();

    // Set-up: graph construction (or the windowed source) and the cluster.
    let t_setup = Instant::now();
    let setup = spans.open("setup", Some(round));
    let build = spans.open("build", Some(round));
    let mut chol = None;
    let mut dag = None;
    let mut source = None;
    let mut graph = None;
    match inputs.workload {
        Workload::SimWideLci => {
            source = Some(TlrCholeskySource::cost_only(problem.clone(), inputs.nodes))
        }
        Workload::SimDeepMpi => {
            let (c, g) = TlrCholesky::build_cost_only(problem.clone(), inputs.nodes);
            chol = Some(c);
            graph = Some(g);
        }
        Workload::RealTlr => {
            let (c, g) = TlrCholesky::build_numeric(problem.clone(), inputs.nodes);
            chol = Some(c);
            graph = Some(g);
        }
        Workload::RealFineDag => {
            let d = fine_dag(inputs);
            graph = Some(d.graph);
            dag = Some(d.finals);
        }
    }
    let build_s = spans.close(build);
    let cluster_new = spans.open("cluster_new", Some(round));
    let cfg = inputs.config(trace);
    let cost = cfg.cost.clone();
    let mut cluster = Cluster::new(cfg);
    let cluster_new_s = spans.close(cluster_new);
    spans.close(setup);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // The critical path is computed from the graph the run executes, once,
    // outside the timed phases.
    if inputs.workload == Workload::SimDeepMpi && prep.critical_path_ns.is_none() {
        let span = spans.open("critical_path", Some(round));
        let g = graph.as_ref().expect("full graph");
        prep.critical_path_ns = Some(check::critical_path_ns(g, &cost));
        spans.close(span);
    }

    // Execution.
    let run = spans.open("run", Some(round));
    let t_run = Instant::now();
    let report = match inputs.workload {
        Workload::SimWideLci => cluster.execute_windowed(
            Box::new(source.take().expect("windowed source")),
            SIM_WINDOW,
        ),
        Workload::SimDeepMpi => cluster.execute(graph.take().expect("graph")),
        Workload::RealTlr | Workload::RealFineDag => {
            cluster.execute_real(graph.take().expect("graph"), inputs.threads)
        }
    };
    let run_s = t_run.elapsed().as_secs_f64();
    spans.close(run);

    // Checks.
    let check_span = spans.open("check", Some(round));
    let expected = inputs.expected_tasks();
    let mut verdicts = vec![
        check::task_count(&report, expected),
        check::messages_conserved(&report),
    ];
    match inputs.workload {
        Workload::SimWideLci | Workload::SimDeepMpi => {
            verdicts.push(check::no_past_schedules(&report));
            verdicts.push(check::makespan_covers_critical_path(
                report.makespan.as_ns(),
                prep.critical_path_ns.expect("critical path prepared"),
            ));
            // Later rounds repeat the first round's inputs exactly.
            let digest = report.to_json();
            match &prep.first_digest {
                Some(first) => verdicts.push(check::deterministic(first, &digest)),
                None => prep.first_digest = Some(digest),
            }
        }
        Workload::RealTlr => {
            let chol = chol.as_ref().expect("numeric build");
            let a = chol.dense_a.as_ref().expect("dense input").data();
            let residual = read_factor(chol, &cluster).map_or(f64::INFINITY, |factor| {
                check::probe_residual(a, &factor, &inputs.probes(problem.n))
            });
            verdicts.push(check::factor_residual(residual, PROBE_BOUND));
        }
        Workload::RealFineDag => {
            let got: Vec<Vec<u8>> = dag
                .as_ref()
                .expect("fine DAG")
                .iter()
                .map(|&v| cluster.data(v).map(|b| b.to_vec()).unwrap_or_default())
                .collect();
            let want = prep.reference_lanes.as_ref().expect("reference lanes");
            verdicts.push(check::lanes_match(&got, want));
        }
    }
    let check_s = spans.close(check_span);
    if round == 0 {
        // Reference figures of the model and the checks, for the log.
        eprintln!(
            "reference: makespan {:.6} s, latency means e2e {:.3} us, msg {:.3} us, request {:.3} us",
            report.makespan.as_secs_f64(),
            mean_or_zero(&report.e2e_latency_us),
            mean_or_zero(&report.msg_latency_us),
            mean_or_zero(&report.request_latency_us),
        );
        for v in &verdicts {
            eprintln!(
                "check {}: {} ({})",
                v.name,
                if v.ok { "ok" } else { "FAILED" },
                v.detail
            );
        }
    }

    if trace {
        layers.set("phase.check_s", check_s);
        layers.read_run(inputs, &cluster, &report, run_s);
        layers.set("core.cluster_new_s", cluster_new_s);
        match inputs.workload {
            Workload::SimWideLci => {
                let (drain_s, mean_rank) = prep.drain.expect("drain timed");
                layers.set("tlr.build_s", drain_s);
                layers.set("tlr.mean_rank", mean_rank);
            }
            Workload::SimDeepMpi | Workload::RealTlr => {
                layers.set("tlr.build_s", build_s);
                layers.set(
                    "tlr.mean_rank",
                    chol.as_ref().expect("build").stats.mean_rank,
                );
                if inputs.workload == Workload::RealTlr {
                    let span = spans.open("compress", Some(round));
                    layers.set("tlr.compress_s", time_compression(&problem));
                    spans.close(span);
                }
            }
            Workload::RealFineDag => layers.set("dag.build_s", build_s),
        }
    }

    Round {
        setup_s,
        run_s,
        tasks_attempted: report.tasks_total.max(expected),
        tasks_not_completed: expected.saturating_sub(report.tasks_executed),
        verdicts,
        layers,
    }
}
