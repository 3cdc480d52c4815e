//! Output checks, computed apart from the program under test.
//!
//! Every check takes plain numbers or bytes that the benchmark read out of
//! the program, and compares them with something the benchmark computed on
//! its own: a closed form, a conservation law, a longest path, a random
//! probe of the factorization, or a plain sequential loop. None compares
//! against a stored copy of an earlier output.

use std::collections::HashMap;

use amt_core::{CostModel, RunReport, TaskGraph};

/// Outcome of one named check.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Verdict {
    fn new(name: &'static str, ok: bool, detail: String) -> Verdict {
        Verdict { name, ok, detail }
    }
}

/// Tasks of a right-looking tile Cholesky on an `nt × nt` tile grid:
/// `nt` POTRF, `nt(nt−1)/2` TRSM and SYRK each, `nt(nt−1)(nt−2)/6` GEMM,
/// which sum to `nt(nt+1)(nt+2)/6`.
pub fn cholesky_tasks(nt: u64) -> u64 {
    nt * (nt + 1) * (nt + 2) / 6
}

/// The run holds exactly `expected` tasks, and every one of them ran.
pub fn task_count(report: &RunReport, expected: u64) -> Verdict {
    Verdict::new(
        "task_count",
        report.tasks_total == expected && report.tasks_executed == expected,
        format!(
            "expected {expected}, graph held {}, executed {}",
            report.tasks_total, report.tasks_executed
        ),
    )
}

/// Every active message sent was received, and every put started landed
/// at its target, summed over all nodes.
pub fn messages_conserved(report: &RunReport) -> Verdict {
    let sum =
        |f: fn(&amt_comm::EngineStats) -> u64| -> u64 { report.engine_stats.iter().map(f).sum() };
    let am_sent = sum(|s| s.am_sent.get());
    let am_received = sum(|s| s.am_received.get());
    let puts_started = sum(|s| s.puts_started.get());
    let puts_done = sum(|s| s.puts_remote_done.get());
    Verdict::new(
        "messages_conserved",
        am_sent == am_received && puts_started == puts_done,
        format!(
            "am sent {am_sent} received {am_received}; puts started {puts_started} landed {puts_done}"
        ),
    )
}

/// No component of the simulator scheduled an event into the past.
pub fn no_past_schedules(report: &RunReport) -> Verdict {
    Verdict::new(
        "no_past_schedules",
        report.schedule_past_clamped == 0,
        format!("{} clamped schedules", report.schedule_past_clamped),
    )
}

/// Longest chain of task charges through the graph's read-after-write
/// dependences, in ns. Tasks are stored in insertion order, so every
/// producer precedes its consumers.
pub fn critical_path_ns(graph: &TaskGraph, cost: &CostModel) -> u64 {
    let mut finish = vec![0u64; graph.task_count()];
    for task in graph.tasks() {
        let ready = task
            .inputs
            .iter()
            .filter_map(|v| graph.version(v.0).producer)
            .map(|p| finish[p])
            .max()
            .unwrap_or(0);
        let charge = cost.task_charge(task.name, task.flops, task.efficiency);
        finish[task.id] = ready + charge.as_ns();
    }
    finish.into_iter().max().unwrap_or(0)
}

/// No schedule can finish before its critical path.
pub fn makespan_covers_critical_path(makespan_ns: u64, critical_path_ns: u64) -> Verdict {
    Verdict::new(
        "makespan_covers_critical_path",
        makespan_ns >= critical_path_ns,
        format!("makespan {makespan_ns} ns, critical path {critical_path_ns} ns"),
    )
}

/// Two executions of the same inputs in one process made the same
/// scheduling decisions.
pub fn deterministic(first: &str, this: &str) -> Verdict {
    Verdict::new(
        "deterministic_report",
        first == this,
        format!("report digests of {} and {} bytes", first.len(), this.len()),
    )
}

/// A Cholesky factor read back tile by tile: lower-triangular diagonal
/// tiles and low-rank `U·Vᵀ` off-diagonal tiles, column-major `f64`.
pub struct FactorTiles {
    pub nt: usize,
    pub ts: usize,
    /// `diag[k]`: the `ts × ts` tile `L[k,k]`; entries above its diagonal
    /// are ignored.
    pub diag: Vec<Vec<f64>>,
    /// `lr[&(i, j)]` for `i > j`: `(U, V)`, each `ts × rank`.
    pub lr: HashMap<(usize, usize), (Vec<f64>, Vec<f64>)>,
}

/// Little-endian `f64`s of a payload.
pub fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

impl FactorTiles {
    /// `y[rows of tile i] += T_ij · x[rows of tile j]`, or its transpose.
    fn apply_tile(&self, i: usize, j: usize, transpose: bool, x: &[f64], y: &mut [f64]) {
        let ts = self.ts;
        let (src, dst) = if transpose { (i, j) } else { (j, i) };
        let xs = &x[src * ts..(src + 1) * ts];
        let ys = &mut y[dst * ts..(dst + 1) * ts];
        if i == j {
            let d = &self.diag[i];
            for c in 0..ts {
                for r in c..ts {
                    let l = d[c * ts + r];
                    if transpose {
                        ys[c] += l * xs[r];
                    } else {
                        ys[r] += l * xs[c];
                    }
                }
            }
            return;
        }
        let (u, v) = &self.lr[&(i, j)];
        // L_ij = U·Vᵀ, so L_ij·x = U·(Vᵀx) and L_ijᵀ·x = V·(Uᵀx).
        let (inner, outer) = if transpose { (u, v) } else { (v, u) };
        let rank = inner.len() / ts;
        for k in 0..rank {
            let col = &inner[k * ts..(k + 1) * ts];
            let s: f64 = col.iter().zip(xs).map(|(a, b)| a * b).sum();
            let out = &outer[k * ts..(k + 1) * ts];
            for (y, o) in ys.iter_mut().zip(out) {
                *y += s * o;
            }
        }
    }

    /// `L·x` (or `Lᵀ·x`).
    fn mul(&self, transpose: bool, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nt * self.ts];
        for i in 0..self.nt {
            for j in 0..=i {
                self.apply_tile(i, j, transpose, x, &mut y);
            }
        }
        y
    }
}

/// Largest `‖A·x − L·(Lᵀ·x)‖ / ‖A·x‖` over the probe vectors, with `a` the
/// dense column-major input matrix. A cheap randomized stand-in for the
/// dense `‖A − L·Lᵀ‖` residual: O(n²) per probe instead of O(n³).
pub fn probe_residual(a: &[f64], factor: &FactorTiles, probes: &[Vec<f64>]) -> f64 {
    let n = factor.nt * factor.ts;
    assert_eq!(a.len(), n * n, "input matrix is not n × n");
    let mut worst = 0.0f64;
    for x in probes {
        let mut ax = vec![0.0; n];
        for (c, &xc) in x.iter().enumerate() {
            for (y, &acr) in ax.iter_mut().zip(&a[c * n..(c + 1) * n]) {
                *y += acr * xc;
            }
        }
        let llx = factor.mul(false, &factor.mul(true, x));
        let diff: f64 = ax.iter().zip(&llx).map(|(p, q)| (p - q) * (p - q)).sum();
        let norm: f64 = ax.iter().map(|p| p * p).sum();
        worst = worst.max((diff / norm).sqrt());
    }
    worst
}

/// Relative probe residual below `bound`.
pub fn factor_residual(residual: f64, bound: f64) -> Verdict {
    Verdict::new(
        "factor_residual",
        residual < bound,
        format!("probe residual {residual:.3e}, bound {bound:.0e}"),
    )
}

/// Every lane the program produced is bitwise equal to the sequential
/// reference.
pub fn lanes_match(got: &[Vec<u8>], want: &[Vec<u8>]) -> Verdict {
    let bad = if got.len() != want.len() {
        got.len().max(want.len())
    } else {
        got.iter().zip(want).filter(|(g, w)| g != w).count()
    };
    Verdict::new(
        "lanes_match_sequential",
        bad == 0,
        format!("{bad} of {} lanes differ", want.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{fine_dag, fine_dag_reference, read_factor, Inputs, Workload};
    use amt_core::{Cluster, ClusterConfig, ExecMode};
    use amt_simnet::SimTime;
    use amt_tlr::{TlrCholesky, TlrProblem};

    #[test]
    fn closed_form_matches_the_built_graph() {
        for nt in 1..8u64 {
            let problem = TlrProblem::new(nt as usize * 100, 100);
            let (chol, graph) = TlrCholesky::build_cost_only(problem, 4);
            assert_eq!(chol.stats.tasks(), cholesky_tasks(nt));
            assert_eq!(graph.task_count() as u64, cholesky_tasks(nt));
        }
    }

    fn small_sim() -> (RunReport, u64, u64) {
        let nt = 6;
        let (_, graph) = TlrCholesky::build_cost_only(TlrProblem::new(nt * 1200, 1200), 4);
        let cfg = ClusterConfig {
            nodes: 4,
            mode: ExecMode::CostOnly,
            ..Default::default()
        };
        let cp = critical_path_ns(&graph, &cfg.cost);
        let report = Cluster::new(cfg).execute(graph);
        (report, cholesky_tasks(nt as u64), cp)
    }

    #[test]
    fn simulated_checks_pass_on_a_real_run_and_fail_on_corruptions() {
        let (report, tasks, cp) = small_sim();
        assert!(task_count(&report, tasks).ok);
        assert!(messages_conserved(&report).ok);
        assert!(no_past_schedules(&report).ok);
        assert!(cp > 0);
        assert!(makespan_covers_critical_path(report.makespan.as_ns(), cp).ok);
        let digest = report.to_json();
        assert!(deterministic(&digest, &digest).ok);

        // One missing task.
        let mut missing = report.clone();
        missing.tasks_executed -= 1;
        assert!(!task_count(&missing, tasks).ok);
        assert!(!task_count(&report, tasks + 1).ok);
        // One message lost in each class.
        let mut lost_am = report.clone();
        let s = &mut lost_am.engine_stats[0];
        s.am_received.add(1);
        assert!(!messages_conserved(&lost_am).ok);
        let mut lost_put = report.clone();
        lost_put.engine_stats[1].puts_started.add(1);
        assert!(!messages_conserved(&lost_put).ok);
        // A past schedule, an impossible makespan, a changed decision.
        let mut clamped = report.clone();
        clamped.schedule_past_clamped = 1;
        assert!(!no_past_schedules(&clamped).ok);
        assert!(!makespan_covers_critical_path(cp - 1, cp).ok);
        let mut moved = report.clone();
        moved.makespan += SimTime::from_ns(1);
        assert!(!deterministic(&digest, &moved.to_json()).ok);
    }

    #[test]
    fn critical_path_of_a_chain_is_the_sum_of_its_charges() {
        use amt_core::{GraphBuilder, TaskDesc};
        let mut g = GraphBuilder::new(1);
        g.data(0, 8, 0, None);
        g.data(1, 8, 0, None);
        // Two chains on key 0 (3 tasks) and key 1 (1 task).
        for _ in 0..3 {
            g.insert(TaskDesc::new("a").flops(36e3).read_key(0).write(0, 8));
        }
        g.insert(TaskDesc::new("a").flops(36e3).read_key(1).write(1, 8));
        let cost = CostModel::default();
        let one = cost.task_charge("a", 36e3, 1.0).as_ns();
        assert_eq!(critical_path_ns(&g.build(), &cost), 3 * one);
    }

    #[test]
    fn probe_residual_passes_the_factor_and_catches_a_perturbed_tile() {
        let inputs = Inputs::new(Workload::RealTlr, 7).with_size(4);
        let (chol, graph) = TlrCholesky::build_numeric(inputs.tlr_problem(), 2);
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            mode: ExecMode::Numeric,
            ..Default::default()
        });
        let report = cluster.execute_real(graph, 2);
        assert!(report.complete());
        let a = chol
            .dense_a
            .as_ref()
            .expect("numeric build")
            .data()
            .to_vec();
        let probes = inputs.probes(chol.problem.n);
        let mut factor = read_factor(&chol, &cluster).expect("every tile");
        assert!(factor_residual(probe_residual(&a, &factor, &probes), 1e-6).ok);

        // One perturbed off-diagonal tile.
        let (u, _) = factor.lr.get_mut(&(3, 1)).expect("tile (3,1)");
        u[5] += 1e-3;
        assert!(!factor_residual(probe_residual(&a, &factor, &probes), 1e-6).ok);
        // One perturbed diagonal tile.
        let mut factor = read_factor(&chol, &cluster).expect("every tile");
        factor.diag[2][0] *= 1.0 + 1e-4;
        assert!(!factor_residual(probe_residual(&a, &factor, &probes), 1e-6).ok);
        // A cluster that never ran holds no tiles to read.
        let idle = Cluster::new(ClusterConfig {
            nodes: 2,
            ..Default::default()
        });
        assert!(read_factor(&chol, &idle).is_none());
    }

    #[test]
    fn lane_check_passes_the_run_and_catches_one_flipped_byte() {
        let inputs = Inputs::new(Workload::RealFineDag, 3).with_size(12);
        let dag = fine_dag(&inputs);
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: inputs.nodes,
            mode: ExecMode::Numeric,
            ..Default::default()
        });
        let report = cluster.execute_real(dag.graph, 2);
        assert!(report.complete());
        let got: Vec<Vec<u8>> = dag
            .finals
            .iter()
            .map(|v| cluster.data(*v).expect("final lane").to_vec())
            .collect();
        let want = fine_dag_reference(&inputs);
        assert!(lanes_match(&got, &want).ok);

        let mut flipped = got.clone();
        flipped[5][100] ^= 0x10;
        assert!(!lanes_match(&flipped, &want).ok);
        assert!(!lanes_match(&got[1..], &want).ok);
    }
}
