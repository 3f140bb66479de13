//! Fault-injection sweep over the resilient driver layer.
//!
//! Runs a fixed scenario matrix (transient route error/panic, partition
//! and sizing errors, a route-stage deadline) against a suite design with
//! the degradation ladder enabled, at several worker counts, and checks
//! the recovery contract end to end:
//!
//! * every scenario recovers into a valid tree covering all sinks,
//! * the recovery log is non-empty (each run records its downgrades),
//! * recovered trees are bit-identical across worker counts.
//!
//! ```text
//! cargo run --release -p sllt-bench --bin faultsweep [-- --design s35932]
//! ```
//!
//! Writes `results/faultsweep_<design>.json` and exits nonzero on any
//! contract violation, so CI can use it as a smoke test.

use sllt_bench::arg_value;
use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{
    CollectingObserver, FaultKind, FaultPlan, FaultStage, NullSink, RecoveryPolicy, RunContext,
    StageFault,
};
use sllt_obs::Value;

const WORKERS: [usize; 3] = [1, 2, 4];

struct Scenario {
    name: &'static str,
    faults: FaultPlan,
    route_budget: Option<u64>,
}

fn scenarios(num_sinks: u64) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "transient-route-error",
            faults: FaultPlan::single(StageFault::once(
                FaultStage::Route,
                0,
                Some(0),
                FaultKind::Error,
            )),
            route_budget: None,
        },
        Scenario {
            name: "transient-route-panic",
            faults: FaultPlan::single(StageFault::once(
                FaultStage::Route,
                0,
                Some(0),
                FaultKind::Panic,
            )),
            route_budget: None,
        },
        Scenario {
            name: "partition-error",
            faults: FaultPlan::single(StageFault::once(
                FaultStage::Partition,
                0,
                None,
                FaultKind::Error,
            )),
            route_budget: None,
        },
        Scenario {
            name: "sizing-error",
            faults: FaultPlan::single(StageFault::once(
                FaultStage::Sizing,
                0,
                None,
                FaultKind::Error,
            )),
            route_budget: None,
        },
        Scenario {
            name: "route-deadline",
            faults: FaultPlan::none(),
            // Level 0 costs 4 units/member under CBS, 1 under RSMT; a
            // budget just under the BST cost (2/member) forces the ladder
            // all the way down to the RSMT rung.
            route_budget: Some(num_sinks * 2 - 1),
        },
    ]
}

fn main() -> std::process::ExitCode {
    sllt_bench::run_main(run)
}

fn run() -> Result<(), String> {
    // Injected panics are expected here; keep the default hook from
    // spamming a backtrace per contained panic.
    let quiet_design = arg_value("--design").unwrap_or_else(|| "s35932".into());
    let design = sllt_design::design_by_name(&quiet_design)?;
    std::fs::create_dir_all("results").map_err(|e| format!("create results directory: {e}"))?;
    std::panic::set_hook(Box::new(|_| {}));

    let mut failures = 0usize;
    let mut rows: Vec<Value> = Vec::new();
    for sc in scenarios(design.num_ffs() as u64) {
        let mut trees = Vec::new();
        let mut downgrades = 0usize;
        let mut attempts = 0usize;
        let mut triggers: Vec<Value> = Vec::new();
        let mut ok = true;
        for workers in WORKERS {
            let cts = HierarchicalCts {
                route_budget: sc.route_budget,
                recovery: RecoveryPolicy::standard(),
                workers,
                ..HierarchicalCts::default()
            };
            let mut obs = CollectingObserver::new();
            let ctx = RunContext {
                faults: sc.faults.clone(),
                ..RunContext::new(&mut obs, &NullSink)
            };
            match cts.run_in(&design, ctx) {
                Ok(tree) => {
                    if let Err(e) = tree.validate() {
                        eprintln!("FAIL {}: workers={workers}: invalid tree: {e}", sc.name);
                        ok = false;
                    }
                    if tree.sinks().len() != design.num_ffs() {
                        eprintln!("FAIL {}: workers={workers}: sink count mismatch", sc.name);
                        ok = false;
                    }
                    downgrades = obs.levels.iter().map(|l| l.downgrades.len()).sum();
                    attempts = obs.levels.iter().map(|l| l.attempts).sum();
                    if workers == WORKERS[0] {
                        triggers = obs
                            .levels
                            .iter()
                            .flat_map(|l| &l.downgrades)
                            .map(|d| Value::from(d.trigger.as_str()))
                            .collect();
                    }
                    trees.push(tree);
                }
                Err(e) => {
                    eprintln!("FAIL {}: workers={workers}: did not recover: {e}", sc.name);
                    ok = false;
                }
            }
        }
        // The recovery log must not be empty: a sweep that recovers
        // without recording its downgrades is a telemetry regression.
        if downgrades == 0 {
            eprintln!("FAIL {}: recovery log is empty", sc.name);
            ok = false;
        }
        let deterministic = trees.windows(2).all(|w| w[0] == w[1]);
        if !deterministic {
            eprintln!(
                "FAIL {}: recovered trees diverge across worker counts",
                sc.name
            );
            ok = false;
        }
        if !ok {
            failures += 1;
        }
        println!(
            "{:<24} recovered={} downgrades={downgrades} attempts={attempts} deterministic={deterministic}",
            sc.name,
            trees.len() == WORKERS.len(),
        );
        rows.push(
            Value::obj()
                .with("scenario", sc.name)
                .with("recovered", trees.len() == WORKERS.len())
                .with("downgrades", downgrades)
                .with("attempts", attempts)
                .with("deterministic", deterministic)
                .with("triggers", Value::Arr(triggers)),
        );
    }

    let out = Value::obj()
        .with("bench", "faultsweep")
        .with("schema", sllt_obs::SCHEMA_VERSION)
        .with("design", design.name.as_str())
        .with("sinks", design.num_ffs())
        .with(
            "workers",
            Value::Arr(WORKERS.iter().map(|&w| Value::from(w)).collect()),
        )
        .with("scenarios", rows);
    let path = format!("results/faultsweep_{}.json", design.name);
    std::fs::write(&path, out.encode() + "\n")
        .map_err(|e| format!("write faultsweep results: {e}"))?;
    println!("wrote {path}");
    if failures > 0 {
        return Err(format!(
            "{failures} scenario(s) violated the recovery contract"
        ));
    }
    Ok(())
}
