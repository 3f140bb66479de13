//! Paper Table 3: wirelength, capacitance and wire delay of BST-DME vs
//! CBS over random clock nets at three skew levels.
//!
//! ```text
//! cargo run --release -p sllt-bench --bin table3 [-- --nets 10000]
//! ```

use sllt_bench::{arg_parse, emit_json, Table};
use sllt_buffer::timing::propagate;
use sllt_core::cbs::{cbs, step1_initial_bst, CbsConfig};
use sllt_design::NetGenerator;
use sllt_route::{topogen::TopologyScheme, DelayModel};
use sllt_timing::{BufferLibrary, Technology};
use sllt_tree::{ClockNet, ClockTree};

const SKEWS: [f64; 3] = [80.0, 10.0, 5.0];

fn measure(tree: &ClockTree, net: &ClockNet, tech: &Technology) -> (f64, f64, f64) {
    let wl = tree.wirelength();
    let cap = tech.net_cap(net.total_pin_cap(), wl);
    // Routing trees carry no buffers: the timing walk needs no cells.
    let delays = propagate(tree, tech, &BufferLibrary::from_cells(Vec::new()), |_| 1.0).delay;
    let delay = tree
        .sinks()
        .iter()
        .map(|&s| delays[s.index()])
        .fold(0.0f64, f64::max);
    (wl, cap, delay)
}

fn main() {
    let nets = arg_parse("--nets", 2000usize);
    let tech = Technology::n28();
    let gen = NetGenerator::paper();

    let mut bst = [[0.0f64; 3]; 3]; // [metric][skew]
    let mut cbs_m = [[0.0f64; 3]; 3];
    for (ki, &skew) in SKEWS.iter().enumerate() {
        for net in gen.take(nets) {
            let cfg = CbsConfig {
                scheme: TopologyScheme::GreedyDist,
                skew_bound: skew,
                eps: 0.2,
                model: DelayModel::Elmore(tech),
            };
            let b = measure(&step1_initial_bst(&net, &cfg), &net, &tech);
            let c = measure(&cbs(&net, &cfg), &net, &tech);
            for (m, (&bv, &cv)) in [b.0, b.1, b.2].iter().zip(&[c.0, c.1, c.2]).enumerate() {
                bst[m][ki] += bv;
                cbs_m[m][ki] += cv;
            }
        }
        for m in 0..3 {
            bst[m][ki] /= nets as f64;
            cbs_m[m][ki] /= nets as f64;
        }
    }

    println!("Table 3 — BST-DME vs CBS, {nets} nets per skew level");
    let mut table = Table::new(vec![
        "",
        "WL 80ps",
        "WL 10ps",
        "WL 5ps",
        "Cap 80ps",
        "Cap 10ps",
        "Cap 5ps",
        "Delay 80ps",
        "Delay 10ps",
        "Delay 5ps",
    ]);
    let units = ["µm", "fF", "ps"];
    let _ = units;
    let fmt = |v: f64| format!("{v:.1}");
    table.row({
        let mut r = vec!["BST-DME".to_string()];
        for row in &bst {
            r.extend(row.iter().map(|&v| fmt(v)));
        }
        r
    });
    table.row({
        let mut r = vec!["CBS".to_string()];
        for row in &cbs_m {
            r.extend(row.iter().map(|&v| fmt(v)));
        }
        r
    });
    table.row({
        let mut r = vec!["Reduce".to_string()];
        for m in 0..3 {
            for k in 0..3 {
                r.push(format!(
                    "{:+.1}%",
                    (bst[m][k] - cbs_m[m][k]) / bst[m][k] * 100.0
                ));
            }
        }
        r
    });
    println!("{}", table.render());
    println!("(columns: wirelength µm, net cap fF, max Elmore wire delay ps;");
    println!(" paper: CBS reduces BST-DME by ~16 % WL, ~13 % cap, ~25 % delay at every level)");
    emit_json("table3", vec![("table", table.to_json())]);
}
