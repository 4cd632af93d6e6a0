//! Table I: global connectivity during the transition procedure, per
//! scenario and method.
//!
//! The paper reports a single Y/N per (scenario, method). Connectivity
//! depends on the FoI separation, so this harness evaluates the full
//! 10×–100× sweep and reports **Y only when global connectivity held at
//! every separation** — the strictest reading, and the one under which
//! the proposed methods' guarantee is meaningful. The per-separation
//! breakdown is printed below the table.
//!
//! ```sh
//! cargo run --release -p anr-bench --bin table1_connectivity
//! cargo run --release -p anr-bench --bin table1_connectivity -- --quick
//! ```

use anr_bench::{
    paper_separations, quick_flag, quick_separations, sweep_scenario_rows, BenchError, METHOD_NAMES,
};
use anr_march::MarchConfig;
use std::collections::BTreeMap;

fn main() -> Result<(), BenchError> {
    let separations = if quick_flag() {
        quick_separations()
    } else {
        paper_separations()
    };
    let config = MarchConfig::default();

    // (scenario, method) → per-separation connectivity.
    let mut results: BTreeMap<(u8, &'static str), Vec<u8>> = BTreeMap::new();
    for id in 1..=7u8 {
        for row in sweep_scenario_rows(id, &separations, &config)? {
            results
                .entry((id, row.method))
                .or_default()
                .push(row.connected);
        }
    }

    println!("TABLE I. GLOBAL CONNECTIVITY DURING TRANSITION PROCEDURE");
    println!(
        "(Y = connected at every instant of the march for every separation in {:?} × r_c)",
        separations
    );
    println!(
        "{:<12} {:>14} {:>14} {:>19} {:>10}",
        "", "Our Method (a)", "Our Method (b)", "Direct Translation", "Hungarian"
    );
    for id in 1..=7u8 {
        let cell = |method: &str| -> &'static str {
            if results[&(id, method)].iter().all(|&c| c == 1) {
                "Y"
            } else {
                "N"
            }
        };
        println!(
            "{:<12} {:>14} {:>14} {:>19} {:>10}",
            format!("Scenario {id}"),
            cell("ours_a"),
            cell("ours_b"),
            cell("direct_translation"),
            cell("hungarian"),
        );
    }

    println!("\nper-separation breakdown (1 = connected):");
    println!(
        "scenario,method,{}",
        separations
            .iter()
            .map(|s| format!("sep{s}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    for id in 1..=7u8 {
        for name in METHOD_NAMES {
            let row = &results[&(id, name)];
            println!(
                "{id},{name},{}",
                row.iter().map(u8::to_string).collect::<Vec<_>>().join(",")
            );
        }
    }
    Ok(())
}
