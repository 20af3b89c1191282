//! Code designer: build and certify a custom LRC.
//!
//! Pick (k, global parities, group size), and this example constructs
//! the code, measures its true locality and minimum distance by brute
//! force, compares against the Theorem-2 bound, checks achievability on
//! the Appendix-C information flow graph where applicable, and prints
//! the repair equations.
//!
//! Run with: `cargo run --example code_designer`

use xorbas::codes::analysis::{code_locality, minimum_distance};
use xorbas::codes::bounds::{lrc_distance_bound, mds_distance};
use xorbas::codes::{ErasureCodec, Lrc, LrcSpec};
use xorbas::flowgraph::{all_collectors_feasible, GadgetParams};

fn design(k: usize, global_parities: usize, group_size: usize) {
    let spec = LrcSpec {
        k,
        global_parities,
        group_size,
        implied_parity: true,
    };
    let lrc: Lrc = match Lrc::new(spec) {
        Ok(l) => l,
        Err(e) => {
            println!("(k={k}, g={global_parities}, r={group_size}): rejected — {e}");
            return;
        }
    };
    let n = lrc.total_blocks();
    let d = minimum_distance(lrc.generator());
    let r = spec.locality();
    let locality = code_locality(lrc.generator(), r).expect("locality within spec");
    let bound = lrc_distance_bound(n, k, r);
    println!(
        "LRC ({k}, {}, {r}) — n = {n}, overhead {:.2}x",
        n - k,
        lrc.spec().storage_overhead()
    );
    println!("  locality (measured) : {locality}");
    println!("  distance (measured) : {d}");
    println!(
        "  Theorem-2 bound     : {bound}   MDS at same (n,k): {}",
        mds_distance(n, k)
    );
    if n % (r + 1) == 0 {
        let ok = all_collectors_feasible(GadgetParams { k, n, r, d });
        println!(
            "  flow-graph check    : d = {d} is {}",
            if ok { "achievable" } else { "NOT achievable" }
        );
    }
    println!(
        "  repair equations    : {} XOR groups",
        lrc.equations().len()
    );
    for eq in lrc.equations() {
        let ids: Vec<String> = eq.indices().map(|i| format!("y{i}")).collect();
        println!("      {} = 0", ids.join(" + "));
    }
    println!();
}

fn main() {
    println!("— the paper's production code —\n");
    design(10, 4, 5);
    println!("— a cheaper-repair variant (smaller groups) —\n");
    design(10, 4, 2);
    println!("— structurally invalid: r must divide k —");
    design(10, 4, 3);
}
