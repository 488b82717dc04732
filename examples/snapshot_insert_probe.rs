//! Insert-after-snapshot latency across store sizes.
//!
//! The server publishes a snapshot after every commit, so the next write
//! is always the first one after a fork: whatever copy-on-write state it
//! unshares is paid per commit. This probe times that write on XMark
//! stores of about 1.5k and 148k nodes, with and without a live
//! snapshot, interleaving the two cases so machine drift hits both. The
//! insert target is a bound variable, so the number isolates the write
//! (Δ apply, index maintenance, page copies) from the target's path walk.
//!
//! Run with: `cargo run --release --example snapshot_insert_probe`

use std::time::Instant;
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::{Engine, Item};

const ROUNDS: usize = 400;

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e3
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>8} {:>8} {:>16} {:>16}",
        "factor", "nodes", "after snap (µs)", "no snap (µs)"
    );
    for factor in [0.002, 0.2] {
        let xml = XmarkGen::new(1).generate_xml(&Scale::factor(factor))?;
        let mut engine = Engine::new();
        engine.load_document("doc", &xml)?;
        let person = engine.run("($doc/site/people/person)[1]")?;
        let Some(Item::Node(_)) = person.first() else {
            return Err("no person in the generated document".into());
        };
        engine.bind("target", person);
        let nodes = engine.store.len();
        let insert = "insert { <watch n=\"probe\"/> } into { $target }";
        engine.run(insert)?; // warm the plan cache
        let (mut with_snap, mut without) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let snapshot = engine.snapshot_state();
            let t = Instant::now();
            engine.run(insert)?;
            with_snap.push(t.elapsed().as_nanos() as u64);
            drop(snapshot);
            let t = Instant::now();
            engine.run(insert)?;
            without.push(t.elapsed().as_nanos() as u64);
        }
        println!(
            "{factor:>8} {nodes:>8} {:>16.0} {:>16.0}",
            median_us(with_snap),
            median_us(without)
        );
    }
    Ok(())
}
