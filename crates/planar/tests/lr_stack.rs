//! The left-right embedder's DFS passes are iterative: embedding long paths,
//! cycles and wheel chains (n ≈ 200k) fits in a thread with a 256 KiB stack,
//! and the output is a function of the graph alone.

use std::thread;

use planar_graph::Graph;
use planar_lib::{embed, gen};

const N: usize = 200_000;
const SMALL_STACK: usize = 256 * 1024;

#[test]
fn deep_inputs_embed_on_a_small_stack_deterministically() {
    let inputs: Vec<(&str, Graph)> = vec![
        ("path", gen::path(N)),
        ("cycle", gen::cycle(N)),
        ("wheel_chain", gen::wheel_chain(N / 5, 5)),
    ];
    for (name, g) in inputs {
        let handle = thread::Builder::new()
            .stack_size(SMALL_STACK)
            .spawn(move || {
                let first = embed(&g).expect("planar");
                let second = embed(&g).expect("planar");
                (g, first, second)
            })
            .unwrap();
        let (g, first, second) = handle.join().unwrap_or_else(|_| panic!("{name} panicked"));
        assert_eq!(first, second, "{name}: two calls differ");
        assert_eq!(first.to_graph(), g, "{name}: rotation covers the graph");
        assert!(first.is_planar_embedding(), "{name}: genus > 0");
    }
}
