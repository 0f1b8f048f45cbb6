//! The timed run: end-to-end metrics, no tracing, system allocator.

fn main() {
    std::process::exit(musuite_perfbench::run::main(false));
}
