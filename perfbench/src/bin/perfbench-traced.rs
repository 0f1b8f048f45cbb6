//! The traced run: per-layer metrics, with a counting allocator.

#[global_allocator]
static ALLOC: musuite_perfbench::alloc::CountingAlloc = musuite_perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(musuite_perfbench::run::main(true));
}
