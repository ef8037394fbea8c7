//! Regenerates paper figure 13 (see `acclaim_bench::figs`).
fn main() {
    acclaim_bench::emit(
        "fig13_parallel_collection",
        &acclaim_bench::figs::fig13::run(),
    );
}
