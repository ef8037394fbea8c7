//! Regenerates paper figure 14 (see `acclaim_bench::figs`).
fn main() {
    acclaim_bench::emit(
        "fig14_production_training",
        &acclaim_bench::figs::fig14::run(),
    );
}
