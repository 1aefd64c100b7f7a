//! Runs the full experiment suite (the data behind EXPERIMENTS.md).
fn main() {
    let scale = pgasm_bench::util::env_scale();
    println!("pgasm experiment suite (scale = {scale})");
    pgasm_bench::fig5::run(scale);
    pgasm_bench::fig9::run(scale);
    pgasm_bench::table1::run(scale);
    pgasm_bench::table2::run(scale);
    pgasm_bench::table3::run(scale);
    pgasm_bench::sec8::run(scale);
    pgasm_bench::validation_exp::run(scale);
    pgasm_bench::ablations::masking(scale);
    pgasm_bench::ablations::ordering(scale);
    pgasm_bench::ablations::dup_elim(scale);
    pgasm_bench::ablations::filter(scale);
    println!("\nall experiments complete");
}
