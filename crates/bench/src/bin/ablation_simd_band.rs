//! ABL8: the banded overlap kernel's scalar instantiation vs its lanes,
//! with adaptive X-drop banding on and off.
fn main() {
    pgasm_bench::simd_band::run(pgasm_bench::util::env_scale());
}
