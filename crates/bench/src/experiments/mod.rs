//! One module per table/figure of the paper (DESIGN.md Section 5).

pub mod accuracy;
pub mod counterexample;
pub mod engine;
pub mod entropy;
pub mod heavy_hitters;
pub mod lower_bound;
pub mod morris;
pub mod nvm;
pub mod p_small;
pub mod recovery;
pub mod scaling;
pub mod sharding;
pub mod table1;
pub mod throughput;
