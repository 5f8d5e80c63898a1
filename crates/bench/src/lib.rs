//! Support crate for the `repro` binary, which regenerates every paper
//! table and figure (DESIGN.md carries the experiment index).

#![forbid(unsafe_code)]
