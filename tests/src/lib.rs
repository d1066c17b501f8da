//! Shared helpers for the integration-test crate (see tests/tests/).

pub mod cold;
pub mod diff;
