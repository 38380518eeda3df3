//! Engine → observability event bridge.
//!
//! The engine keeps zero dependency on `quarry-obs` (see [`crate::stats`]),
//! but the flight recorder wants *events*, not just counters: which operator
//! finished on which lane, when the pool's queue depth jumped, when a kernel
//! fell back to the scalar path. The bridge is a process-wide hook that
//! `quarry-core` installs once at lifecycle construction; until then every
//! emission is a single relaxed load of an unset [`OnceLock`] and costs
//! nothing.
//!
//! Emission sites are deliberately coarse — per region, per operator, per
//! fallback — never per row or per morsel, so the hook stays off the data
//! path's inner loops.

use std::sync::OnceLock;

/// A structured engine event, borrowed so emission never allocates. The
/// installed hook copies what it keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent<'a> {
    /// An operator finished executing (either executor, any lane).
    OpFinish {
        /// Operator name from the flow.
        op: &'a str,
        rows_in: u64,
        rows_out: u64,
        /// Pool lane that ran it (0 = calling/serial thread).
        lane: u32,
    },
    /// A pool region opened or closed; `depth` is the queue depth right
    /// after the transition, `jobs` the region's job count (0 on close).
    QueueDepth { depth: i64, jobs: u64 },
    /// An expression kernel dropped to the row-at-a-time scalar path;
    /// `total` is the process-lifetime fallback count after this one.
    KernelFallback { total: u64 },
    /// The result cache served one operator's output without executing its
    /// upstream cone.
    CacheHit { op: &'a str, rows: u64 },
    /// The result cache was consulted for an operator and had nothing.
    CacheMiss { op: &'a str },
    /// The result cache admitted one operator output.
    CacheInsert { op: &'a str, bytes: u64 },
    /// The result cache evicted one entry under budget pressure.
    CacheEvict { bytes: u64 },
}

type Hook = Box<dyn Fn(EngineEvent<'_>) + Send + Sync>;

static HOOK: OnceLock<Hook> = OnceLock::new();

/// Installs the process-wide event hook. The first caller wins; returns
/// whether this call installed its hook. Typically called once by
/// `quarry-core` to forward events into the flight recorder.
pub fn set_event_hook(hook: impl Fn(EngineEvent<'_>) + Send + Sync + 'static) -> bool {
    HOOK.set(Box::new(hook)).is_ok()
}

/// Forwards one event to the installed hook, if any.
pub(crate) fn emit(event: EngineEvent<'_>) {
    if let Some(hook) = HOOK.get() {
        hook(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_without_a_hook_is_a_no_op() {
        // Must not panic or allocate observably; the hook may or may not be
        // installed by a sibling test, so just exercise the path.
        emit(EngineEvent::QueueDepth { depth: 0, jobs: 0 });
        emit(EngineEvent::KernelFallback { total: 1 });
        emit(EngineEvent::OpFinish { op: "noop", rows_in: 0, rows_out: 0, lane: 0 });
    }
}
