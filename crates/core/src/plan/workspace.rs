//! The mutable half of plan execution: a reusable arena of ping-pong
//! activation buffers plus kernel scratch, sized from a compiled plan so
//! steady-state forwards never touch the allocator.

use super::ExecutionPlan;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Reusable execution arena for [`ExecutionPlan::forward`].
///
/// Holds two ping-pong activation buffers (each large enough for the
/// biggest intermediate at the workspace's batch size) and one kernel
/// scratch of the plan's `conv_scratch_len` elements, which every conv and
/// fused step carves exact slices from: a conv's zero-ringed planes or
/// phase planes, a fused step's padded plane, half-addition plane,
/// block-sum planes `G` and the `G`-conv's phase planes. All buffers grow
/// on demand and never shrink, so after the first forward at a given batch
/// size every subsequent forward is allocation-free.
///
/// The workspace is the *mutable* half of execution — the plan itself is
/// immutable and `Send + Sync`; give each thread its own `Workspace` to
/// share one plan across threads.
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) a: Vec<f32>,
    pub(crate) b: Vec<f32>,
    pub(crate) conv: Vec<f32>,
    batch: usize,
}

impl Workspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for `plan` at up to `max_batch` items per
    /// forward, so even the first call allocates nothing.
    pub fn for_plan(plan: &ExecutionPlan, max_batch: usize) -> Self {
        let mut ws = Self::new();
        ws.ensure(plan, max_batch.max(1));
        ws
    }

    /// Grow (never shrink) every buffer to what `plan` needs at `batch`.
    pub(crate) fn ensure(&mut self, plan: &ExecutionPlan, batch: usize) {
        let batch = batch.max(1);
        let need = plan.buf_item_len * batch;
        if self.a.len() < need {
            self.a.resize(need, 0.0);
        }
        if self.b.len() < need {
            self.b.resize(need, 0.0);
        }
        if self.conv.len() < plan.conv_scratch_len {
            self.conv.resize(plan.conv_scratch_len, 0.0);
        }
        self.batch = self.batch.max(batch);
    }

    /// Largest batch size this workspace has been sized for.
    pub fn max_batch(&self) -> usize {
        self.batch
    }

    /// Total f32 capacity of the workspace: both activation buffers and the
    /// kernel scratch — stable across repeated forwards at the same batch
    /// size, which is what the zero-steady-state-allocation tests assert on.
    pub fn buffer_capacity(&self) -> usize {
        self.a.capacity() + self.b.capacity() + self.conv.capacity()
    }
}

/// A shared, thread-safe pool of [`Workspace`]s.
///
/// `ExecutionPlan::forward` needs one mutable workspace per concurrent
/// caller. A pool lets many threads (serving workers, rayon batch items)
/// share a small set of warm arenas instead of either contending on a
/// single workspace or allocating a fresh one per call: [`Self::lease`]
/// pops an idle workspace (or creates one when the pool is empty — leasing
/// never blocks), and the [`PooledWorkspace`] guard returns it on drop.
///
/// The pool therefore holds at most as many workspaces as the peak number
/// of concurrent leases, and steady-state leasing is allocation-free.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    idle: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created on first lease.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool pre-warmed with `count` workspaces, each sized for `plan` at
    /// `max_batch` items, so even first leases are allocation-free.
    pub fn for_plan(plan: &ExecutionPlan, count: usize, max_batch: usize) -> Self {
        let pool = Self::new();
        {
            let mut idle = pool.idle.lock().unwrap_or_else(|e| e.into_inner());
            idle.extend((0..count).map(|_| Workspace::for_plan(plan, max_batch)));
        }
        pool
    }

    /// Borrow a workspace: pops an idle one, or creates a cold one when
    /// none is free. Never blocks behind another lease.
    pub fn lease(&self) -> PooledWorkspace<'_> {
        let ws = self
            .idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        PooledWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Number of idle (checked-in) workspaces currently held.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn checkin(&self, ws: Workspace) {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).push(ws);
    }
}

/// RAII lease of a [`Workspace`] from a [`WorkspacePool`]; derefs to the
/// workspace and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace<'a> {
    pool: &'a WorkspacePool,
    ws: Option<Workspace>,
}

impl Deref for PooledWorkspace<'_> {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.checkin(ws);
        }
    }
}
