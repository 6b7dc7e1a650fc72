//! The engine's one threading protocol: persistent shard workers with state
//! ping-pong.
//!
//! The sharded kinds of [`SoaBackend`](crate::SoaBackend)
//! (`soa-sharded:N`, `event-sharded:N`) spawn one worker thread per shard at
//! construction. Between batches the engine owns every [`ShardState`], so bus
//! reads and commands see exactly what the inline engine would show — no
//! snapshot staleness to reason about. A batch moves each state to its
//! worker together with an `Arc<Frame>`; the worker runs the same per-shard
//! batch runner as the inline path, drops its frame handle, and sends the
//! state back on its own return channel. Receiving every state back is the
//! barrier: by then every worker has released the frame, so the coordinator
//! owns it uniquely again and reuses its buffers for the next batch
//! (allocation-free steady state). The engine then journals the batch's
//! wake records on the calling thread, exactly as it does inline.
//!
//! `load_of` is not `Sync`, so the coordinator evaluates loads into the
//! frame: every slot on every sub-step in dense mode or when a power edge
//! lands in the batch; otherwise only each lane's active slots (the engine
//! wakes commanded slots before it fills the frame), plus one
//! final-sub-step load per slot for the sleeping replay.
//!
//! Spawning threads per batch instead (a `std::thread::scope` fan-out) costs
//! ≈95 µs per batch for 4 threads on a 2-vCPU host; a persistent-worker
//! batch costs ≈12 µs of coordination there.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use recharge_telemetry::tspan;
use recharge_units::{RackId, Seconds, Watts};

use crate::soa::{Batch, Mode, ShardState};

/// One batch of sub-steps, shared read-only with every worker.
struct Frame {
    mode: Mode,
    base: u64,
    power_before: bool,
    dt: Seconds,
    input_power: Vec<bool>,
    shards: Vec<ShardFrame>,
}

/// One shard's load material within a frame.
#[derive(Default)]
struct ShardFrame {
    /// Sorted slots that can execute this batch.
    awake: Vec<u32>,
    /// Whether `awake` is every slot, so a slot is its own column.
    every_slot: bool,
    /// Offered loads, sub-step-major over the `awake` columns
    /// (`loads[substep * awake.len() + column]`).
    loads: Vec<Watts>,
    /// The schedule's final offered load per slot, for the sleeping replay
    /// (event mode only).
    final_loads: Vec<Watts>,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            mode: Mode::Dense,
            base: 0,
            power_before: true,
            dt: Seconds::ZERO,
            input_power: Vec::new(),
            shards: Vec::new(),
        }
    }

    fn fill(
        &mut self,
        states: &[ShardState],
        batch: &Batch<'_>,
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        self.mode = batch.mode;
        self.base = batch.base;
        self.power_before = batch.power_before;
        self.dt = batch.dt;
        self.input_power.clear();
        self.input_power.extend_from_slice(batch.input_power);
        self.shards.resize_with(states.len(), ShardFrame::default);
        // A power edge anywhere in the batch wakes every slot.
        let has_edge = batch.input_power.contains(&!batch.power_before);
        let every_slot = batch.mode == Mode::Dense || has_edge;
        for (sf, state) in self.shards.iter_mut().zip(states) {
            sf.fill(state, batch, every_slot, load_of);
        }
    }

    fn batch(&self) -> Batch<'_> {
        Batch {
            mode: self.mode,
            base: self.base,
            power_before: self.power_before,
            dt: self.dt,
            input_power: &self.input_power,
        }
    }
}

impl ShardFrame {
    fn fill(
        &mut self,
        state: &ShardState,
        batch: &Batch<'_>,
        every_slot: bool,
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        let shard = &state.shard;
        let len = shard.len();
        self.awake.clear();
        self.loads.clear();
        self.final_loads.clear();
        self.every_slot = every_slot;
        if every_slot {
            self.awake
                .extend(0..u32::try_from(len).expect("shard fits u32"));
        } else {
            self.awake.extend_from_slice(state.lane.active_slots());
        }
        let n = batch.input_power.len();
        self.loads.reserve(self.awake.len() * n);
        for i in 0..n {
            for &slot in &self.awake {
                self.loads.push(load_of(shard.rack_at(slot as usize), i));
            }
        }
        if batch.mode == Mode::Event {
            self.final_loads
                .extend((0..len).map(|slot| load_of(shard.rack_at(slot), n - 1)));
        }
    }

    fn load(&self, substep: usize, slot: usize) -> Watts {
        let column = if self.every_slot {
            slot
        } else {
            let s32 = u32::try_from(slot).expect("slot fits u32");
            self.awake
                .binary_search(&s32)
                .expect("an executing slot must be in the frame's awake set")
        };
        self.loads[substep * self.awake.len() + column]
    }
}

struct Worker {
    requests: Sender<(ShardState, Arc<Frame>)>,
    done: Receiver<ShardState>,
    join: JoinHandle<()>,
}

fn worker_main(
    me: usize,
    requests: &Receiver<(ShardState, Arc<Frame>)>,
    done: &Sender<ShardState>,
) {
    while let Ok((mut state, frame)) = requests.recv() {
        {
            let _span = tspan!("shard.step", "fleet");
            let sf = &frame.shards[me];
            state.run_batch(
                &frame.batch(),
                |i, slot, _| sf.load(i, slot),
                |slot, _| sf.final_loads[slot],
            );
        }
        // Release the frame before handing the state back: the returned
        // state is the coordinator's barrier.
        drop(frame);
        if done.send(state).is_err() {
            break;
        }
    }
}

/// One persistent worker thread per shard.
pub(crate) struct Workers {
    workers: Vec<Worker>,
    /// The previous frame's buffers, reclaimed after the barrier for reuse.
    spare: Frame,
}

impl Workers {
    pub(crate) fn spawn(count: usize) -> Self {
        let workers = (0..count)
            .map(|me| {
                let (requests, worker_requests) = unbounded();
                let (worker_done, done) = unbounded();
                let join =
                    std::thread::spawn(move || worker_main(me, &worker_requests, &worker_done));
                Worker {
                    requests,
                    done,
                    join,
                }
            })
            .collect();
        Workers {
            workers,
            spare: Frame::empty(),
        }
    }

    /// Runs one batch: fills the frame, moves each shard's state to its
    /// worker, and takes every state back in shard order.
    pub(crate) fn run(
        &mut self,
        states: &mut Vec<ShardState>,
        batch: &Batch<'_>,
        load_of: &dyn Fn(RackId, usize) -> Watts,
    ) {
        debug_assert_eq!(states.len(), self.workers.len());
        let mut frame = std::mem::replace(&mut self.spare, Frame::empty());
        frame.fill(states, batch, load_of);
        let frame = Arc::new(frame);
        for (state, worker) in states.drain(..).zip(&self.workers) {
            worker
                .requests
                .send((state, Arc::clone(&frame)))
                .expect("shard worker alive");
        }
        let _wait = tspan!("fleet.barrier_wait", "fleet");
        for worker in &self.workers {
            states.push(worker.done.recv().expect("shard worker returns its state"));
        }
        if let Ok(frame) = Arc::try_unwrap(frame) {
            self.spare = frame;
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Dropping a worker's request sender ends its loop; join them all so
        // no thread outlives the engine.
        let joins: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.join).collect();
        for join in joins {
            let _ = join.join();
        }
    }
}
